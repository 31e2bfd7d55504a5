#include <algorithm>

#include "common/string_util.h"
#include "plan/operators.h"

namespace sieve {

namespace {

// Collects row ids matching `range` through the index on range.column.
Result<std::vector<RowId>> ProbeIndex(const TableEntry* entry,
                                      const IndexRange& range) {
  const Index* index = entry->indexes.Find(range.column);
  if (index == nullptr) {
    return Status::ExecutionError("no index on column " + range.column +
                                  " of table " + entry->table->name());
  }
  return index->tree().LookupRange(range.lo, range.lo_inclusive, range.hi,
                                   range.hi_inclusive);
}

std::string RangeToString(const IndexRange& r) {
  std::string out = r.column + "[";
  out += r.lo.has_value() ? (r.lo_inclusive ? "[" : "(") + r.lo->ToString()
                          : std::string("(-inf");
  out += " .. ";
  out += r.hi.has_value() ? r.hi->ToString() + (r.hi_inclusive ? "]" : ")")
                          : std::string("+inf)");
  out += "]";
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SeqScanOperator
// ---------------------------------------------------------------------------

SeqScanOperator::SeqScanOperator(const TableEntry* entry, std::string qualifier)
    : entry_(entry), qualifier_(std::move(qualifier)) {
  schema_ = QualifySchema(entry_->table->schema(), qualifier_);
}

SeqScanOperator::SeqScanOperator(const TableEntry* entry, std::string qualifier,
                                 RowId begin_slot, RowId end_slot)
    : entry_(entry),
      qualifier_(std::move(qualifier)),
      begin_slot_(begin_slot),
      end_slot_(end_slot) {
  schema_ = QualifySchema(entry_->table->schema(), qualifier_);
}

Status SeqScanOperator::Open(ExecContext* ctx) {
  (void)ctx;
  next_id_ = begin_slot_;
  scan_end_ = end_slot_ >= 0 ? end_slot_
                             : static_cast<RowId>(entry_->table->num_slots());
  return Status::OK();
}

Result<bool> SeqScanOperator::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->clear();
  SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
  const Table& table = *entry_->table;
  uint64_t scanned = 0;
  while (next_id_ < scan_end_ && !out->full()) {
    RowId id = next_id_++;
    if (!table.IsLive(id)) continue;
    // Views into the base table: its rows are stable for the whole query,
    // so string cells are never copied on the scan path.
    out->AppendExternalRow(table.Get(id));
    ++scanned;
  }
  if (ctx->stats != nullptr) ctx->stats->tuples_scanned += scanned;
  return !out->empty();
}

bool SeqScanOperator::CreatePartitions(size_t num_parts,
                                       std::vector<OperatorPtr>* out) const {
  size_t slots = entry_->table->num_slots();
  for (size_t i = 0; i < num_parts; ++i) {
    size_t begin = 0, end = 0;
    PartitionSlice(slots, i, num_parts, &begin, &end);
    out->push_back(OperatorPtr(new SeqScanOperator(
        entry_, qualifier_, static_cast<RowId>(begin),
        static_cast<RowId>(end))));
  }
  return true;
}

size_t SeqScanOperator::PartitionRows() const {
  return entry_->table->num_slots();
}

std::string SeqScanOperator::name() const {
  return "SeqScan(" + entry_->table->name() +
         (qualifier_.empty() ? "" : " AS " + qualifier_) + ")";
}

// ---------------------------------------------------------------------------
// RowIdListScanOperator
// ---------------------------------------------------------------------------

RowIdListScanOperator::RowIdListScanOperator(const TableEntry* entry,
                                             std::string qualifier)
    : entry_(entry), qualifier_(std::move(qualifier)) {
  schema_ = QualifySchema(entry_->table->schema(), qualifier_);
}

Status RowIdListScanOperator::Open(ExecContext* ctx) {
  (void)ctx;
  if (ids_ == &row_ids_) {  // clones borrow their parent's probe instead
    SIEVE_ASSIGN_OR_RETURN(row_ids_, Probe());
  }
  pos_ = slice_begin_;
  end_ = std::min(slice_end_, ids_->size());
  return Status::OK();
}

Result<bool> RowIdListScanOperator::NextBatch(ExecContext* ctx,
                                              RowBatch* out) {
  out->clear();
  SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
  const Table& table = *entry_->table;
  uint64_t fetched = 0;
  while (pos_ < end_ && !out->full()) {
    RowId id = (*ids_)[pos_++];
    if (!table.IsLive(id)) continue;
    out->AppendExternalRow(table.Get(id));
    ++fetched;
  }
  if (ctx->stats != nullptr) ctx->stats->index_probe_rows += fetched;
  return !out->empty();
}

bool RowIdListScanOperator::CreatePartitions(
    size_t num_parts, std::vector<OperatorPtr>* out) const {
  for (size_t i = 0; i < num_parts; ++i) {
    std::unique_ptr<RowIdListScanOperator> clone = CloneUnopened();
    clone->ids_ = ids_;
    PartitionSlice(ids_->size(), i, num_parts, &clone->slice_begin_,
                   &clone->slice_end_);
    out->push_back(std::move(clone));
  }
  return true;
}

// ---------------------------------------------------------------------------
// IndexRangeScanOperator
// ---------------------------------------------------------------------------

IndexRangeScanOperator::IndexRangeScanOperator(const TableEntry* entry,
                                               std::string qualifier,
                                               IndexRange range)
    : RowIdListScanOperator(entry, std::move(qualifier)),
      range_(std::move(range)) {}

Result<std::vector<RowId>> IndexRangeScanOperator::Probe() const {
  return ProbeIndex(entry_, range_);
}

std::unique_ptr<RowIdListScanOperator> IndexRangeScanOperator::CloneUnopened()
    const {
  return std::make_unique<IndexRangeScanOperator>(entry_, qualifier_, range_);
}

std::string IndexRangeScanOperator::name() const {
  return "IndexRangeScan(" + entry_->table->name() + " " +
         RangeToString(range_) + ")";
}

// ---------------------------------------------------------------------------
// IndexUnionBitmapScanOperator
// ---------------------------------------------------------------------------

IndexUnionBitmapScanOperator::IndexUnionBitmapScanOperator(
    const TableEntry* entry, std::string qualifier,
    std::vector<IndexRange> ranges)
    : RowIdListScanOperator(entry, std::move(qualifier)),
      ranges_(std::move(ranges)) {}

Result<std::vector<RowId>> IndexUnionBitmapScanOperator::Probe() const {
  Bitmap bitmap(entry_->table->num_slots());
  for (const IndexRange& range : ranges_) {
    SIEVE_ASSIGN_OR_RETURN(std::vector<RowId> ids, ProbeIndex(entry_, range));
    for (RowId id : ids) bitmap.Set(id);
  }
  return bitmap.ToVector();
}

std::unique_ptr<RowIdListScanOperator>
IndexUnionBitmapScanOperator::CloneUnopened() const {
  return std::make_unique<IndexUnionBitmapScanOperator>(entry_, qualifier_,
                                                        ranges_);
}

std::string IndexUnionBitmapScanOperator::name() const {
  std::vector<std::string> parts;
  parts.reserve(ranges_.size());
  for (const auto& r : ranges_) parts.push_back(RangeToString(r));
  return "IndexUnionBitmapScan(" + entry_->table->name() + " " +
         Join(parts, " OR ") + ")";
}

}  // namespace sieve
