#include "plan/operators.h"

#include <algorithm>

#include "common/string_util.h"
#include "plan/executor.h"

namespace sieve {

Schema QualifySchema(const Schema& schema, const std::string& qualifier) {
  Schema out;
  for (const auto& col : schema.columns()) {
    std::string base = col.name;
    size_t dot = base.rfind('.');
    if (dot != std::string::npos) base = base.substr(dot + 1);
    out.AddColumn(
        {qualifier.empty() ? base : qualifier + "." + base, col.type});
  }
  return out;
}

void PartitionSlice(size_t total, size_t part, size_t num_parts, size_t* begin,
                    size_t* end) {
  size_t chunk = num_parts == 0 ? total : (total + num_parts - 1) / num_parts;
  *begin = std::min(part * chunk, total);
  *end = std::min(*begin + chunk, total);
}

uint64_t RowHash64(const Row& row) {
  uint64_t h = 1469598103934665603ULL;
  for (const Value& v : row) {
    h ^= v.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

std::string RowFingerprint(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += static_cast<char>(v.type());
    out += v.ToString();
    out += '\x1f';
  }
  return out;
}

std::vector<SelectItem> CloneItems(const std::vector<SelectItem>& items) {
  std::vector<SelectItem> out;
  out.reserve(items.size());
  for (const auto& item : items) {
    out.push_back(SelectItem{
        item.expr != nullptr ? item.expr->Clone() : nullptr, item.agg,
        item.alias});
  }
  return out;
}

// ---------------------------------------------------------------------------
// FilterOperator
// ---------------------------------------------------------------------------

FilterOperator::FilterOperator(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterOperator::Open(ExecContext* ctx) {
  SIEVE_RETURN_IF_ERROR(child_->Open(ctx));
  SIEVE_RETURN_IF_ERROR(BindExpr(predicate_.get(), child_->schema()));
  evaluator_ = std::make_unique<Evaluator>(&child_->schema(), ctx->hooks,
                                           ctx->metadata, ctx->stats);
  child_batch_.reset(
      EffectiveBatchSize(ctx->batch_size, child_->schema().num_columns()));
  return Status::OK();
}

Result<bool> FilterOperator::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->clear();
  while (true) {
    SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
    SIEVE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &child_batch_));
    if (!has) return false;
    // One predicate-tree walk covers the whole batch — this is where the
    // guard / Δ policy checks batch across tuples: the kernels run
    // column-wise over the batch's typed arrays.
    SIEVE_RETURN_IF_ERROR(
        evaluator_->EvalPredicateBatch(*predicate_, child_batch_, &pass_));
    child_batch_.NarrowToPassing(pass_.data());
    if (child_batch_.empty()) continue;
    // No rows move: the surviving rows travel as a selection vector over
    // the child batch's columns.
    out->SwapWith(&child_batch_);
    return true;
  }
}

std::string FilterOperator::name() const {
  return "Filter(" + predicate_->ToSql() + ")";
}

bool FilterOperator::CreatePartitions(size_t num_parts,
                                      std::vector<OperatorPtr>* out) const {
  std::vector<OperatorPtr> children;
  if (!child_->CreatePartitions(num_parts, &children)) return false;
  for (auto& child : children) {
    out->push_back(
        std::make_unique<FilterOperator>(std::move(child), predicate_->Clone()));
  }
  return true;
}

// ---------------------------------------------------------------------------
// ProjectOperator
// ---------------------------------------------------------------------------

ProjectOperator::ProjectOperator(OperatorPtr child,
                                 std::vector<SelectItem> items)
    : child_(std::move(child)), items_(std::move(items)) {}

Status ProjectOperator::Open(ExecContext* ctx) {
  SIEVE_RETURN_IF_ERROR(child_->Open(ctx));
  schema_ = Schema();
  for (auto& item : items_) {
    SIEVE_RETURN_IF_ERROR(BindExpr(item.expr.get(), child_->schema()));
    DataType type = DataType::kNull;
    if (item.expr->kind() == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(*item.expr);
      if (ref.bound_index() >= 0) {
        type = child_->schema().column(static_cast<size_t>(ref.bound_index())).type;
      }
    } else if (item.expr->kind() == ExprKind::kLiteral) {
      type = static_cast<const LiteralExpr&>(*item.expr).value().type();
    }
    schema_.AddColumn({item.OutputName(), type});
  }
  evaluator_ = std::make_unique<Evaluator>(&child_->schema(), ctx->hooks,
                                           ctx->metadata, ctx->stats);
  child_batch_.reset(
      EffectiveBatchSize(ctx->batch_size, child_->schema().num_columns()));

  // Pure column projection: every item is a bound column ref, so output
  // column j is just input column permute_[j]. Duplicated references
  // share the batch's arrays, so nothing needs copying.
  permute_.clear();
  permute_max_col_ = -1;
  for (const auto& item : items_) {
    if (item.expr->kind() != ExprKind::kColumnRef) break;
    int idx = static_cast<const ColumnRefExpr&>(*item.expr).bound_index();
    if (idx < 0) break;
    permute_.push_back(idx);
    permute_max_col_ = std::max(permute_max_col_, idx);
  }
  if (permute_.size() != items_.size()) permute_.clear();
  return Status::OK();
}

Result<bool> ProjectOperator::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->clear();
  SIEVE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &child_batch_));
  if (!has) return false;
  if (!permute_.empty() &&
      static_cast<size_t>(permute_max_col_) < child_batch_.num_columns()) {
    // Pure column projection: take the whole batch and shuffle column
    // descriptors — no cell is copied or even touched.
    out->SwapWith(&child_batch_);
    out->PermuteColumns(permute_);
    return true;
  }
  for (size_t k = 0; k < child_batch_.size(); ++k) {
    child_batch_.MaterializeRow(k, &scratch_in_);
    scratch_out_.clear();
    for (const auto& item : items_) {
      SIEVE_ASSIGN_OR_RETURN(Value v,
                             evaluator_->Eval(*item.expr, scratch_in_));
      scratch_out_.push_back(std::move(v));
    }
    out->PushRow(std::move(scratch_out_));
  }
  return true;
}

std::string ProjectOperator::name() const {
  std::vector<std::string> parts;
  parts.reserve(items_.size());
  for (const auto& item : items_) parts.push_back(item.ToSql());
  return "Project(" + Join(parts, ", ") + ")";
}

bool ProjectOperator::CreatePartitions(size_t num_parts,
                                       std::vector<OperatorPtr>* out) const {
  std::vector<OperatorPtr> children;
  if (!child_->CreatePartitions(num_parts, &children)) return false;
  for (auto& child : children) {
    out->push_back(std::make_unique<ProjectOperator>(std::move(child),
                                                     CloneItems(items_)));
  }
  return true;
}

// ---------------------------------------------------------------------------
// ConcurrentDedupSet
// ---------------------------------------------------------------------------

ConcurrentDedupSet::ConcurrentDedupSet() : stripes_(kNumStripes) {}

bool ConcurrentDedupSet::Offer(const Row& row, uint64_t tag) {
  uint64_t h = RowHash64(row);
  Stripe& stripe = stripes_[h & (kNumStripes - 1)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  std::vector<Entry>& bucket = stripe.buckets[h];
  for (Entry& entry : bucket) {
    if (!RowsEqual(entry.row, row)) continue;
    if (tag < entry.min_tag) {
      entry.min_tag = tag;
      return true;
    }
    return false;
  }
  bucket.push_back(Entry{row, tag});
  return true;
}

bool ConcurrentDedupSet::IsWinner(const Row& row, uint64_t tag) const {
  uint64_t h = RowHash64(row);
  const Stripe& stripe = stripes_[h & (kNumStripes - 1)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.buckets.find(h);
  if (it == stripe.buckets.end()) return false;
  for (const Entry& entry : it->second) {
    if (RowsEqual(entry.row, row)) return entry.min_tag == tag;
  }
  return false;
}

// ---------------------------------------------------------------------------
// UnionOperator
// ---------------------------------------------------------------------------

namespace {

// Serial position tag for parallel UNION dedup: child-major, sequence-minor
// — i.e. the row's position in the serial output stream.
uint64_t UnionTag(size_t child, size_t seq) {
  return (static_cast<uint64_t>(child) << 40) | static_cast<uint64_t>(seq);
}

}  // namespace

UnionOperator::UnionOperator(std::vector<OperatorPtr> children, bool all)
    : children_(std::move(children)), all_(all) {}

Status UnionOperator::Open(ExecContext* ctx) {
  if (children_.empty()) {
    return Status::Internal("UNION requires at least one child");
  }
  buffered_ = false;
  out_rows_.clear();
  out_pos_ = 0;
  if (ctx->num_threads > 1 && ctx->pool != nullptr) {
    return OpenParallel(ctx);
  }
  for (auto& child : children_) {
    SIEVE_RETURN_IF_ERROR(child->Open(ctx));
  }
  schema_ = children_.front()->schema();
  for (const auto& child : children_) {
    if (child->schema().num_columns() != schema_.num_columns()) {
      return Status::ExecutionError(
          "UNION arms produce different column counts");
    }
  }
  current_ = 0;
  seen_.clear();
  child_batch_.reset(
      EffectiveBatchSize(ctx->batch_size, schema_.num_columns()));
  return Status::OK();
}

Status UnionOperator::OpenParallel(ExecContext* ctx) {
  const size_t n = children_.size();
  std::vector<Schema> worker_schemas(n);
  // Per-child surviving rows with their serial-position tags; for UNION ALL
  // the tags are unused and every row survives.
  std::vector<std::vector<std::pair<Row, uint64_t>>> kept(n);
  ConcurrentDedupSet dedup;

  SIEVE_RETURN_IF_ERROR(
      RunWorkers(ctx, n, [&](size_t i, ExecContext* worker) {
        std::vector<Row> rows;
        SIEVE_RETURN_IF_ERROR(Executor::Materialize(
            children_[i].get(), worker, &worker_schemas[i], &rows));
        kept[i].reserve(rows.size());
        for (size_t seq = 0; seq < rows.size(); ++seq) {
          uint64_t tag = UnionTag(i, seq);
          if (!all_ && !dedup.Offer(rows[seq], tag)) continue;
          kept[i].emplace_back(std::move(rows[seq]), tag);
        }
        return Status::OK();
      }));

  schema_ = worker_schemas.front();
  for (const Schema& schema : worker_schemas) {
    if (schema.num_columns() != schema_.num_columns()) {
      return Status::ExecutionError(
          "UNION arms produce different column counts");
    }
  }

  // Ordered merge: children in child order, rows in sequence order. For
  // UNION, only first-occurrence winners survive — exactly the rows (and
  // row order) the serial streaming dedup would emit.
  size_t total = 0;
  for (const auto& child_rows : kept) total += child_rows.size();
  out_rows_.reserve(total);
  for (auto& child_rows : kept) {
    for (auto& [row, tag] : child_rows) {
      if (!all_ && !dedup.IsWinner(row, tag)) continue;
      out_rows_.push_back(std::move(row));
    }
  }
  buffered_ = true;
  return Status::OK();
}

Result<bool> UnionOperator::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->clear();
  if (buffered_) {
    // The buffered rows outlive every batch served from them (they are
    // owned by this operator until the next Open), so views are safe.
    while (out_pos_ < out_rows_.size() && !out->full()) {
      out->AppendExternalRow(out_rows_[out_pos_++]);
    }
    return !out->empty();
  }
  Row row;
  while (out->empty() && current_ < children_.size()) {
    SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
    SIEVE_ASSIGN_OR_RETURN(bool has,
                           children_[current_]->NextBatch(ctx, &child_batch_));
    if (!has) {
      ++current_;
      continue;
    }
    for (size_t k = 0; k < child_batch_.size(); ++k) {
      child_batch_.MaterializeRow(k, &row);
      if (!all_) {
        uint64_t h = RowHash64(row);
        auto& bucket = seen_[h];
        bool duplicate = false;
        for (const Row& prev : bucket) {
          if (RowsEqual(prev, row)) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        bucket.push_back(row);
      }
      out->PushRow(std::move(row));
    }
  }
  return !out->empty();
}

std::string UnionOperator::name() const {
  return all_ ? "UnionAll" : "Union";
}

// ---------------------------------------------------------------------------
// ExceptOperator
// ---------------------------------------------------------------------------

ExceptOperator::ExceptOperator(OperatorPtr left, OperatorPtr right)
    : left_(std::move(left)), right_(std::move(right)) {}

bool ExceptOperator::Contains(
    const std::unordered_map<uint64_t, std::vector<Row>>& set,
    const Row& row) const {
  auto it = set.find(RowHash64(row));
  if (it == set.end()) return false;
  for (const Row& prev : it->second) {
    if (RowsEqual(prev, row)) return true;
  }
  return false;
}

Status ExceptOperator::DrainRightSet(ExecContext* ctx) {
  right_rows_.clear();
  RowBatch batch(
      EffectiveBatchSize(ctx->batch_size, right_->schema().num_columns()));
  Row row;
  while (true) {
    SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
    SIEVE_ASSIGN_OR_RETURN(bool has, right_->NextBatch(ctx, &batch));
    if (!has) break;
    for (size_t k = 0; k < batch.size(); ++k) {
      batch.MaterializeRow(k, &row);
      right_rows_[RowHash64(row)].push_back(std::move(row));
    }
  }
  return Status::OK();
}

Status ExceptOperator::Open(ExecContext* ctx) {
  buffered_ = false;
  out_rows_.clear();
  out_pos_ = 0;
  emitted_.clear();
  left_batch_.reset(static_cast<size_t>(
      EffectiveBatchSize(ctx->batch_size, /*num_columns=*/0)));

  // Parallel interior: build the subtrahend set once, then partition the
  // minuend probe across morsels (the set is read-only from then on).
  if (ctx->num_threads > 1 && ctx->pool != nullptr) {
    std::vector<OperatorPtr> parts;
    if (left_->CreatePartitions(PlanPartitionCount(*left_, *ctx),
                                &parts) &&
        !parts.empty()) {
      SIEVE_RETURN_IF_ERROR(right_->Open(ctx));
      SIEVE_RETURN_IF_ERROR(DrainRightSet(ctx));
      SIEVE_RETURN_IF_ERROR(OpenParallel(ctx, &parts));
      buffered_ = true;
      return Status::OK();
    }
  }

  SIEVE_RETURN_IF_ERROR(left_->Open(ctx));
  SIEVE_RETURN_IF_ERROR(right_->Open(ctx));
  schema_ = left_->schema();
  if (schema_.num_columns() != right_->schema().num_columns()) {
    return Status::ExecutionError("EXCEPT arms produce different column counts");
  }
  left_batch_.reset(
      EffectiveBatchSize(ctx->batch_size, schema_.num_columns()));
  return DrainRightSet(ctx);
}

Status ExceptOperator::OpenParallel(ExecContext* ctx,
                                    std::vector<OperatorPtr>* parts) {
  const size_t n = parts->size();
  std::vector<std::vector<Row>> kept(n);
  std::vector<Schema> worker_schemas(n);
  const std::unordered_map<uint64_t, std::vector<Row>>& right = right_rows_;

  SIEVE_RETURN_IF_ERROR(
      RunWorkers(ctx, n, [&](size_t i, ExecContext* worker) {
        Operator* part = (*parts)[i].get();
        SIEVE_RETURN_IF_ERROR(part->Open(worker));
        worker_schemas[i] = part->schema();
        RowBatch batch(EffectiveBatchSize(worker->batch_size,
                                          part->schema().num_columns()));
        Row row;
        while (true) {
          SIEVE_ASSIGN_OR_RETURN(bool has, part->NextBatch(worker, &batch));
          if (!has) return Status::OK();
          for (size_t r = 0; r < batch.size(); ++r) {
            batch.MaterializeRow(r, &row);
            if (Contains(right, row)) continue;
            kept[i].push_back(std::move(row));
          }
        }
      }));

  schema_ = worker_schemas.front();
  if (schema_.num_columns() != right_->schema().num_columns()) {
    return Status::ExecutionError("EXCEPT arms produce different column counts");
  }

  // Ordered distinct merge: morsels concatenate to the serial minuend
  // stream, and this streaming dedup is exactly the serial emitted_
  // filter — so rows and row order match a serial run.
  for (std::vector<Row>& rows : kept) {
    for (Row& row : rows) {
      if (Contains(emitted_, row)) continue;
      emitted_[RowHash64(row)].push_back(row);
      out_rows_.push_back(std::move(row));
    }
  }
  return Status::OK();
}

Result<bool> ExceptOperator::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->clear();
  if (buffered_) {
    // Buffered rows are owned by this operator until the next Open, so
    // views into them are stable for the batch's lifetime.
    while (out_pos_ < out_rows_.size() && !out->full()) {
      out->AppendExternalRow(out_rows_[out_pos_++]);
    }
    return !out->empty();
  }
  Row row;
  while (out->empty()) {
    SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
    SIEVE_ASSIGN_OR_RETURN(bool has, left_->NextBatch(ctx, &left_batch_));
    if (!has) return false;
    for (size_t k = 0; k < left_batch_.size(); ++k) {
      left_batch_.MaterializeRow(k, &row);
      if (Contains(right_rows_, row)) continue;
      if (Contains(emitted_, row)) continue;
      emitted_[RowHash64(row)].push_back(row);
      out->PushRow(std::move(row));
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// MaterializedScanOperator
// ---------------------------------------------------------------------------

MaterializedScanOperator::MaterializedScanOperator(std::string cache_key,
                                                   std::string qualifier,
                                                   OperatorPtr child)
    : cache_key_(std::move(cache_key)),
      qualifier_(std::move(qualifier)),
      child_(std::move(child)) {}

MaterializedScanOperator::MaterializedScanOperator(
    std::string cache_key, std::string qualifier,
    std::shared_ptr<SharedMaterialization> shared, size_t part,
    size_t num_parts)
    : cache_key_(std::move(cache_key)),
      qualifier_(std::move(qualifier)),
      shared_(std::move(shared)),
      part_(part),
      num_parts_(num_parts) {}

Status MaterializedScanOperator::Open(ExecContext* ctx) {
  // This materialization is the hot loop of the Sieve rewrite: the CTE body
  // evaluates guards and the Δ operator over the base table.
  // Executor::Materialize fans it out across partitions when the context
  // enables parallelism, and the CteCache / call_once below make it run
  // exactly once per query no matter which worker opens first.
  Operator* producer = shared_ != nullptr ? shared_->producer : child_.get();
  auto produce = [producer, ctx, this](MaterializedResult* out) -> Status {
    if (producer == nullptr) {
      return Status::Internal("materialized scan has no producer for " +
                              cache_key_);
    }
    return Executor::Materialize(producer, ctx, &out->schema, &out->rows);
  };

  const MaterializedResult* result = nullptr;
  if (!cache_key_.empty()) {
    // Bare serial contexts may open a scan directly without going through
    // Executor::Materialize; parallel contexts always carry the shared
    // query-root cache already.
    if (ctx->ctes == nullptr) ctx->ctes = std::make_shared<CteCache>();
    SIEVE_ASSIGN_OR_RETURN(result,
                           ctx->ctes->GetOrMaterialize(cache_key_, produce));
  } else if (shared_ != nullptr) {
    // Derived table shared by partition clones: the first opener drives the
    // producer, everyone slices the shared rows.
    SIEVE_ASSIGN_OR_RETURN(result, shared_->slot.GetOrProduce(produce));
  } else {
    private_result_ = MaterializedResult();
    SIEVE_RETURN_IF_ERROR(produce(&private_result_));
    result = &private_result_;
  }
  rows_ = &result->rows;
  schema_ = QualifySchema(result->schema, qualifier_);
  PartitionSlice(rows_->size(), part_, num_parts_, &pos_, &end_);
  return Status::OK();
}

Result<bool> MaterializedScanOperator::NextBatch(ExecContext* ctx,
                                                 RowBatch* out) {
  out->clear();
  if (rows_ == nullptr || pos_ >= end_) return false;
  SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
  while (pos_ < end_ && !out->full()) {
    // Views, not copies: the materialized result is shared, immutable and
    // alive for the whole query, so the batch references it directly.
    out->AppendExternalRow((*rows_)[pos_++]);
  }
  return !out->empty();
}

bool MaterializedScanOperator::CreatePartitions(
    size_t num_parts, std::vector<OperatorPtr>* out) const {
  auto shared = std::make_shared<SharedMaterialization>();
  shared->producer = child_.get();
  for (size_t i = 0; i < num_parts; ++i) {
    out->push_back(OperatorPtr(new MaterializedScanOperator(
        cache_key_, qualifier_, shared, i, num_parts)));
  }
  return true;
}

std::string MaterializedScanOperator::name() const {
  return "MaterializedScan(" +
         (cache_key_.empty() ? std::string("derived") : cache_key_) + ")";
}

}  // namespace sieve
