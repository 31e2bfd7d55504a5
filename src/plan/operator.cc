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

// ---------------------------------------------------------------------------
// FilterOperator
// ---------------------------------------------------------------------------

FilterOperator::FilterOperator(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterOperator::Open(ExecContext* ctx) {
  SIEVE_RETURN_IF_ERROR(child_->Open(ctx));
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
        std::make_unique<FilterOperator>(std::move(child), predicate_));
  }
  return true;
}

// ---------------------------------------------------------------------------
// ProjectOperator
// ---------------------------------------------------------------------------

ProjectOperator::ProjectOperator(OperatorPtr child,
                                 std::vector<SelectItem> items)
    : child_(std::move(child)), items_(std::move(items)) {
  const Schema& input = child_->schema();
  for (const auto& item : items_) {
    DataType type = DataType::kNull;
    if (item.expr->kind() == ExprKind::kColumnRef) {
      int idx = static_cast<const ColumnRefExpr&>(*item.expr).bound_index();
      type = input.column(static_cast<size_t>(idx)).type;
      permute_.push_back(idx);
      permute_max_col_ = std::max(permute_max_col_, idx);
    } else if (item.expr->kind() == ExprKind::kLiteral) {
      type = static_cast<const LiteralExpr&>(*item.expr).value().type();
    }
    schema_.AddColumn({item.OutputName(), type});
  }
  // Pure column projection: when every item is a column ref, output column
  // j is just input column permute_[j]. Duplicated references share the
  // batch's arrays, so nothing needs copying.
  if (permute_.size() != items_.size()) permute_.clear();
}

Status ProjectOperator::Open(ExecContext* ctx) {
  SIEVE_RETURN_IF_ERROR(child_->Open(ctx));
  evaluator_ = std::make_unique<Evaluator>(&child_->schema(), ctx->hooks,
                                           ctx->metadata, ctx->stats);
  child_batch_.reset(
      EffectiveBatchSize(ctx->batch_size, child_->schema().num_columns()));
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
    out->push_back(std::make_unique<ProjectOperator>(std::move(child), items_));
  }
  return true;
}

// ---------------------------------------------------------------------------
// RowSet
// ---------------------------------------------------------------------------

bool RowSet::Contains(const Row& row) const {
  auto it = buckets_.find(RowHash64(row));
  if (it == buckets_.end()) return false;
  for (const Row& prev : it->second) {
    if (RowsEqual(prev, row)) return true;
  }
  return false;
}

bool RowSet::Insert(const Row& row) {
  std::vector<Row>& bucket = buckets_[RowHash64(row)];
  for (const Row& prev : bucket) {
    if (RowsEqual(prev, row)) return false;
  }
  bucket.push_back(row);
  return true;
}

// ---------------------------------------------------------------------------
// UnionOperator
// ---------------------------------------------------------------------------

UnionOperator::UnionOperator(std::vector<OperatorPtr> children, bool all)
    : children_(std::move(children)),
      all_(all),
      schema_(children_.front()->schema()) {}

Status UnionOperator::Open(ExecContext* ctx) {
  const size_t n = children_.size();
  std::vector<std::vector<Row>> arm_rows;
  buffered_ = ctx->num_threads > 1 && ctx->pool != nullptr;
  if (buffered_) {
    // Concurrent arms: each child drains under its own worker context, its
    // pipeline free to partition further.
    arm_rows.resize(n);
    SIEVE_RETURN_IF_ERROR(
        RunWorkers(ctx, n, [&](size_t i, ExecContext* worker) {
          return Executor::Materialize(children_[i].get(), worker,
                                       &arm_rows[i]);
        }));
  } else {
    for (const OperatorPtr& child : children_) {
      SIEVE_RETURN_IF_ERROR(child->Open(ctx));
    }
  }
  current_ = 0;
  seen_.clear();
  out_rows_.clear();
  out_pos_ = 0;
  // The arm buffers in child order are the serial input stream; the same
  // first-occurrence filter NextBatch streams through keeps the serial
  // rows and row order. The set is local: once Open returns, only the
  // deduped rows stay buffered.
  RowSet arm_seen;
  for (std::vector<Row>& rows : arm_rows) {
    for (Row& row : rows) {
      if (!all_ && !arm_seen.Insert(row)) continue;
      out_rows_.push_back(std::move(row));
    }
  }
  child_batch_.reset(
      EffectiveBatchSize(ctx->batch_size, schema_.num_columns()));
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
      if (!all_ && !seen_.Insert(row)) continue;
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

Status ExceptOperator::Open(ExecContext* ctx) {
  SIEVE_RETURN_IF_ERROR(left_->Open(ctx));
  SIEVE_RETURN_IF_ERROR(right_->Open(ctx));
  emitted_.clear();
  left_batch_.reset(
      EffectiveBatchSize(ctx->batch_size, schema().num_columns()));
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
      right_rows_.Insert(row);
    }
  }
  return Status::OK();
}

Result<bool> ExceptOperator::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->clear();
  Row row;
  while (out->empty()) {
    SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
    SIEVE_ASSIGN_OR_RETURN(bool has, left_->NextBatch(ctx, &left_batch_));
    if (!has) return false;
    for (size_t k = 0; k < left_batch_.size(); ++k) {
      left_batch_.MaterializeRow(k, &row);
      if (right_rows_.Contains(row) || !emitted_.Insert(row)) continue;
      out->PushRow(std::move(row));
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// MaterializedScanOperator
// ---------------------------------------------------------------------------

MaterializedScanOperator::MaterializedScanOperator(const PlannedCte* cte,
                                                   std::string qualifier)
    : label_(cte->name),
      schema_(QualifySchema(cte->body->schema(), qualifier)),
      source_(&cte->rows) {}

MaterializedScanOperator::MaterializedScanOperator(std::string qualifier,
                                                   OperatorPtr child)
    : label_("derived"),
      schema_(QualifySchema(child->schema(), qualifier)),
      child_(std::move(child)) {}

MaterializedScanOperator::MaterializedScanOperator(
    std::string label, Schema schema, const std::vector<Row>* source,
    size_t begin, size_t end)
    : label_(std::move(label)),
      schema_(std::move(schema)),
      source_(source),
      slice_begin_(begin),
      slice_end_(end) {}

Status MaterializedScanOperator::Open(ExecContext* ctx) {
  if (child_ != nullptr) {
    // A derived table materializes here, fanning out through
    // Executor::Materialize when the context enables parallelism. A CTE's
    // rows are already there: the executor materialized every CTE before
    // the query root opened.
    derived_.clear();
    SIEVE_RETURN_IF_ERROR(Executor::Materialize(child_.get(), ctx, &derived_));
  }
  pos_ = slice_begin_;
  end_ = std::min(slice_end_, source_->size());
  return Status::OK();
}

Result<bool> MaterializedScanOperator::NextBatch(ExecContext* ctx,
                                                 RowBatch* out) {
  out->clear();
  if (pos_ >= end_) return false;
  SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
  while (pos_ < end_ && !out->full()) {
    // Views, not copies: the materialized rows are immutable and alive for
    // the whole query, so the batch references them directly.
    out->AppendExternalRow((*source_)[pos_++]);
  }
  return !out->empty();
}

bool MaterializedScanOperator::CreatePartitions(
    size_t num_parts, std::vector<OperatorPtr>* out) const {
  for (size_t i = 0; i < num_parts; ++i) {
    size_t begin = 0, end = 0;
    PartitionSlice(source_->size(), i, num_parts, &begin, &end);
    out->push_back(OperatorPtr(
        new MaterializedScanOperator(label_, schema_, source_, begin, end)));
  }
  return true;
}

std::string MaterializedScanOperator::name() const {
  return "MaterializedScan(" + label_ + ")";
}

}  // namespace sieve
