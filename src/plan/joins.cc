#include "plan/executor.h"
#include "plan/operators.h"

namespace sieve {

namespace {

Schema ConcatSchemas(const Schema& left, const Schema& right) {
  Schema out = left;
  for (const auto& col : right.columns()) out.AddColumn(col);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// HashJoinOperator
// ---------------------------------------------------------------------------

HashJoinOperator::HashJoinOperator(OperatorPtr left, OperatorPtr right,
                                   std::vector<ExprPtr> left_keys,
                                   std::vector<ExprPtr> right_keys)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      schema_(ConcatSchemas(left_->schema(), right_->schema())) {}

Status HashJoinOperator::BuildHashTable(ExecContext* ctx) {
  SIEVE_RETURN_IF_ERROR(right_->Open(ctx));
  right_eval_ = std::make_unique<Evaluator>(&right_->schema(), ctx->hooks,
                                            ctx->metadata, ctx->stats);
  build_.clear();
  RowBatch batch(
      EffectiveBatchSize(ctx->batch_size, right_->schema().num_columns()));
  Row row;
  while (true) {
    SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
    SIEVE_ASSIGN_OR_RETURN(bool has, right_->NextBatch(ctx, &batch));
    if (!has) break;
    for (size_t r = 0; r < batch.size(); ++r) {
      batch.MaterializeRow(r, &row);
      Row key;
      key.reserve(right_keys_.size());
      for (const auto& k : right_keys_) {
        SIEVE_ASSIGN_OR_RETURN(Value v, right_eval_->Eval(*k, row));
        key.push_back(std::move(v));
      }
      build_[std::move(key)].push_back(std::move(row));
    }
  }
  return Status::OK();
}

Status HashJoinOperator::Open(ExecContext* ctx) {
  // Open the probe side first (so its errors surface before the build
  // drain), then build and stream left rows through NextBatch.
  SIEVE_RETURN_IF_ERROR(left_->Open(ctx));
  SIEVE_RETURN_IF_ERROR(BuildHashTable(ctx));
  left_eval_ = std::make_unique<Evaluator>(&left_->schema(), ctx->hooks,
                                           ctx->metadata, ctx->stats);
  probe_batch_.reset(
      EffectiveBatchSize(ctx->batch_size, left_->schema().num_columns()));
  probe_pos_ = 0;
  matches_ = nullptr;
  match_pos_ = 0;
  return Status::OK();
}

Result<bool> HashJoinOperator::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->clear();
  while (!out->full()) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      const Row& right_row = (*matches_)[match_pos_++];
      Row o;
      o.reserve(current_left_.size() + right_row.size());
      if (match_pos_ == matches_->size()) {
        // Last match of this probe row: steal its cells.
        for (Value& v : current_left_) o.push_back(std::move(v));
      } else {
        o.insert(o.end(), current_left_.begin(), current_left_.end());
      }
      o.insert(o.end(), right_row.begin(), right_row.end());
      out->PushRow(std::move(o));
      continue;
    }
    if (probe_pos_ >= probe_batch_.size()) {
      SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
      SIEVE_ASSIGN_OR_RETURN(bool has, left_->NextBatch(ctx, &probe_batch_));
      if (!has) break;
      probe_pos_ = 0;
    }
    probe_batch_.MaterializeRow(probe_pos_++, &current_left_);
    Row key;
    key.reserve(left_keys_.size());
    for (const auto& k : left_keys_) {
      SIEVE_ASSIGN_OR_RETURN(Value v, left_eval_->Eval(*k, current_left_));
      key.push_back(std::move(v));
    }
    auto it = build_.find(key);
    matches_ = it == build_.end() ? nullptr : &it->second;
    match_pos_ = 0;
  }
  return !out->empty();
}

std::string HashJoinOperator::name() const {
  std::string keys;
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) keys += ", ";
    keys += left_keys_[i]->ToSql() + "=" + right_keys_[i]->ToSql();
  }
  return "HashJoin(" + keys + ")";
}

// ---------------------------------------------------------------------------
// NestedLoopJoinOperator
// ---------------------------------------------------------------------------

NestedLoopJoinOperator::NestedLoopJoinOperator(OperatorPtr left,
                                               OperatorPtr right)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(ConcatSchemas(left_->schema(), right_->schema())) {}

NestedLoopJoinOperator::NestedLoopJoinOperator(OperatorPtr left,
                                               const std::vector<Row>* right,
                                               Schema schema)
    : left_(std::move(left)), schema_(std::move(schema)), inner_(right) {}

Status NestedLoopJoinOperator::Open(ExecContext* ctx) {
  SIEVE_RETURN_IF_ERROR(left_->Open(ctx));
  if (right_ != nullptr) {  // partition clones borrow the parent's rows
    right_rows_.clear();
    SIEVE_RETURN_IF_ERROR(
        Executor::Materialize(right_.get(), ctx, &right_rows_));
  }
  left_valid_ = false;
  right_pos_ = 0;
  left_batch_.reset(
      EffectiveBatchSize(ctx->batch_size, left_->schema().num_columns()));
  left_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinOperator::NextBatch(ExecContext* ctx,
                                               RowBatch* out) {
  out->clear();
  const std::vector<Row>& right_rows = *inner_;
  while (!out->full()) {
    if (!left_valid_) {
      if (left_pos_ >= left_batch_.size()) {
        SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
        SIEVE_ASSIGN_OR_RETURN(bool has, left_->NextBatch(ctx, &left_batch_));
        if (!has) break;
        left_pos_ = 0;
      }
      left_batch_.MaterializeRow(left_pos_++, &current_left_);
      left_valid_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows.size() && !out->full()) {
      const Row& right_row = right_rows[right_pos_++];
      Row o;
      o.reserve(current_left_.size() + right_row.size());
      if (right_pos_ == right_rows.size()) {
        // Last right row for this outer row: steal the outer cells.
        for (Value& v : current_left_) o.push_back(std::move(v));
      } else {
        o.insert(o.end(), current_left_.begin(), current_left_.end());
      }
      o.insert(o.end(), right_row.begin(), right_row.end());
      out->PushRow(std::move(o));
    }
    if (right_pos_ >= right_rows.size()) left_valid_ = false;
  }
  return !out->empty();
}

bool NestedLoopJoinOperator::CreatePartitions(
    size_t num_parts, std::vector<OperatorPtr>* out) const {
  std::vector<OperatorPtr> left_parts;
  if (!left_->CreatePartitions(num_parts, &left_parts)) return false;
  for (auto& part : left_parts) {
    out->push_back(OperatorPtr(
        new NestedLoopJoinOperator(std::move(part), inner_, schema_)));
  }
  return true;
}

std::string NestedLoopJoinOperator::name() const { return "NestedLoopJoin"; }

}  // namespace sieve
