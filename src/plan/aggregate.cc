#include "plan/operators.h"

namespace sieve {

HashAggregateOperator::HashAggregateOperator(OperatorPtr child,
                                             std::vector<ExprPtr> group_by,
                                             std::vector<SelectItem> items)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      items_(std::move(items)) {
  // Output schema mirrors the SELECT list.
  const Schema& input = child_->schema();
  for (const auto& item : items_) {
    DataType type = DataType::kNull;
    switch (item.agg) {
      case AggFn::kNone: {
        if (item.expr->kind() == ExprKind::kColumnRef) {
          const auto& ref = static_cast<const ColumnRefExpr&>(*item.expr);
          type = input.column(static_cast<size_t>(ref.bound_index())).type;
        }
        break;
      }
      case AggFn::kCount:
      case AggFn::kCountStar:
        type = DataType::kInt;
        break;
      case AggFn::kSum:
      case AggFn::kAvg:
        type = DataType::kDouble;
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        type = DataType::kNull;  // depends on input; resolved per value
        break;
    }
    schema_.AddColumn({item.OutputName(), type});
    if (item.agg != AggFn::kNone) ++num_aggs_;
  }
}

Status HashAggregateOperator::Accumulate(ExecContext* ctx) {
  Evaluator evaluator(&child_->schema(), ctx->hooks, ctx->metadata,
                      ctx->stats);
  RowBatch batch(
      EffectiveBatchSize(ctx->batch_size, child_->schema().num_columns()));
  Row row;
  while (true) {
    SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
    SIEVE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &batch));
    if (!has) break;
    for (size_t r = 0; r < batch.size(); ++r) {
      batch.MaterializeRow(r, &row);
      Row key;
      key.reserve(group_by_.size());
      for (const auto& g : group_by_) {
        SIEVE_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*g, row));
        key.push_back(std::move(v));
      }
      auto [it, inserted] =
          group_index_.emplace(std::move(key), groups_.size());
      const size_t group_pos = it->second;
      if (inserted) {
        GroupState state;
        state.first_row = row;
        state.aggs.resize(num_aggs_);
        groups_.push_back(std::move(state));
      }

      // Update aggregate states in SELECT-list order.
      size_t agg_pos = 0;
      for (const auto& item : items_) {
        if (item.agg == AggFn::kNone) continue;
        AggState& agg = groups_[group_pos].aggs[agg_pos++];
        if (item.agg == AggFn::kCountStar) {
          ++agg.count;
          continue;
        }
        SIEVE_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*item.expr, row));
        if (v.is_null()) continue;
        ++agg.count;
        agg.sum += v.AsDouble();
        if (!agg.saw_value || v.Compare(agg.min) < 0) agg.min = v;
        if (!agg.saw_value || v.Compare(agg.max) > 0) agg.max = v;
        agg.saw_value = true;
      }
    }
  }
  return Status::OK();
}

Status HashAggregateOperator::Open(ExecContext* ctx) {
  groups_.clear();
  group_index_.clear();
  pos_ = 0;

  SIEVE_RETURN_IF_ERROR(child_->Open(ctx));
  SIEVE_RETURN_IF_ERROR(Accumulate(ctx));

  // SQL semantics: a global aggregate (no GROUP BY) over an empty input
  // still yields one row (COUNT(*) = 0).
  if (group_by_.empty() && groups_.empty()) {
    bool all_aggs = true;
    for (const auto& item : items_) {
      if (item.agg == AggFn::kNone) all_aggs = false;
    }
    if (all_aggs) {
      GroupState state;
      state.aggs.resize(num_aggs_);
      groups_.push_back(std::move(state));
    }
  }
  return Status::OK();
}

Result<bool> HashAggregateOperator::NextBatch(ExecContext* ctx,
                                              RowBatch* out) {
  (void)ctx;
  out->clear();
  // Group-key expressions are re-evaluated on the representative row, so
  // arbitrary scalar expressions of the group key work.
  Evaluator evaluator(&child_->schema(), nullptr, nullptr, nullptr);
  Row row;
  while (pos_ < groups_.size() && !out->full()) {
    const GroupState& group = groups_[pos_++];
    row.clear();
    size_t agg_pos = 0;
    for (const auto& item : items_) {
      if (item.agg == AggFn::kNone) {
        SIEVE_ASSIGN_OR_RETURN(Value v,
                               evaluator.Eval(*item.expr, group.first_row));
        row.push_back(std::move(v));
        continue;
      }
      const AggState& agg = group.aggs[agg_pos++];
      switch (item.agg) {
        case AggFn::kCount:
        case AggFn::kCountStar:
          row.push_back(Value::Int(agg.count));
          break;
        case AggFn::kSum:
          row.push_back(agg.count == 0 ? Value::Null()
                                       : Value::Double(agg.sum));
          break;
        case AggFn::kAvg:
          row.push_back(agg.count == 0
                            ? Value::Null()
                            : Value::Double(agg.sum /
                                            static_cast<double>(agg.count)));
          break;
        case AggFn::kMin:
          row.push_back(agg.saw_value ? agg.min : Value::Null());
          break;
        case AggFn::kMax:
          row.push_back(agg.saw_value ? agg.max : Value::Null());
          break;
        case AggFn::kNone:
          break;
      }
    }
    out->PushRow(std::move(row));
  }
  return !out->empty();
}

std::string HashAggregateOperator::name() const {
  return "HashAggregate(groups=" + std::to_string(group_by_.size()) + ")";
}

}  // namespace sieve
