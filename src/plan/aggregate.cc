#include "plan/executor.h"
#include "plan/operators.h"

namespace sieve {

HashAggregateOperator::HashAggregateOperator(OperatorPtr child,
                                             std::vector<ExprPtr> group_by,
                                             std::vector<SelectItem> items)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      items_(std::move(items)) {}

void HashAggregateOperator::AggState::Merge(const AggState& other) {
  count += other.count;
  sum += other.sum;
  if (other.saw_value) {
    if (!saw_value || other.min.Compare(min) < 0) min = other.min;
    if (!saw_value || other.max.Compare(max) > 0) max = other.max;
    saw_value = true;
  }
}

void HashAggregateOperator::BuildOutputSchema(const Schema& input) {
  // Output schema mirrors the SELECT list.
  schema_ = Schema();
  for (const auto& item : items_) {
    DataType type = DataType::kNull;
    switch (item.agg) {
      case AggFn::kNone: {
        if (item.expr->kind() == ExprKind::kColumnRef) {
          const auto& ref = static_cast<const ColumnRefExpr&>(*item.expr);
          if (ref.bound_index() >= 0) {
            type = input.column(static_cast<size_t>(ref.bound_index())).type;
          }
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
  }
}

Status HashAggregateOperator::Accumulate(
    Operator* child, ExecContext* ctx, const std::vector<ExprPtr>& group_by,
    const std::vector<SelectItem>& items, size_t num_aggs,
    std::vector<GroupState>* groups,
    std::unordered_map<std::string, size_t>* group_index) {
  Evaluator evaluator(&child->schema(), ctx->hooks, ctx->metadata, ctx->stats);
  RowBatch batch(
      EffectiveBatchSize(ctx->batch_size, child->schema().num_columns()));
  Row row;
  while (true) {
    SIEVE_RETURN_IF_ERROR(ctx->CheckTimeout());
    SIEVE_ASSIGN_OR_RETURN(bool has, child->NextBatch(ctx, &batch));
    if (!has) break;
    for (size_t r = 0; r < batch.size(); ++r) {
      batch.MaterializeRow(r, &row);
      Row key;
      key.reserve(group_by.size());
      for (const auto& g : group_by) {
        SIEVE_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*g, row));
        key.push_back(std::move(v));
      }
      std::string fp = RowFingerprint(key);
      auto it = group_index->find(fp);
      size_t group_pos;
      if (it == group_index->end()) {
        group_pos = groups->size();
        GroupState state;
        state.key = key;
        state.first_row = row;
        state.aggs.resize(num_aggs);
        groups->push_back(std::move(state));
        group_index->emplace(std::move(fp), group_pos);
      } else {
        group_pos = it->second;
      }

      // Update aggregate states in SELECT-list order.
      size_t agg_pos = 0;
      for (const auto& item : items) {
        if (item.agg == AggFn::kNone) continue;
        AggState& agg = (*groups)[group_pos].aggs[agg_pos++];
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
  num_aggs_ = 0;
  for (const auto& item : items_) {
    if (item.agg != AggFn::kNone) ++num_aggs_;
  }
  groups_.clear();
  group_index_.clear();
  pos_ = 0;

  bool accumulated = false;
  if (ctx->num_threads > 1 && ctx->pool != nullptr) {
    std::vector<OperatorPtr> parts;
    if (child_->CreatePartitions(PlanPartitionCount(*child_, *ctx),
                                 &parts) &&
        !parts.empty()) {
      SIEVE_RETURN_IF_ERROR(OpenParallel(ctx, &parts));
      accumulated = true;
    }
  }

  if (!accumulated) {
    SIEVE_RETURN_IF_ERROR(child_->Open(ctx));
    input_schema_ = child_->schema();
    for (auto& g : group_by_) {
      SIEVE_RETURN_IF_ERROR(BindExpr(g.get(), input_schema_));
    }
    for (auto& item : items_) {
      if (item.expr != nullptr) {
        SIEVE_RETURN_IF_ERROR(BindExpr(item.expr.get(), input_schema_));
      }
    }
    BuildOutputSchema(input_schema_);
    SIEVE_RETURN_IF_ERROR(Accumulate(child_.get(), ctx, group_by_, items_,
                                     num_aggs_, &groups_, &group_index_));
  }

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

Status HashAggregateOperator::OpenParallel(ExecContext* ctx,
                                           std::vector<OperatorPtr>* parts) {
  const size_t n = parts->size();
  std::vector<std::vector<GroupState>> worker_groups(n);

  SIEVE_RETURN_IF_ERROR(
      RunWorkers(ctx, n, [&](size_t i, ExecContext* worker) {
        Operator* part = (*parts)[i].get();
        SIEVE_RETURN_IF_ERROR(part->Open(worker));
        // Private bound clones: binding mutates expression nodes in place,
        // so workers must not share them with each other or the members.
        std::vector<ExprPtr> group_by;
        group_by.reserve(group_by_.size());
        for (const auto& g : group_by_) group_by.push_back(g->Clone());
        for (auto& g : group_by) {
          SIEVE_RETURN_IF_ERROR(BindExpr(g.get(), part->schema()));
        }
        std::vector<SelectItem> items = CloneItems(items_);
        for (auto& item : items) {
          if (item.expr != nullptr) {
            SIEVE_RETURN_IF_ERROR(BindExpr(item.expr.get(), part->schema()));
          }
        }
        std::unordered_map<std::string, size_t> local_index;
        return Accumulate(part, worker, group_by, items, num_aggs_,
                          &worker_groups[i], &local_index);
      }));

  // Bind the member expressions once against the (shared) input schema so
  // NextBatch can evaluate group-key output expressions; then merge the
  // partial states. Merging walks partitions in order and each partition's
  // groups in local first-occurrence order, so the global group order
  // equals the first-occurrence order of the serial input stream, and each
  // group's representative row is the serially-first one.
  input_schema_ = parts->front()->schema();
  for (auto& g : group_by_) {
    SIEVE_RETURN_IF_ERROR(BindExpr(g.get(), input_schema_));
  }
  for (auto& item : items_) {
    if (item.expr != nullptr) {
      SIEVE_RETURN_IF_ERROR(BindExpr(item.expr.get(), input_schema_));
    }
  }
  BuildOutputSchema(input_schema_);

  for (std::vector<GroupState>& partial : worker_groups) {
    for (GroupState& local : partial) {
      std::string fp = RowFingerprint(local.key);
      auto it = group_index_.find(fp);
      if (it == group_index_.end()) {
        group_index_.emplace(std::move(fp), groups_.size());
        groups_.push_back(std::move(local));
        continue;
      }
      GroupState& global = groups_[it->second];
      for (size_t a = 0; a < global.aggs.size(); ++a) {
        global.aggs[a].Merge(local.aggs[a]);
      }
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
  Evaluator evaluator(&input_schema_, nullptr, nullptr, nullptr);
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
