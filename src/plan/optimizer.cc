#include "plan/optimizer.h"

#include <algorithm>
#include <optional>

#include "common/string_util.h"

namespace sieve {

namespace {

// A sargable predicate on one indexed column: one range for comparisons and
// BETWEEN, several ranges for IN-lists.
struct Sarg {
  std::string column;
  std::vector<IndexRange> ranges;
  double selectivity = 1.0;
};

Value CoerceLiteral(const Value& v, DataType target) {
  if (v.type() != DataType::kString) return v;
  if (target == DataType::kTime) {
    auto parsed = Value::ParseTime(v.AsString());
    if (parsed.ok()) return std::move(parsed).value();
  } else if (target == DataType::kDate) {
    auto parsed = Value::ParseDate(v.AsString());
    if (parsed.ok()) return std::move(parsed).value();
  }
  return v;
}

// True when `ref` refers to a column of `table` (respecting the FROM alias);
// outputs the bare column name.
bool ColumnOfTable(const ColumnRefExpr& ref, const Table& table,
                   const std::string& qualifier, std::string* col_name) {
  if (!ref.qualifier().empty() &&
      !EqualsIgnoreCase(ref.qualifier(), qualifier) &&
      !EqualsIgnoreCase(ref.qualifier(), table.name())) {
    return false;
  }
  if (table.schema().FindColumn(ref.name()) < 0) return false;
  *col_name = ref.name();
  return true;
}

std::optional<Value> LiteralValue(const Expr& e) {
  if (e.kind() != ExprKind::kLiteral) return std::nullopt;
  return static_cast<const LiteralExpr&>(e).value();
}

// Extracts a sargable candidate from one conjunct against `table`; requires
// an index on the referenced column (the candidate describes an index probe).
std::optional<Sarg> ExtractSarg(const Expr& conjunct, const Table& table,
                                const std::string& qualifier,
                                const IndexManager& indexes) {
  auto make_range = [&table](const std::string& col) -> IndexRange {
    IndexRange r;
    r.column = col;
    (void)table;
    return r;
  };

  auto column_type = [&table](const std::string& col) {
    int idx = table.schema().FindColumn(col);
    return idx < 0 ? DataType::kNull
                   : table.schema().column(static_cast<size_t>(idx)).type;
  };

  switch (conjunct.kind()) {
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(conjunct);
      const Expr* col_side = cmp.left().get();
      const Expr* lit_side = cmp.right().get();
      CompareOp op = cmp.op();
      if (col_side->kind() != ExprKind::kColumnRef) {
        std::swap(col_side, lit_side);
        // Mirror the operator when the literal is on the left.
        switch (op) {
          case CompareOp::kLt:
            op = CompareOp::kGt;
            break;
          case CompareOp::kLe:
            op = CompareOp::kGe;
            break;
          case CompareOp::kGt:
            op = CompareOp::kLt;
            break;
          case CompareOp::kGe:
            op = CompareOp::kLe;
            break;
          default:
            break;
        }
      }
      if (col_side->kind() != ExprKind::kColumnRef) return std::nullopt;
      auto lit = LiteralValue(*lit_side);
      if (!lit.has_value()) return std::nullopt;
      std::string col;
      if (!ColumnOfTable(static_cast<const ColumnRefExpr&>(*col_side), table,
                         qualifier, &col)) {
        return std::nullopt;
      }
      const Index* index = indexes.Find(col);
      if (index == nullptr) return std::nullopt;
      Value v = CoerceLiteral(*lit, column_type(col));

      Sarg sarg;
      sarg.column = col;
      IndexRange r = make_range(col);
      switch (op) {
        case CompareOp::kEq:
          r.lo = v;
          r.hi = v;
          sarg.selectivity = index->EstimateEqSelectivity(v);
          break;
        case CompareOp::kLt:
          r.hi = v;
          r.hi_inclusive = false;
          sarg.selectivity =
              index->EstimateRangeSelectivity(std::nullopt, true, v, false);
          break;
        case CompareOp::kLe:
          r.hi = v;
          sarg.selectivity =
              index->EstimateRangeSelectivity(std::nullopt, true, v, true);
          break;
        case CompareOp::kGt:
          r.lo = v;
          r.lo_inclusive = false;
          sarg.selectivity =
              index->EstimateRangeSelectivity(v, false, std::nullopt, true);
          break;
        case CompareOp::kGe:
          r.lo = v;
          sarg.selectivity =
              index->EstimateRangeSelectivity(v, true, std::nullopt, true);
          break;
        case CompareOp::kNe:
          return std::nullopt;  // not sargable
      }
      sarg.ranges.push_back(std::move(r));
      return sarg;
    }

    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(conjunct);
      if (between.input()->kind() != ExprKind::kColumnRef) return std::nullopt;
      auto lo = LiteralValue(*between.lo());
      auto hi = LiteralValue(*between.hi());
      if (!lo.has_value() || !hi.has_value()) return std::nullopt;
      std::string col;
      if (!ColumnOfTable(static_cast<const ColumnRefExpr&>(*between.input()),
                         table, qualifier, &col)) {
        return std::nullopt;
      }
      const Index* index = indexes.Find(col);
      if (index == nullptr) return std::nullopt;
      DataType t = column_type(col);
      Sarg sarg;
      sarg.column = col;
      IndexRange r = make_range(col);
      r.lo = CoerceLiteral(*lo, t);
      r.hi = CoerceLiteral(*hi, t);
      sarg.selectivity =
          index->EstimateRangeSelectivity(r.lo, true, r.hi, true);
      sarg.ranges.push_back(std::move(r));
      return sarg;
    }

    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(conjunct);
      if (in.negated()) return std::nullopt;
      if (in.input()->kind() != ExprKind::kColumnRef) return std::nullopt;
      std::string col;
      if (!ColumnOfTable(static_cast<const ColumnRefExpr&>(*in.input()), table,
                         qualifier, &col)) {
        return std::nullopt;
      }
      const Index* index = indexes.Find(col);
      if (index == nullptr) return std::nullopt;
      DataType t = column_type(col);
      Sarg sarg;
      sarg.column = col;
      double sel = 0.0;
      for (const auto& item : in.items()) {
        auto lit = LiteralValue(*item);
        if (!lit.has_value()) return std::nullopt;
        Value v = CoerceLiteral(*lit, t);
        IndexRange r = make_range(col);
        r.lo = v;
        r.hi = v;
        sel += index->EstimateEqSelectivity(v);
        sarg.ranges.push_back(std::move(r));
      }
      sarg.selectivity = std::min(1.0, sel);
      return sarg;
    }

    default:
      return std::nullopt;
  }
}

// Best (most selective) sarg among the conjuncts; restricted to `allowed`
// columns when non-empty.
std::optional<Sarg> BestSarg(const std::vector<ExprPtr>& conjuncts,
                             const Table& table, const std::string& qualifier,
                             const IndexManager& indexes,
                             const std::vector<std::string>& allowed) {
  std::optional<Sarg> best;
  for (const auto& conjunct : conjuncts) {
    auto sarg = ExtractSarg(*conjunct, table, qualifier, indexes);
    if (!sarg.has_value()) continue;
    if (!allowed.empty()) {
      bool ok = false;
      for (const auto& col : allowed) {
        if (EqualsIgnoreCase(col, sarg->column)) ok = true;
      }
      if (!ok) continue;
    }
    if (!best.has_value() || sarg->selectivity < best->selectivity) {
      best = std::move(sarg);
    }
  }
  return best;
}

// A copy of `expr` bound against `schema`. The planner binds only its own
// copies: the statement may be a cached rewrite template that concurrent
// sessions share.
Result<ExprPtr> BoundClone(const Expr& expr, const Schema& schema) {
  ExprPtr clone = expr.Clone();
  SIEVE_RETURN_IF_ERROR(BindExpr(clone.get(), schema));
  return clone;
}

// BoundClone for a SELECT list; COUNT(*) has no expression.
Result<std::vector<SelectItem>> BindItems(const std::vector<SelectItem>& items,
                                          const Schema& schema) {
  std::vector<SelectItem> out;
  out.reserve(items.size());
  for (const SelectItem& item : items) {
    SelectItem copy = item;
    if (copy.expr != nullptr) {
      SIEVE_ASSIGN_OR_RETURN(copy.expr, BoundClone(*item.expr, schema));
    }
    out.push_back(std::move(copy));
  }
  return out;
}

}  // namespace

std::string AccessPathInfo::ToString() const {
  const char* kind_name = kind == Kind::kSeqScan      ? "SeqScan"
                          : kind == Kind::kIndexRange ? "IndexRange"
                                                      : "IndexUnion";
  return StrFormat("%s %s%s%s: %s%s sel=%.4f rows=%.0f", kind_name,
                   table.c_str(), qualifier.empty() ? "" : " AS ",
                   qualifier.c_str(), index_column.c_str(),
                   kind == Kind::kIndexUnion
                       ? StrFormat(" (%zu ranges)", num_ranges).c_str()
                       : "",
                   selectivity, estimated_rows);
}

const AccessPathInfo* ExplainInfo::Find(const std::string& name) const {
  for (const auto& info : tables) {
    if (EqualsIgnoreCase(info.qualifier, name) ||
        EqualsIgnoreCase(info.table, name)) {
      return &info;
    }
  }
  return nullptr;
}

std::string ExplainInfo::ToString() const {
  std::string out;
  for (const auto& info : tables) {
    out += info.ToString();
    out += "\n";
  }
  return out;
}

Result<PlannedQuery> Optimizer::Plan(const SelectStmt& stmt) {
  PlannedQuery out;
  SIEVE_ASSIGN_OR_RETURN(out.root, PlanStmt(stmt, CteScope(), &out));
  return out;
}

Result<OperatorPtr> Optimizer::PlanStmt(const SelectStmt& stmt,
                                        const CteScope& scope,
                                        PlannedQuery* out) {
  // Register CTEs into the child scope, which their bodies resolve in too.
  // The definitions only need to outlive this call: no name outside the
  // statement reaches them.
  std::vector<CteDef> defs(stmt.ctes.size());
  CteScope child_scope = scope;
  for (size_t i = 0; i < stmt.ctes.size(); ++i) {
    defs[i].name = stmt.ctes[i].name;
    defs[i].body = stmt.ctes[i].query.get();
    defs[i].scope = &child_scope;
    child_scope[ToLower(stmt.ctes[i].name)] = &defs[i];
  }

  // Left-fold the set-operation chain, honoring the per-link operator.
  SIEVE_ASSIGN_OR_RETURN(OperatorPtr result, PlanCore(stmt, child_scope, out));
  const SelectStmt* link = &stmt;
  while (link->union_next != nullptr) {
    const SelectStmt* next = link->union_next.get();
    SIEVE_ASSIGN_OR_RETURN(OperatorPtr arm, PlanCore(*next, child_scope, out));
    if (arm->schema().num_columns() != result->schema().num_columns()) {
      return Status::BindError(
          std::string(link->set_op == SetOpKind::kExcept ? "EXCEPT" : "UNION") +
          " arms produce different column counts");
    }
    if (link->set_op == SetOpKind::kExcept) {
      result = std::make_unique<ExceptOperator>(std::move(result),
                                                std::move(arm));
    } else {
      std::vector<OperatorPtr> arms;
      arms.push_back(std::move(result));
      arms.push_back(std::move(arm));
      result = std::make_unique<UnionOperator>(
          std::move(arms), /*all=*/link->set_op == SetOpKind::kUnionAll);
    }
    link = next;
  }
  return result;
}

Result<OperatorPtr> Optimizer::PlanTableAccess(const TableRef& ref,
                                               const SelectStmt& stmt,
                                               const CteScope& scope,
                                               PlannedQuery* out) {
  // Derived table.
  if (ref.subquery != nullptr) {
    SIEVE_ASSIGN_OR_RETURN(OperatorPtr child,
                           PlanStmt(*ref.subquery, scope, out));
    return std::make_unique<MaterializedScanOperator>(ref.EffectiveName(),
                                                      std::move(child));
  }

  // CTE reference: the first one plans the body and lists it for the
  // executor to materialize; every reference scans that one entry.
  auto cte_it = scope.find(ToLower(ref.table_name));
  if (cte_it != scope.end()) {
    CteDef* def = cte_it->second;
    if (def->planning) {
      return Status::BindError("CTE " + def->name +
                               " refers to itself (recursive CTEs are "
                               "unsupported)");
    }
    if (def->planned == nullptr) {
      def->planning = true;
      SIEVE_ASSIGN_OR_RETURN(OperatorPtr body,
                             PlanStmt(*def->body, *def->scope, out));
      def->planning = false;
      out->ctes.push_back(std::make_unique<PlannedCte>(
          PlannedCte{def->name, std::move(body), {}}));
      def->planned = out->ctes.back().get();
    }
    return std::make_unique<MaterializedScanOperator>(def->planned,
                                                      ref.EffectiveName());
  }

  // Base table.
  SIEVE_ASSIGN_OR_RETURN(TableEntry * entry, catalog_->Get(ref.table_name));
  const Table& table = *entry->table;
  const std::string qualifier = ref.EffectiveName();
  const double n = static_cast<double>(table.size());

  AccessPathInfo info;
  info.table = table.name();
  info.qualifier = qualifier;
  info.kind = AccessPathInfo::Kind::kSeqScan;
  info.selectivity = 1.0;
  info.estimated_rows = n;

  const bool single_table = stmt.from.size() == 1;
  std::vector<ExprPtr> conjuncts;
  if (stmt.where != nullptr) FlattenConjuncts(stmt.where, &conjuncts);

  const bool hints_active = profile_->honor_index_hints;
  const bool force_seq =
      hints_active && ref.hint.kind == IndexHint::Kind::kIgnoreAllIndexes;
  const bool force_index =
      hints_active && ref.hint.kind == IndexHint::Kind::kForceIndex;

  std::optional<Sarg> chosen;
  std::vector<IndexRange> union_ranges;  // bitmap-OR candidate
  double union_selectivity = 0.0;

  if (!force_seq) {
    // Single-index candidate from the top-level conjunction.
    std::vector<std::string> allowed =
        force_index ? ref.hint.columns : std::vector<std::string>{};
    std::optional<Sarg> best =
        BestSarg(conjuncts, table, qualifier, entry->indexes, allowed);

    // Bitmap-OR candidate: top-level OR where every disjunct has a sargable
    // conjunct (the shape of Sieve's guarded policy expressions).
    bool union_ok = false;
    if (profile_->enable_bitmap_or && single_table && stmt.where != nullptr &&
        stmt.where->kind() == ExprKind::kOr) {
      union_ok = true;
      const auto& disjuncts =
          static_cast<const OrExpr&>(*stmt.where).children();
      for (const auto& disjunct : disjuncts) {
        std::vector<ExprPtr> inner;
        FlattenConjuncts(disjunct, &inner);
        std::optional<Sarg> s =
            BestSarg(inner, table, qualifier, entry->indexes, {});
        if (!s.has_value()) {
          union_ok = false;
          break;
        }
        for (auto& r : s->ranges) union_ranges.push_back(std::move(r));
        union_selectivity += s->selectivity;
      }
      union_selectivity = std::min(1.0, union_selectivity);
      if (!union_ok) {
        union_ranges.clear();
        union_selectivity = 0.0;
      }
    }

    const double seq_cost = n;
    const double penalty = profile_->random_access_penalty;
    double best_cost = seq_cost;
    enum { kSeq, kSingle, kUnion } pick = kSeq;

    if (best.has_value()) {
      double cost = best->selectivity * n * penalty;
      // FORCE INDEX semantics: the optimizer treats a table scan as very
      // expensive and uses the hinted index whenever it can.
      if (force_index || cost < best_cost) {
        best_cost = cost;
        pick = kSingle;
      }
    }
    if (union_ok) {
      double cost = union_selectivity * n * penalty;
      if (cost < best_cost) {
        best_cost = cost;
        pick = kUnion;
      }
    }

    if (pick == kSingle) {
      chosen = std::move(best);
    } else if (pick == kUnion) {
      // fallthrough with union_ranges set
    } else {
      union_ranges.clear();
    }
  }

  OperatorPtr scan;
  if (chosen.has_value()) {
    info.index_column = chosen->column;
    info.selectivity = chosen->selectivity;
    info.estimated_rows = chosen->selectivity * n;
    if (chosen->ranges.size() == 1) {
      info.kind = AccessPathInfo::Kind::kIndexRange;
      scan = std::make_unique<IndexRangeScanOperator>(
          entry, qualifier, std::move(chosen->ranges.front()));
    } else {
      info.kind = AccessPathInfo::Kind::kIndexUnion;
      info.num_ranges = chosen->ranges.size();
      scan = std::make_unique<IndexUnionBitmapScanOperator>(
          entry, qualifier, std::move(chosen->ranges));
    }
  } else if (!union_ranges.empty()) {
    info.kind = AccessPathInfo::Kind::kIndexUnion;
    info.index_column = union_ranges.front().column;
    info.num_ranges = union_ranges.size();
    info.selectivity = union_selectivity;
    info.estimated_rows = union_selectivity * n;
    scan = std::make_unique<IndexUnionBitmapScanOperator>(
        entry, qualifier, std::move(union_ranges));
  } else {
    scan = std::make_unique<SeqScanOperator>(entry, qualifier);
  }

  out->explain.tables.push_back(std::move(info));
  return scan;
}

Result<OperatorPtr> Optimizer::PlanCore(const SelectStmt& stmt,
                                        const CteScope& scope,
                                        PlannedQuery* out) {
  if (stmt.from.empty()) {
    return Status::BindError("queries without a FROM clause are unsupported");
  }

  std::vector<ExprPtr> conjuncts;
  if (stmt.where != nullptr) FlattenConjuncts(stmt.where, &conjuncts);

  // Left-fold the FROM list, preferring hash joins on equi-conjuncts.
  OperatorPtr current;
  for (const auto& ref : stmt.from) {
    SIEVE_ASSIGN_OR_RETURN(OperatorPtr next,
                           PlanTableAccess(ref, stmt, scope, out));
    if (current == nullptr) {
      current = std::move(next);
      continue;
    }
    // Join keys: equi-conjuncts whose sides each bind against exactly one
    // input, bound against that input.
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    for (const auto& conjunct : conjuncts) {
      if (conjunct->kind() != ExprKind::kComparison) continue;
      const auto& cmp = static_cast<const ComparisonExpr&>(*conjunct);
      if (cmp.op() != CompareOp::kEq) continue;
      if (cmp.left()->kind() != ExprKind::kColumnRef ||
          cmp.right()->kind() != ExprKind::kColumnRef) {
        continue;
      }
      auto l_in_left = BoundClone(*cmp.left(), current->schema());
      auto l_in_right = BoundClone(*cmp.left(), next->schema());
      auto r_in_left = BoundClone(*cmp.right(), current->schema());
      auto r_in_right = BoundClone(*cmp.right(), next->schema());
      if (l_in_left.ok() && !l_in_right.ok() && r_in_right.ok() &&
          !r_in_left.ok()) {
        left_keys.push_back(std::move(l_in_left).value());
        right_keys.push_back(std::move(r_in_right).value());
      } else if (r_in_left.ok() && !r_in_right.ok() && l_in_right.ok() &&
                 !l_in_left.ok()) {
        left_keys.push_back(std::move(r_in_left).value());
        right_keys.push_back(std::move(l_in_right).value());
      }
    }
    if (!left_keys.empty()) {
      current = std::make_unique<HashJoinOperator>(
          std::move(current), std::move(next), std::move(left_keys),
          std::move(right_keys));
    } else {
      current = std::make_unique<NestedLoopJoinOperator>(std::move(current),
                                                         std::move(next));
    }
  }

  // Residual filter: the full WHERE clause (access paths only pre-filter).
  if (stmt.where != nullptr) {
    SIEVE_ASSIGN_OR_RETURN(ExprPtr predicate,
                           BoundClone(*stmt.where, current->schema()));
    current = std::make_unique<FilterOperator>(std::move(current),
                                               std::move(predicate));
  }

  // Aggregate / project.
  const Schema& input = current->schema();
  if (stmt.HasAggregates() || !stmt.group_by.empty()) {
    std::vector<ExprPtr> group_by;
    group_by.reserve(stmt.group_by.size());
    for (const auto& g : stmt.group_by) {
      SIEVE_ASSIGN_OR_RETURN(ExprPtr key, BoundClone(*g, input));
      group_by.push_back(std::move(key));
    }
    SIEVE_ASSIGN_OR_RETURN(std::vector<SelectItem> items,
                           BindItems(stmt.items, input));
    current = std::make_unique<HashAggregateOperator>(
        std::move(current), std::move(group_by), std::move(items));
  } else if (!stmt.select_star) {
    SIEVE_ASSIGN_OR_RETURN(std::vector<SelectItem> items,
                           BindItems(stmt.items, input));
    current =
        std::make_unique<ProjectOperator>(std::move(current), std::move(items));
  }
  return current;
}

double Optimizer::EstimatePredicateSelectivity(const std::string& table,
                                               const Expr& predicate) const {
  const TableEntry* entry = catalog_->Find(table);
  if (entry == nullptr) return 1.0;
  auto sarg = ExtractSarg(predicate, *entry->table, entry->table->name(),
                          entry->indexes);
  if (!sarg.has_value()) return 1.0;
  return sarg->selectivity;
}

}  // namespace sieve
