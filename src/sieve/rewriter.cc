#include "sieve/rewriter.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "parser/parser.h"
#include "sieve/delta.h"

namespace sieve {

const char* AccessStrategyName(AccessStrategy s) {
  switch (s) {
    case AccessStrategy::kLinearScan:
      return "LinearScan";
    case AccessStrategy::kIndexQuery:
      return "IndexQuery";
    case AccessStrategy::kIndexGuards:
      return "IndexGuards";
  }
  return "?";
}

std::string TableRewriteInfo::ToString() const {
  return StrFormat(
      "table=%s strategy=%s policies=%zu guards=%zu delta=%zu "
      "cost{lin=%.3g, idxq=%.3g, idxg=%.3g}%s",
      table.c_str(), AccessStrategyName(strategy), num_policies, num_guards,
      num_delta_guards, cost_linear, cost_index_query, cost_index_guards,
      regenerated_guards ? " (guards regenerated)" : "");
}

ExprPtr QueryRewriter::GuardArmExpr(const Guard& guard, bool use_delta) const {
  std::vector<ExprPtr> conj;
  conj.push_back(guard.guard.ToExpr());
  if (use_delta) {
    std::vector<ExprPtr> args;
    args.push_back(MakeLiteral(Value::Int(guard.id)));
    conj.push_back(MakeCompare(
        CompareOp::kEq,
        std::make_shared<UdfCallExpr>(kDeltaUdfName, std::move(args)),
        MakeLiteral(Value::Bool(true))));
  } else {
    std::vector<ExprPtr> policy_exprs;
    policy_exprs.reserve(guard.guard.policy_ids.size());
    for (int64_t pid : guard.guard.policy_ids) {
      const Policy* policy = policies_->FindPolicy(pid);
      if (policy == nullptr) continue;
      policy_exprs.push_back(policy->ObjectExpr());
    }
    conj.push_back(MakeOr(std::move(policy_exprs)));
  }
  return MakeAnd(std::move(conj));
}

Result<const GuardedExpression*> QueryRewriter::EnsureGuards(
    const QueryMetadata& md, const std::string& table,
    TableRewriteInfo* info) {
  if (!guards_->IsOutdated(md.querier, md.purpose, table)) {
    return guards_->Get(md.querier, md.purpose, table);
  }
  // Chaos hook: regeneration failing must leave the guard store outdated
  // (not torn) so the next query retries it — the point sits before Build.
  if (SIEVE_FAULT_POINT("mw.guard_regen.fail")) {
    return SIEVE_INJECT_FAULT("mw.guard_regen.fail");
  }
  // Regenerate at query time — the paper's trigger-on-outdated behaviour.
  SIEVE_ASSIGN_OR_RETURN(GuardedExpression ge, builder_.Build(md, table));
  info->regenerated_guards = true;
  info->guard_generation_ms = ge.generation_ms;
  auto put = guards_->Put(std::move(ge));
  if (!put.ok()) return put.status();
  return guards_->Get(md.querier, md.purpose, table);
}

std::vector<ExprPtr> QueryRewriter::TableLocalConjuncts(
    const SelectStmt& query, const std::string& table) const {
  std::vector<ExprPtr> out;
  if (query.where == nullptr) return out;
  const TableEntry* entry = db_->catalog().Find(table);
  if (entry == nullptr) return out;

  // Qualified schema as the query sees this table.
  std::string qualifier = table;
  for (const auto& ref : query.from) {
    if (EqualsIgnoreCase(ref.table_name, table)) {
      qualifier = ref.EffectiveName();
      break;
    }
  }
  Schema qualified = QualifySchema(entry->table->schema(), qualifier);

  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(query.where, &conjuncts);
  for (const auto& conjunct : conjuncts) {
    ExprPtr probe = conjunct->Clone();
    if (BindExpr(probe.get(), qualified).ok()) {
      // Strip the query's alias qualifier: inside the WITH body the table
      // appears under its own name.
      out.push_back(std::move(probe));
    }
  }
  return out;
}

namespace {

// Removes alias qualifiers from every column reference so the conjunct can
// bind inside the WITH body, where the table appears under its own name.
void StripQualifiersInPlace(Expr* e) {
  switch (e->kind()) {
    case ExprKind::kColumnRef: {
      auto* ref = static_cast<ColumnRefExpr*>(e);
      if (!ref->qualifier().empty()) {
        // Rebuild without a qualifier by assigning through a fresh node.
        *ref = ColumnRefExpr("", ref->name());
      }
      return;
    }
    case ExprKind::kComparison: {
      auto* c = static_cast<ComparisonExpr*>(e);
      StripQualifiersInPlace(c->mutable_left().get());
      StripQualifiersInPlace(c->mutable_right().get());
      return;
    }
    case ExprKind::kBetween: {
      auto* b = static_cast<BetweenExpr*>(e);
      StripQualifiersInPlace(b->mutable_input().get());
      StripQualifiersInPlace(b->mutable_lo().get());
      StripQualifiersInPlace(b->mutable_hi().get());
      return;
    }
    case ExprKind::kInList: {
      auto* in = static_cast<InListExpr*>(e);
      StripQualifiersInPlace(in->mutable_input().get());
      for (auto& item : in->mutable_items()) StripQualifiersInPlace(item.get());
      return;
    }
    case ExprKind::kAnd:
      for (auto& c : static_cast<AndExpr*>(e)->mutable_children()) {
        StripQualifiersInPlace(c.get());
      }
      return;
    case ExprKind::kOr:
      for (auto& c : static_cast<OrExpr*>(e)->mutable_children()) {
        StripQualifiersInPlace(c.get());
      }
      return;
    case ExprKind::kNot:
      StripQualifiersInPlace(static_cast<NotExpr*>(e)->mutable_child().get());
      return;
    case ExprKind::kUdfCall:
      for (auto& a : static_cast<UdfCallExpr*>(e)->mutable_args()) {
        StripQualifiersInPlace(a.get());
      }
      return;
    default:
      return;
  }
}

ExprPtr StripBinding(const ExprPtr& e) {
  ExprPtr clone = e->Clone();
  StripQualifiersInPlace(clone.get());
  return clone;
}

// Strategy selection for parameterized queries (prepared statements): a
// `?` has no value at rewrite time, so EXPLAIN cannot cost an index probe
// on it. Real engines plan generic prepared statements with value-free
// estimates; we use the index histogram's average per-key selectivity
// (1 / distinct keys) for equality and IN parameters and the textbook
// quarter default for ranges. The strategy selector can then still prefer
// kIndexQuery for a selective-looking parameter predicate — the
// execute-time planner builds the actual index range from the bound
// literal.
struct ParamSargEstimate {
  std::string column;
  double selectivity = 1.0;
};

double AverageEqSelectivity(const Index& index) {
  size_t distinct = index.histogram().distinct_count();
  if (distinct == 0) return 0.1;  // no statistics: Selinger default
  return 1.0 / static_cast<double>(distinct);
}

bool ExprHasParameter(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kParameter:
      return true;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      return ExprHasParameter(*c.left()) || ExprHasParameter(*c.right());
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(e);
      return ExprHasParameter(*b.input()) || ExprHasParameter(*b.lo()) ||
             ExprHasParameter(*b.hi());
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      if (ExprHasParameter(*in.input())) return true;
      for (const auto& item : in.items()) {
        if (ExprHasParameter(*item)) return true;
      }
      return false;
    }
    default:
      return false;
  }
}

// Index on the column `ref` names, when it belongs to `table` (respecting
// the query's alias for it); outputs the bare column name.
const Index* IndexedColumnOfTable(const ColumnRefExpr& ref,
                                  const TableEntry& entry,
                                  const std::string& qualifier,
                                  std::string* column) {
  if (!ref.qualifier().empty() &&
      !EqualsIgnoreCase(ref.qualifier(), qualifier) &&
      !EqualsIgnoreCase(ref.qualifier(), entry.table->name())) {
    return nullptr;
  }
  if (entry.table->schema().FindColumn(ref.name()) < 0) return nullptr;
  const Index* index = entry.indexes.Find(ref.name());
  if (index == nullptr) return nullptr;
  *column = ref.name();
  return index;
}

std::optional<ParamSargEstimate> BestParameterSarg(
    const SelectStmt& query, const TableEntry& entry,
    const std::string& qualifier) {
  if (query.where == nullptr) return std::nullopt;
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(query.where, &conjuncts);
  std::optional<ParamSargEstimate> best;
  auto consider = [&best](std::string column, double selectivity) {
    if (!best.has_value() || selectivity < best->selectivity) {
      best = ParamSargEstimate{std::move(column), selectivity};
    }
  };
  for (const auto& conjunct : conjuncts) {
    if (!ExprHasParameter(*conjunct)) continue;
    std::string column;
    switch (conjunct->kind()) {
      case ExprKind::kComparison: {
        const auto& cmp = static_cast<const ComparisonExpr&>(*conjunct);
        const Expr* col_side = cmp.left().get();
        const Expr* val_side = cmp.right().get();
        if (col_side->kind() != ExprKind::kColumnRef) {
          std::swap(col_side, val_side);
        }
        if (col_side->kind() != ExprKind::kColumnRef ||
            val_side->kind() != ExprKind::kParameter ||
            cmp.op() == CompareOp::kNe) {
          break;
        }
        if (const Index* index = IndexedColumnOfTable(
                static_cast<const ColumnRefExpr&>(*col_side), entry,
                qualifier, &column)) {
          consider(std::move(column), cmp.op() == CompareOp::kEq
                                          ? AverageEqSelectivity(*index)
                                          : 0.25);
        }
        break;
      }
      case ExprKind::kBetween: {
        const auto& between = static_cast<const BetweenExpr&>(*conjunct);
        if (between.input()->kind() != ExprKind::kColumnRef) break;
        if (IndexedColumnOfTable(
                static_cast<const ColumnRefExpr&>(*between.input()), entry,
                qualifier, &column) != nullptr) {
          consider(std::move(column), 0.25);
        }
        break;
      }
      case ExprKind::kInList: {
        const auto& in = static_cast<const InListExpr&>(*conjunct);
        if (in.negated() || in.input()->kind() != ExprKind::kColumnRef) break;
        if (const Index* index = IndexedColumnOfTable(
                static_cast<const ColumnRefExpr&>(*in.input()), entry,
                qualifier, &column)) {
          double per_key = AverageEqSelectivity(*index);
          consider(std::move(column),
                   std::min(1.0, per_key *
                                     static_cast<double>(in.items().size())));
        }
        break;
      }
      default:
        break;
    }
  }
  return best;
}

// Replaces references to `table` with the CTE `cte_name` in every UNION arm.
void ReplaceTableRefs(SelectStmt* stmt, const std::string& table,
                      const std::string& cte_name) {
  for (SelectStmt* arm = stmt; arm != nullptr; arm = arm->union_next.get()) {
    for (auto& ref : arm->from) {
      if (ref.subquery != nullptr) {
        ReplaceTableRefs(ref.subquery.get(), table, cte_name);
        continue;
      }
      if (EqualsIgnoreCase(ref.table_name, table)) {
        if (ref.alias.empty()) ref.alias = ref.table_name;
        ref.table_name = cte_name;
        ref.hint = IndexHint{};  // hints do not apply to derived tables
      }
    }
  }
}

// Number of references to `table` anywhere in the statement (every UNION
// arm, derived tables, nested CTE bodies).
size_t CountTableRefs(const SelectStmt& stmt, const std::string& table) {
  size_t n = 0;
  for (const SelectStmt* arm = &stmt; arm != nullptr;
       arm = arm->union_next.get()) {
    for (const auto& ref : arm->from) {
      if (ref.subquery != nullptr) {
        n += CountTableRefs(*ref.subquery, table);
      } else if (EqualsIgnoreCase(ref.table_name, table)) {
        ++n;
      }
    }
    for (const auto& cte : arm->ctes) n += CountTableRefs(*cte.query, table);
  }
  return n;
}

// Collects distinct base-table names referenced anywhere in the statement.
void CollectTables(const SelectStmt& stmt, std::vector<std::string>* out) {
  for (const SelectStmt* arm = &stmt; arm != nullptr;
       arm = arm->union_next.get()) {
    for (const auto& ref : arm->from) {
      if (ref.subquery != nullptr) {
        CollectTables(*ref.subquery, out);
        continue;
      }
      bool seen = false;
      for (const auto& t : *out) {
        if (EqualsIgnoreCase(t, ref.table_name)) seen = true;
      }
      if (!seen) out->push_back(ref.table_name);
    }
    for (const auto& cte : arm->ctes) CollectTables(*cte.query, out);
  }
}

// Adds the distinct base tables read by the scalar subqueries written in
// the statement, parsing each subquery's text and recursing into the
// subqueries it contains. Unparsable text reads nothing: execution
// re-parses it and fails the same way.
void CollectSubqueryTables(const SelectStmt& stmt,
                           std::vector<std::string>* out) {
  for (const std::string& sql : CollectSubqueryTexts(stmt)) {
    auto sub = Parser::Parse(sql);
    if (!sub.ok()) continue;
    CollectTables(**sub, out);
    CollectSubqueryTables(**sub, out);
  }
}

// Fails with kAccessDenied when a CTE body written in the statement (in
// any UNION arm or derived table, nested CTEs included) reads a protected
// table: ReplaceTableRefs rewrites FROM lists only, so such a body would
// read the table unrestricted.
Status CheckCteBodies(const SelectStmt& stmt, const PolicyStore& policies) {
  for (const SelectStmt* arm = &stmt; arm != nullptr;
       arm = arm->union_next.get()) {
    for (const auto& cte : arm->ctes) {
      std::vector<std::string> tables;
      CollectTables(*cte.query, &tables);
      for (const std::string& table : tables) {
        if (policies.PolicyCountForTable(table) > 0) {
          return Status::AccessDenied(
              "WITH " + cte.name + " reads protected table " + table +
              "; use a derived table (FROM (SELECT ...) AS alias) instead");
        }
      }
    }
    for (const auto& ref : arm->from) {
      if (ref.subquery != nullptr) {
        SIEVE_RETURN_IF_ERROR(CheckCteBodies(*ref.subquery, policies));
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<std::string> CollectReferencedTables(const SelectStmt& stmt) {
  std::vector<std::string> tables;
  CollectTables(stmt, &tables);
  CollectSubqueryTables(stmt, &tables);
  return tables;
}

Result<RewriteResult> QueryRewriter::RewriteSql(const std::string& sql,
                                                const QueryMetadata& md) {
  SIEVE_ASSIGN_OR_RETURN(SelectStmtPtr stmt, Parser::Parse(sql));
  return Rewrite(*stmt, md);
}

Result<RewriteResult> QueryRewriter::Rewrite(const SelectStmt& query,
                                             const QueryMetadata& md) {
  // A scalar subquery written in the query runs as SQL text at execution
  // time, out of reach of the table replacement below, so it may only read
  // unprotected tables. (Subqueries of policy conditions enter the
  // rewritten statement later and are not inspected here.)
  std::vector<std::string> subquery_tables;
  CollectSubqueryTables(query, &subquery_tables);
  for (const std::string& table : subquery_tables) {
    if (policies_->PolicyCountForTable(table) > 0) {
      return Status::AccessDenied("scalar subquery reads protected table " +
                                  table +
                                  "; use a join or a derived table instead");
    }
  }
  SIEVE_RETURN_IF_ERROR(CheckCteBodies(query, *policies_));

  RewriteResult result;
  result.stmt = query.Clone();

  std::vector<std::string> tables;
  CollectTables(query, &tables);

  const double cr_seq = cost_->params().cr_seq;
  const double cr_random = cost_->params().cr_random;
  const bool mysql_like = db_->profile().honor_index_hints;

  for (const std::string& table : tables) {
    // A table is protected iff any policy (for any querier) targets it.
    if (policies_->PolicyCountForTable(table) == 0) continue;

    const TableEntry* entry = db_->catalog().Find(table);
    if (entry == nullptr) continue;
    const double n = static_cast<double>(entry->table->size());
    const std::string cte_name = "sieve_" + ToLower(table);

    TableRewriteInfo info;
    info.table = table;

    std::vector<const Policy*> relevant =
        policies_->FilterByMetadata(md, table, resolver_);
    info.num_policies = relevant.size();
    info.policy_ids.reserve(relevant.size());
    for (const Policy* p : relevant) info.policy_ids.push_back(p->id);

    auto cte_body = std::make_shared<SelectStmt>();
    cte_body->select_star = true;
    TableRef base;
    base.table_name = table;
    cte_body->from.push_back(base);

    if (relevant.empty()) {
      // Default-deny: no policy allows this querier anything on the table.
      result.default_denied = true;
      cte_body->where = MakeLiteral(Value::Bool(false));
      result.stmt->ctes.push_back({cte_name, cte_body});
      ReplaceTableRefs(result.stmt.get(), table, cte_name);
      result.tables.push_back(std::move(info));
      continue;
    }

    SIEVE_ASSIGN_OR_RETURN(const GuardedExpression* ge,
                           EnsureGuards(md, table, &info));
    info.num_guards = ge->guards.size();
    info.guard_ids.reserve(ge->guards.size());
    for (const Guard& g : ge->guards) info.guard_ids.push_back(g.id);

    if (ge->guards.empty()) {
      // No indexable condition on any policy: fall back to a plain policy
      // filter (equivalent to BaselineP for this table).
      std::vector<ExprPtr> policy_exprs;
      policy_exprs.reserve(relevant.size());
      for (const Policy* p : relevant) policy_exprs.push_back(p->ObjectExpr());
      cte_body->where = MakeOr(std::move(policy_exprs));
      info.strategy = AccessStrategy::kLinearScan;
      result.stmt->ctes.push_back({cte_name, cte_body});
      ReplaceTableRefs(result.stmt.get(), table, cte_name);
      result.tables.push_back(std::move(info));
      continue;
    }

    // ---- Strategy selection (Section 5.5) ----
    info.cost_linear = n * cr_seq;
    info.cost_index_guards = ge->TotalSelectivity() * n * cr_random;
    info.cost_index_query = std::numeric_limits<double>::infinity();
    std::string query_index_column;
    {
      auto explain = db_->ExplainStmt(query);
      if (explain.ok()) {
        for (const auto& path : explain->tables) {
          if (!EqualsIgnoreCase(path.table, table)) continue;
          if (path.kind != AccessPathInfo::Kind::kSeqScan) {
            info.cost_index_query = path.selectivity * n * cr_random;
            query_index_column = path.index_column;
          }
          break;
        }
      }
      if (info.cost_index_query ==
          std::numeric_limits<double>::infinity()) {
        // EXPLAIN found no index probe — but a parameterized predicate on
        // an indexed column still supports kIndexQuery at execute time;
        // cost it with default selectivities (see BestParameterSarg).
        std::string qualifier = table;
        for (const auto& ref : query.from) {
          if (EqualsIgnoreCase(ref.table_name, table)) {
            qualifier = ref.EffectiveName();
            break;
          }
        }
        if (auto param_sarg = BestParameterSarg(query, *entry, qualifier)) {
          info.cost_index_query = param_sarg->selectivity * n * cr_random;
          query_index_column = param_sarg->column;
        }
      }
    }
    AccessStrategy strategy = AccessStrategy::kIndexGuards;
    double best = info.cost_index_guards;
    if (info.cost_index_query < best) {
      strategy = AccessStrategy::kIndexQuery;
      best = info.cost_index_query;
    }
    if (info.cost_linear < best) {
      strategy = AccessStrategy::kLinearScan;
    }
    info.strategy = strategy;

    // ---- Build guard arms ----
    // Query-local predicate ride-along (Section 5.5) is only sound when the
    // policy CTE has a single consumer: every reference to the table scans
    // the same CTE, so predicates taken from the first arm's WHERE must not
    // be folded in when another UNION arm or a second alias (self-join)
    // also reads it — those consumers would silently lose rows.
    const bool single_consumer =
        query.union_next == nullptr && CountTableRefs(query, table) == 1;
    std::vector<ExprPtr> local;
    if (single_consumer) local = TableLocalConjuncts(query, table);
    std::vector<ExprPtr> arms;
    arms.reserve(ge->guards.size());
    for (const Guard& guard : ge->guards) {
      bool use_delta = guard.use_delta;
      if (use_delta) ++info.num_delta_guards;
      arms.push_back(GuardArmExpr(guard, use_delta));
    }

    if (strategy == AccessStrategy::kIndexGuards && mysql_like) {
      // One UNION arm per guard, each forcing the guard's index
      // (Section 5.3's MySQL rewrite). Query-local predicates ride along in
      // every arm (Section 5.5).
      SelectStmtPtr head;
      SelectStmt* tail = nullptr;
      for (size_t i = 0; i < ge->guards.size(); ++i) {
        auto arm_stmt = std::make_shared<SelectStmt>();
        arm_stmt->select_star = true;
        TableRef ref;
        ref.table_name = table;
        ref.hint.kind = IndexHint::Kind::kForceIndex;
        ref.hint.columns.push_back(ge->guards[i].guard.attr);
        arm_stmt->from.push_back(ref);
        std::vector<ExprPtr> conj;
        conj.push_back(arms[i]);
        for (const auto& c : local) conj.push_back(StripBinding(c));
        arm_stmt->where = MakeAnd(std::move(conj));
        if (head == nullptr) {
          head = arm_stmt;
        } else {
          tail->union_next = arm_stmt;
          tail->union_all = false;  // UNION dedups rows hit by two guards
        }
        tail = arm_stmt.get();
      }
      cte_body = head;
    } else {
      // Single SELECT. For PostgreSQL-like engines the top-level OR of
      // indexable guard arms is what triggers the bitmap-OR plan; pushing
      // the query-local predicates *into* each arm keeps that shape.
      std::vector<ExprPtr> or_arms;
      or_arms.reserve(arms.size());
      for (auto& arm : arms) {
        if (strategy == AccessStrategy::kIndexGuards && !local.empty()) {
          std::vector<ExprPtr> conj;
          conj.push_back(arm);
          for (const auto& c : local) conj.push_back(StripBinding(c));
          or_arms.push_back(MakeAnd(std::move(conj)));
        } else {
          or_arms.push_back(arm);
        }
      }
      ExprPtr guards_or = MakeOr(std::move(or_arms));

      TableRef& ref = cte_body->from.front();
      if (strategy == AccessStrategy::kIndexQuery) {
        // Index on the query predicate; guards become residual filters.
        std::vector<ExprPtr> conj;
        for (const auto& c : local) conj.push_back(StripBinding(c));
        conj.push_back(std::move(guards_or));
        cte_body->where = MakeAnd(std::move(conj));
        if (mysql_like && !query_index_column.empty()) {
          ref.hint.kind = IndexHint::Kind::kForceIndex;
          ref.hint.columns.push_back(query_index_column);
        }
      } else if (strategy == AccessStrategy::kLinearScan) {
        std::vector<ExprPtr> conj;
        for (const auto& c : local) conj.push_back(StripBinding(c));
        conj.push_back(std::move(guards_or));
        cte_body->where = MakeAnd(std::move(conj));
        if (mysql_like) {
          ref.hint.kind = IndexHint::Kind::kIgnoreAllIndexes;
        }
      } else {
        cte_body->where = std::move(guards_or);
      }
    }

    result.stmt->ctes.push_back({cte_name, cte_body});
    ReplaceTableRefs(result.stmt.get(), table, cte_name);
    result.tables.push_back(std::move(info));
  }

  result.sql = result.stmt->ToSql();
  return result;
}

}  // namespace sieve
