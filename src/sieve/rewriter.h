#ifndef SIEVE_SIEVE_REWRITER_H_
#define SIEVE_SIEVE_REWRITER_H_

#include <string>
#include <vector>

#include "engine/database.h"
#include "parser/ast.h"
#include "policy/policy_store.h"
#include "sieve/cost_model.h"
#include "sieve/guard_selection.h"
#include "sieve/guard_store.h"

namespace sieve {

/// Access strategy selected per protected table (Section 5.5):
///   kLinearScan — table scan with the guarded expression as a filter;
///   kIndexQuery — index scan on a selective query predicate, guarded
///                 expression evaluated as a residual filter;
///   kIndexGuards — one index scan per guard (MySQL: FORCE INDEX + UNION;
///                 PostgreSQL: a single OR that the optimizer bitmap-ORs).
enum class AccessStrategy { kLinearScan, kIndexQuery, kIndexGuards };

const char* AccessStrategyName(AccessStrategy s);

/// Per-table diagnostics of one rewrite. Besides the counts/costs the
/// strategy selector reports, it names the exact policies and guards the
/// rewrite compiled in — the enforcement decision the audit log records.
struct TableRewriteInfo {
  std::string table;
  AccessStrategy strategy = AccessStrategy::kIndexGuards;
  size_t num_policies = 0;
  size_t num_guards = 0;
  size_t num_delta_guards = 0;  ///< guards evaluated through Δ
  /// Ids of the policies relevant to the querier/purpose on this table —
  /// the disjuncts the guarded expression (or the plain-filter fallback)
  /// enforces. Empty under default-deny.
  std::vector<int64_t> policy_ids;
  /// Ids of the guards of the guarded expression the rewrite used (empty
  /// for the plain-filter fallback and default-deny).
  std::vector<int64_t> guard_ids;
  double cost_linear = 0.0;
  double cost_index_query = 0.0;
  double cost_index_guards = 0.0;
  bool regenerated_guards = false;  ///< outdated flag forced regeneration
  double guard_generation_ms = 0.0;

  std::string ToString() const;
};

/// Output of QueryRewriter::Rewrite.
struct RewriteResult {
  SelectStmtPtr stmt;   ///< rewritten statement (WITH clauses prepended)
  std::string sql;      ///< rendered SQL of `stmt`
  std::vector<TableRewriteInfo> tables;
  /// True when the querier has no applicable policy on some protected table:
  /// default-deny yields an empty projection of that table.
  bool default_denied = false;
};

/// Distinct base-table names referenced anywhere in `stmt` — the FROM
/// clauses of every union arm, derived tables and CTE bodies, and the
/// tables read by scalar subqueries written in its expressions —
/// deduplicated case-insensitively, original casing preserved. The session
/// layer records these (lower-cased) as a prepared rewrite's dependency
/// tables, whose version counters validate the cached rewrite.
std::vector<std::string> CollectReferencedTables(const SelectStmt& stmt);

/// Sieve's query rewriter (Section 5): for every table in the query that has
/// policies, build (or reuse) the guarded policy expression, pick the access
/// strategy with the cost model + EXPLAIN, choose inline vs Δ per guard, and
/// emit a WITH clause that replaces the table. A query whose own scalar
/// subqueries read a protected table fails with kAccessDenied: subquery
/// text executes as written, so it cannot be rewritten.
///
/// The plans this shapes are what the parallel executor later fans out: the
/// policy-filtered CTE body splits into morsels wherever the query
/// consumes it, and the MySQL-profile IndexGuards strategy emits a UNION
/// of guard arms (driven concurrently by UnionOperator).
/// Query-local predicates ride along into the CTE body only when the CTE
/// has a single consumer — one reference, no set-op chain — since every
/// reference scans the same materialized CTE.
///
/// Threading: Rewrite runs single-threaded at query-intercept time, before
/// any parallel execution starts; instances are not safe for concurrent use
/// (guard regeneration mutates the GuardStore).
class QueryRewriter {
 public:
  QueryRewriter(Database* db, PolicyStore* policies, GuardStore* guards,
                const CostModel* cost, const GroupResolver* resolver)
      : db_(db),
        policies_(policies),
        guards_(guards),
        cost_(cost),
        resolver_(resolver),
        builder_(db, policies, cost, resolver) {}

  Result<RewriteResult> Rewrite(const SelectStmt& query,
                                const QueryMetadata& md);

  Result<RewriteResult> RewriteSql(const std::string& sql,
                                   const QueryMetadata& md);

  /// Builds the boolean expression of one guard: guard predicate AND
  /// (inline partition DNF | delta(guard_id) = true). Exposed for tests.
  ExprPtr GuardArmExpr(const Guard& guard, bool use_delta) const;

 private:
  /// Ensures a fresh guarded expression exists for (md, table); regenerates
  /// when missing or outdated. Returns diagnostics through `info`.
  Result<const GuardedExpression*> EnsureGuards(const QueryMetadata& md,
                                                const std::string& table,
                                                TableRewriteInfo* info);

  /// Conjuncts of the query WHERE that reference only `table`'s columns
  /// (plus literals); these are pushed into the WITH body per Section 5.5.
  std::vector<ExprPtr> TableLocalConjuncts(const SelectStmt& query,
                                           const std::string& table) const;

  Database* db_;
  PolicyStore* policies_;
  GuardStore* guards_;
  const CostModel* cost_;
  const GroupResolver* resolver_;
  GuardedExpressionBuilder builder_;
};

}  // namespace sieve

#endif  // SIEVE_SIEVE_REWRITER_H_
