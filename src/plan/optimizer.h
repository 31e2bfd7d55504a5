#ifndef SIEVE_PLAN_OPTIMIZER_H_
#define SIEVE_PLAN_OPTIMIZER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "parser/ast.h"
#include "plan/operators.h"
#include "plan/profile.h"
#include "storage/catalog.h"

namespace sieve {

/// Access path the optimizer picked for one base-table reference. This is
/// what EXPLAIN surfaces; Sieve's strategy selector (Section 5.5) reads the
/// chosen access kind and estimated selectivity ρ(p) from here.
struct AccessPathInfo {
  enum class Kind { kSeqScan, kIndexRange, kIndexUnion };

  std::string table;
  std::string qualifier;
  Kind kind = Kind::kSeqScan;
  std::string index_column;     // for kIndexRange / kIndexUnion (primary)
  size_t num_ranges = 0;        // for kIndexUnion
  double selectivity = 1.0;     // estimated fraction of the table fetched
  double estimated_rows = 0.0;  // selectivity * |table|

  std::string ToString() const;
};

/// High-level view of the plan, one entry per base-table access.
struct ExplainInfo {
  std::vector<AccessPathInfo> tables;

  /// Access info for a given table reference (by alias or table name);
  /// nullptr when absent.
  const AccessPathInfo* Find(const std::string& name) const;

  std::string ToString() const;
};

/// A fully planned query: the operator tree plus every CTE it reads, one
/// entry per definition in dependency order (a body's own CTEs come before
/// it). Executor::Run and QueryCursor::Open materialize `ctes` in order,
/// before they open `root`; the CTE-reference scans in the tree read those
/// entries, so they must stay where they are.
struct PlannedQuery {
  OperatorPtr root;
  std::vector<std::unique_ptr<PlannedCte>> ctes;
  ExplainInfo explain;
};

/// Rule+cost based planner: resolves CTEs/derived tables, chooses per-table
/// access paths from histograms (honoring index hints per the engine
/// profile), extracts hash-join keys from WHERE equi-conjuncts, and stacks
/// filter/aggregate/project/union operators.
///
/// Name resolution happens here and nowhere else: each operator knows its
/// output schema from construction, and the planner binds a copy of every
/// expression it hands an operator (residual WHERE, join keys, group keys,
/// select items) against that operator's input schema. A column that does
/// not resolve, or set-operation arms of different widths, fail planning
/// with kBindError, so EXPLAIN reports them too.
///
/// CTE names resolve lexically: a WITH list's names are visible to its
/// statement and to every body in the list (siblings may reference each
/// other in any order), the innermost scope wins, and a name defined twice
/// in one list resolves to its last definition — the rewriter relies on
/// that, appending its `sieve_<table>` CTEs after the user's. A
/// definition's body is planned once, at its first reference; a reference
/// reached while that body is being planned is a cycle (kBindError).
class Optimizer {
 public:
  Optimizer(Catalog* catalog, const EngineProfile* profile)
      : catalog_(catalog), profile_(profile) {}

  Result<PlannedQuery> Plan(const SelectStmt& stmt);

  /// Estimated selectivity of a single predicate over `table` using the
  /// index histogram on the predicate's column; 1.0 when not estimable.
  /// This is ρ(pred) from the paper's cost model.
  double EstimatePredicateSelectivity(const std::string& table,
                                      const Expr& predicate) const;

 private:
  struct CteDef;
  /// Lower-cased CTE name -> the definition it resolves to.
  using CteScope = std::map<std::string, CteDef*>;
  /// One WITH-list definition, alive while its statement is planned.
  struct CteDef {
    std::string name;
    const SelectStmt* body = nullptr;
    const CteScope* scope = nullptr;  // the names its body resolves
    bool planning = false;            // its body is being planned
    const PlannedCte* planned = nullptr;  // set at the first reference
  };

  Result<OperatorPtr> PlanStmt(const SelectStmt& stmt, const CteScope& scope,
                               PlannedQuery* out);
  Result<OperatorPtr> PlanCore(const SelectStmt& stmt, const CteScope& scope,
                               PlannedQuery* out);
  Result<OperatorPtr> PlanTableAccess(const TableRef& ref,
                                      const SelectStmt& stmt,
                                      const CteScope& scope,
                                      PlannedQuery* out);

  Catalog* catalog_;
  const EngineProfile* profile_;
};

}  // namespace sieve

#endif  // SIEVE_PLAN_OPTIMIZER_H_
