#ifndef SIEVE_EXPR_EVAL_H_
#define SIEVE_EXPR_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/exec_stats.h"
#include "common/metadata.h"
#include "common/status.h"
#include "expr/expr.h"
#include "plan/row_batch.h"
#include "storage/table.h"

namespace sieve {

/// Callbacks the evaluator needs from the engine: correlated scalar
/// subqueries and UDF dispatch. Database implements this; keeping it an
/// interface avoids a layering cycle between expr/ and engine/.
class EngineHooks {
 public:
  virtual ~EngineHooks() = default;

  /// Runs `sql` as a scalar subquery; `outer_schema`/`outer_row` provide the
  /// correlation scope (columns not resolvable inside the subquery bind to
  /// the outer row).
  virtual Result<Value> EvalScalarSubquery(const std::string& sql,
                                           const Schema& outer_schema,
                                           const Row& outer_row,
                                           const QueryMetadata* metadata,
                                           ExecStats* stats) = 0;

  /// Dispatches a UDF call.
  virtual Result<Value> CallUdf(const std::string& name,
                                const std::vector<Value>& args,
                                const Schema& schema, const Row& row,
                                const QueryMetadata* metadata,
                                ExecStats* stats) = 0;
};

/// Expression evaluator. The row-at-a-time entry points (Eval,
/// EvalPredicate) short-circuit AND/OR (the paper's α models exactly this
/// behaviour for policy disjunctions) and count atomic comparisons into
/// ExecStats.
///
/// EvalPredicateBatch is the vectorized entry point: one walk of the
/// expression tree drives tight loops directly over the batch's typed
/// column arrays (null bytes + contiguous primitives), so comparison and
/// AND/OR guard nodes compile to branch-free kernels the auto-vectorizer
/// can SIMD — no Value objects are constructed on the hot path. AND/OR
/// narrow a per-node active-row set exactly the way short-circuiting
/// prunes per row, so the (node, row) evaluation pairs — and therefore
/// every ExecStats counter — are identical to evaluating the rows one at
/// a time. Sub-expressions with per-row side effects (UDF calls such as
/// the Δ operator, correlated subqueries, non-constant IN lists) fall
/// back to row-at-a-time evaluation for exactly the active rows
/// (materialized from the columns on demand), preserving semantics and
/// counters by construction.
class Evaluator {
 public:
  Evaluator(const Schema* schema, EngineHooks* hooks,
            const QueryMetadata* metadata, ExecStats* stats)
      : schema_(schema), hooks_(hooks), metadata_(metadata), stats_(stats) {}

  Result<Value> Eval(const Expr& expr, const Row& row);

  /// Boolean evaluation; NULL is treated as false (SQL WHERE semantics).
  Result<bool> EvalPredicate(const Expr& expr, const Row& row);

  /// Batched predicate evaluation over the batch's active rows: sets
  /// (*pass)[k] to the value EvalPredicate(expr, row k) would return,
  /// with identical ExecStats side effects, in one tree walk over the
  /// columnar arrays. `pass` is resized to batch.size() and is indexed by
  /// active position (feed it to RowBatch::NarrowToPassing).
  Status EvalPredicateBatch(const Expr& expr, const RowBatch& batch,
                            std::vector<uint8_t>* pass);

 private:
  /// Tri-state truth value per active row: -1 NULL, 0 false, 1 true.
  /// `active` holds active positions (indices into the batch's selection
  /// view); entries of `tri` outside `active` are left untouched.
  Status EvalBoolBatch(const Expr& expr, const RowBatch& batch,
                       const std::vector<uint32_t>& active,
                       std::vector<int8_t>* tri);

  const Schema* schema_;
  EngineHooks* hooks_;
  const QueryMetadata* metadata_;
  ExecStats* stats_;
  Row scratch_row_;  // row-wise fallback: reused materialization buffer
};

}  // namespace sieve

#endif  // SIEVE_EXPR_EVAL_H_
