#ifndef SIEVE_SIEVE_COST_MODEL_H_
#define SIEVE_SIEVE_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "engine/database.h"

namespace sieve {

/// Calibrated constants of the paper's cost model (Sections 4, 5.4, 6).
/// All times are seconds per unit.
struct CostParams {
  /// α: average fraction of a policy partition a tuple is checked against
  /// before the disjunction short-circuits (Eq. 2). Most tuples match no
  /// policy, so the whole partition is usually checked.
  double alpha = 0.8;
  /// ce: cost of evaluating one policy's object conditions on one tuple.
  double ce = 2.7e-7;
  /// cr: cost of reading one tuple sequentially.
  double cr_seq = 4.0e-8;
  /// Random (index) read cost of one tuple — the cr used in guard costing.
  double cr_random = 1.6e-7;
  /// UDFinv: fixed cost of invoking a UDF once (dominated by the marshalling
  /// /dispatch boundary; see EngineProfile::udf_invocation_spin).
  double udf_invocation = 2.5e-5;
  /// Per-policy evaluation cost inside the Δ UDF (post context filter).
  double udf_per_policy = 2.7e-7;
  /// Fraction of a partition's policies that survive Δ's context filter
  /// (owner + metadata) for a given tuple.
  double delta_filter_selectivity = 0.05;
};

/// Cost model driving all of Sieve's choices: guard merging (Theorem 1),
/// guard selection utility (Algorithm 1), inline-vs-Δ (Section 5.4),
/// LinearScan/IndexQuery/IndexGuards strategy (Section 5.5) and the
/// dynamic regeneration rate (Section 6).
class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(CostParams params) : params_(params) {}

  const CostParams& params() const { return params_; }

  /// Eq. 2: cost of evaluating one tuple against an inlined partition of
  /// `partition_size` policies.
  double InlineEvalCostPerTuple(size_t partition_size) const {
    return params_.alpha * static_cast<double>(partition_size) * params_.ce;
  }

  /// Section 5.4: per-tuple cost of Guard&Δ — UDF invocation plus the
  /// checks that survive the context filter.
  double DeltaEvalCostPerTuple(size_t partition_size) const {
    return params_.udf_invocation +
           params_.alpha * static_cast<double>(partition_size) *
               params_.delta_filter_selectivity * params_.udf_per_policy;
  }

  /// True when the Δ operator is cheaper than inlining for this partition.
  bool PreferDelta(size_t partition_size) const {
    return DeltaEvalCostPerTuple(partition_size) <
           InlineEvalCostPerTuple(partition_size);
  }

  /// Smallest partition size at which Δ wins (paper reports ≈120).
  size_t DeltaCrossover() const;

  /// Eq. 3: cost(Gi) = ρ(guard)·(cr + α·|P_Gi|·ce), with ρ in rows.
  double GuardCost(double guard_rows, size_t partition_size) const {
    return guard_rows *
           (params_.cr_random + InlineEvalCostPerTuple(partition_size));
  }

  /// benefit(Gi) = ce·|P_Gi|·(|r| − ρ(guard)) (Section 4.2).
  double GuardBenefit(double table_rows, double guard_rows,
                      size_t partition_size) const {
    double saved = table_rows - guard_rows;
    if (saved < 0) saved = 0;
    return params_.ce * static_cast<double>(partition_size) * saved;
  }

  /// read_cost(Gi) = ρ(guard)·cr.
  double GuardReadCost(double guard_rows) const {
    return guard_rows * params_.cr_random;
  }

  /// utility(Gi) = benefit / read_cost (Algorithm 1's priority).
  double GuardUtility(double table_rows, double guard_rows,
                      size_t partition_size) const;

  /// Theorem 1 threshold: merging overlapping candidates x, y is beneficial
  /// iff ρ(x∩y)/ρ(x∪y) > ce/(cr+ce).
  double MergeThreshold() const {
    return params_.ce / (params_.cr_random + params_.ce);
  }

  /// Eq. 19: optimal number of policy insertions before regenerating the
  /// guarded expression: k* = sqrt(4·C_G / (ρ(oc_G)·α·ce·r_pq)).
  /// `guard_rows` is ρ(oc_G) in rows, `regen_cost_seconds` is C_G, and
  /// `queries_per_insert` is r_pq = r_q / r_p.
  double OptimalRegenerationK(double guard_rows, double regen_cost_seconds,
                              double queries_per_insert) const;

  /// Measures α on a sample: fraction of the partition actually evaluated
  /// per tuple before the disjunction resolves, averaged over `rows`.
  static Result<double> MeasureAlpha(Database* db, const std::string& table,
                                     const std::vector<ExprPtr>& policy_exprs,
                                     size_t sample_rows = 2000);

  /// Runs micro-benchmarks on a scratch table inside `db` to estimate
  /// cr_seq, cr_random, ce and udf_invocation experimentally (the paper
  /// obtains these constants the same way, Section 5.4).
  static Result<CostParams> Calibrate(Database* db, uint64_t seed = 42);

 private:
  CostParams params_;
};

}  // namespace sieve

#endif  // SIEVE_SIEVE_COST_MODEL_H_
