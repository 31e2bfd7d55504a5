#ifndef SIEVE_SIEVE_DELTA_H_
#define SIEVE_SIEVE_DELTA_H_

#include "engine/database.h"
#include "sieve/guard_store.h"

namespace sieve {

/// Name of the Δ operator UDF as referenced in rewritten SQL:
///   ... AND delta(<guard_id>) = true
inline constexpr char kDeltaUdfName[] = "delta";

/// Registers the Δ operator (Section 5.2) as a UDF on `db`. For each tuple
/// the UDF:
///   1. retrieves the guard's policy partition P_Gi from `guards`,
///   2. filters it down to the policies whose oc_owner matches the tuple's
///      owner attribute (the context filter — query metadata was already
///      applied when the guarded expression was generated),
///   3. evaluates the surviving policies' object conditions and returns true
///      iff one allows the tuple.
/// Both the UDF invocation and the per-policy checks are counted in
/// ExecStats, which is what the inline-vs-Δ calibration (Figure 3) measures.
///
/// Threading: the registered UDF is evaluated concurrently by parallel scan
/// partitions and concurrent UNION arms. It is race-free because the
/// guard's policy partition is bound against the tuple schema exactly once
/// (GuardStore::DeltaPartition::bind_once) and treated as immutable
/// afterwards, and each worker counts into its own ExecStats.
Status RegisterDeltaUdf(Database* db, GuardStore* guards);

}  // namespace sieve

#endif  // SIEVE_SIEVE_DELTA_H_
