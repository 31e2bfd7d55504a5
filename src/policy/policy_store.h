#ifndef SIEVE_POLICY_POLICY_STORE_H_
#define SIEVE_POLICY_POLICY_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/version_counter.h"
#include "engine/database.h"
#include "policy/policy.h"

namespace sieve {

/// Persistent policy corpus. Policies live both in memory (the working set
/// used by guard generation and the Δ operator) and in two catalog tables,
/// exactly as Section 5.1 describes:
///   rP  (id, owner, querier, associated_table, purpose, action, inserted_at)
///   rOC (id, policy_id, attr, op, val)
/// Range conditions persist as two rOC rows (>= lo, <= hi); derived values
/// persist their SQL text in `val`.
class PolicyStore {
 public:
  static constexpr const char* kPolicyTable = "rP";
  static constexpr const char* kConditionTable = "rOC";

  explicit PolicyStore(Database* db) : db_(db) {}

  /// Creates rP / rOC (idempotent).
  Status Init();

  /// Assigns an id, persists the policy and keeps it in memory.
  Result<int64_t> AddPolicy(Policy policy);

  /// Drops a policy by id from memory and marks its rows deleted.
  Status RemovePolicy(int64_t id);

  /// Reloads the in-memory corpus from rP / rOC (round-trip check and
  /// recovery path). All or nothing: a missing catalog table or a malformed
  /// row returns an error and leaves the current corpus untouched.
  Status LoadFromTables();

  size_t size() const { return policies_.size(); }
  /// Stable container: references remain valid across AddPolicy calls
  /// (the Δ cache and guard partitions rely on this).
  const std::deque<Policy>& policies() const { return policies_; }

  const Policy* FindPolicy(int64_t id) const;

  /// P_QM: policies relevant to query metadata `md` on `table`
  /// (Section 3.2, "Reducing Number of Policies").
  std::vector<const Policy*> FilterByMetadata(const QueryMetadata& md,
                                              const std::string& table,
                                              const GroupResolver* resolver) const;

  /// All policies for an exact (querier, purpose, table) key, without group
  /// expansion (used by guard persistence bookkeeping).
  std::vector<const Policy*> PoliciesForQuerier(const std::string& querier,
                                                const std::string& purpose,
                                                const std::string& table) const;

  /// Distinct (querier, purpose) pairs appearing on `table`.
  std::vector<QueryMetadata> DistinctQueriers(const std::string& table) const;

  /// Monotonic mutation counter, bumped by every corpus change (add,
  /// remove, reload). Together with GuardStore::version it forms the
  /// middleware's policy epoch, a diagnostic; cached rewrites validate
  /// against the per-key counters below instead.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Number of live policies protecting `table` (case-insensitive). A
  /// table is protected iff this is > 0.
  size_t PolicyCountForTable(const std::string& table) const;

  // -- Per-key version counters (see VersionCounter) --
  // Snapshotted by the rewrite cache to validate a cached rewrite. Each
  // lookup creates the counter at 0 when absent, so it needs the same
  // exclusion as a mutation.

  /// Bumped whenever a policy under this exact (querier, purpose, table)
  /// grant key is added or removed (case-insensitive, no group expansion).
  const VersionCounter& GrantVersion(const std::string& querier,
                                     const std::string& purpose,
                                     const std::string& table);
  /// Bumped when `table` turns protected (first policy added) or
  /// unprotected (last policy removed).
  const VersionCounter& ProtectionVersion(const std::string& table);
  /// Bumped by every successful LoadFromTables.
  const VersionCounter& ReloadVersion() const { return reload_version_; }

 private:
  void BumpVersion() { version_.fetch_add(1, std::memory_order_release); }
  Status PersistPolicy(const Policy& policy);
  /// Bumps the policy's grant key and adjusts its table's policy count by
  /// `delta` (+1 add, -1 remove), bumping the protection counter when the
  /// count crosses zero.
  void CountMutation(const Policy& policy, int delta);

  Database* db_;
  std::deque<Policy> policies_;
  std::unordered_map<int64_t, size_t> by_id_;
  int64_t next_id_ = 1;
  int64_t next_oc_id_ = 1;
  int64_t logical_clock_ = 1;
  std::atomic<uint64_t> version_{0};
  /// Keyed by lower-cased "querier\x1fpurpose\x1ftable".
  VersionCounters grant_versions_;
  /// Keyed by lower-cased table.
  VersionCounters protection_versions_;
  VersionCounter reload_version_{0};
  /// Lower-cased table -> live policy count.
  std::unordered_map<std::string, size_t> table_policy_counts_;
};

}  // namespace sieve

#endif  // SIEVE_POLICY_POLICY_STORE_H_
