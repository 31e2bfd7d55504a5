#ifndef SIEVE_SIEVE_GUARD_STORE_H_
#define SIEVE_SIEVE_GUARD_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/version_counter.h"
#include "engine/database.h"
#include "policy/policy_store.h"
#include "sieve/guard.h"

namespace sieve {

/// Identifies a guarded expression, lower-cased (GuardStore keys are
/// case-insensitive — the engine matches table and querier names with
/// EqualsIgnoreCase everywhere else, so differently-cased spellings must hit
/// the same entry).
struct GuardKey {
  std::string querier;
  std::string purpose;
  std::string table;
};

/// Persistence and caching of guarded policy expressions (Section 5.1):
///   rGE (id, querier, associated_table, purpose, action, outdated,
///        ts_inserted_at)
///   rGG (id, guard_expression_id, attr, op, val)        — the guards
///   rGP (guard_id, policy_id)                            — the partitions
/// The in-memory map is authoritative at query time; the `outdated` flag
/// implements the paper's lazy regeneration: policy inserts only flip the
/// flag, and the guarded expression is rebuilt when its querier next poses
/// a query.
class GuardStore {
 public:
  GuardStore(Database* db, const PolicyStore* policies)
      : db_(db), policies_(policies) {}

  /// Creates rGE / rGG / rGP (idempotent).
  Status Init();

  /// Stores a freshly generated guarded expression (assigning guard ids),
  /// persists it, clears the outdated flag and invalidates Δ caches.
  Result<int64_t> Put(GuardedExpression ge);

  /// The cached guarded expression for a key; nullptr when never generated.
  const GuardedExpression* Get(const std::string& querier,
                               const std::string& purpose,
                               const std::string& table) const;

  bool IsOutdated(const std::string& querier, const std::string& purpose,
                  const std::string& table) const;

  /// Flips the outdated flag (called on policy insertions for the key).
  void MarkOutdated(const std::string& querier, const std::string& purpose,
                    const std::string& table);

  /// Marks outdated every stored guarded expression on `table`
  /// (case-insensitive) whose GE satisfies `pred`, and returns the
  /// lower-cased keys of the entries flipped. Used by incremental
  /// regeneration to invalidate exactly the candidate sets a policy insert
  /// changed — including group grants, where the affected GEs belong to the
  /// group's members rather than to the policy's own querier string.
  std::vector<GuardKey> MarkOutdatedWhere(
      const std::string& table,
      const std::function<bool(const GuardedExpression&)>& pred);

  /// Guard lookup by id (the Δ UDF's entry point).
  const Guard* FindGuard(int64_t guard_id) const;

  /// Policies of a guard's partition grouped by owner value — the context
  /// filter the Δ operator applies before evaluating object conditions.
  struct DeltaPolicyEntry {
    int64_t policy_id;
    ExprPtr object_expr;  // self-contained clone; survives policy mutations
  };
  struct DeltaPartition {
    std::unordered_map<std::string, std::vector<DeltaPolicyEntry>> by_owner;
    /// The object expressions above are shared by every worker evaluating
    /// this guard, and binding them mutates expression nodes in place — so
    /// the Δ UDF binds them against the tuple schema exactly once (under
    /// this flag) and treats them as immutable afterwards.
    mutable std::once_flag bind_once;
    mutable Status bind_status = Status::OK();
  };
  /// Thread-safe: concurrent scan partitions evaluating Δ race to build the
  /// same partition; the cache is mutex-guarded and the returned pointer is
  /// stable for the partition's lifetime (invalidated only by Put).
  Result<const DeltaPartition*> GetDeltaPartition(int64_t guard_id);

  size_t size() const { return memory_.size(); }

  /// Monotonic mutation counter, bumped when guarded expressions change
  /// (Put) or are invalidated (MarkOutdated). Together with
  /// PolicyStore::version it forms the middleware's policy epoch, a
  /// diagnostic; cached rewrites validate against GuardVersion instead.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Per-(querier, purpose, table) counter (case-insensitive), bumped by
  /// Put / MarkOutdated / MarkOutdatedWhere on that key. Created at 0 when
  /// absent, so it needs the same exclusion as a mutation; the rewrite
  /// cache snapshots it (see VersionCounter).
  const VersionCounter& GuardVersion(const std::string& querier,
                                     const std::string& purpose,
                                     const std::string& table);

 private:
  void BumpVersion() { version_.fetch_add(1, std::memory_order_release); }
  /// Internal map key. Always constructed through Make(), which lower-cases
  /// every field: lookups and mutations reach the same entry regardless of
  /// the casing callers use (the engine compares identifiers with
  /// EqualsIgnoreCase everywhere else — a case-sensitive key here made
  /// MarkOutdated("WifiData") miss the entry IsOutdated("wifidata") checks,
  /// serving stale guards).
  struct Key {
    std::string querier, purpose, table;
    static Key Make(const std::string& querier, const std::string& purpose,
                    const std::string& table);
    /// "querier\x1fpurpose\x1ftable": the key_versions_ key.
    std::string Joined() const;
    bool operator<(const Key& other) const;
  };
  struct Entry {
    GuardedExpression ge;
    bool outdated = false;
  };

  Status Persist(const GuardedExpression& ge);

  Database* db_;
  const PolicyStore* policies_;
  std::map<Key, Entry> memory_;
  std::unordered_map<int64_t, Key> guard_owner_;  // guard id -> GE key
  std::unordered_map<int64_t, std::unique_ptr<DeltaPartition>> delta_cache_;
  mutable std::mutex delta_mu_;  // guards delta_cache_ during execution
  int64_t next_ge_id_ = 1;
  int64_t next_guard_id_ = 1;
  int64_t next_gg_row_id_ = 1;
  int64_t logical_clock_ = 1;
  std::atomic<uint64_t> version_{0};
  /// Keyed by Key::Joined().
  VersionCounters key_versions_;
};

}  // namespace sieve

#endif  // SIEVE_SIEVE_GUARD_STORE_H_
