#ifndef SIEVE_SIEVE_AUDIT_LOG_H_
#define SIEVE_SIEVE_AUDIT_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_stats.h"
#include "common/metadata.h"
#include "engine/database.h"
#include "sieve/rewrite_cache.h"

namespace sieve {

/// How the rewrite an execution ran with was obtained (the cache
/// disposition the audit trail records):
///   kMiss    — freshly rewritten (first Prepare of this key, or a one-shot
///              Execute whose normalized SQL was not cached);
///   kHit     — served from the shared RewriteCache / an already-held
///              PreparedQuery snapshot, still valid;
///   kRefresh — the held snapshot was stale (a version counter it read
///              had moved) and this execution transparently re-prepared.
enum class AuditCacheState { kMiss, kHit, kRefresh };

const char* AuditCacheStateName(AuditCacheState s);

/// One enforcement decision: for one query execution, which policies
/// matched, which guards fired, what access strategies the rewrite chose,
/// how the rewrite cache behaved, and what the engine reported back
/// (ExecStats totals). Produced by the session layer after every
/// execution — one record per Execute / drained cursor — and queryable
/// once flushed into the `sieve_audit` engine table.
struct AuditRecord {
  int64_t seq = 0;           ///< monotonic per middleware, assigned by Append
  std::string querier;       ///< metadata the query executed under
  std::string purpose;
  std::string sql;           ///< normalized original SQL (pre-rewrite)
  std::string tables;        ///< comma-joined protected tables rewritten
  std::string policy_ids;    ///< comma-joined ids of the policies that matched
  std::string guard_ids;     ///< comma-joined ids of the guards that fired
  int64_t num_policies = 0;  ///< Σ matched policies across protected tables
  int64_t num_guards = 0;    ///< Σ guards across protected tables
  int64_t num_delta_guards = 0;  ///< guards evaluated through the Δ operator
  std::string strategies;    ///< comma-joined per-table access strategies
  bool default_denied = false;   ///< some protected table had no applicable policy
  AuditCacheState cache = AuditCacheState::kMiss;
  int64_t rows_out = 0;      ///< rows the querier actually received
  int64_t comparisons = 0;   ///< ExecStats.comparisons of the run
  int64_t policy_evals = 0;  ///< ExecStats.policy_evals of the run
};

/// Enforcement audit log (GDPR Art. 30-style record of processing): a
/// bounded in-memory ring of AuditRecords, flushed on demand into a real
/// engine table (`sieve_audit`) so the audit trail is itself queryable
/// through the middleware like any other relation.
///
/// ## Lifecycle
///
/// The session layer Appends one record per execution (leaf mutex — safe
/// from any number of concurrent sessions holding the middleware state
/// lock shared). Records accumulate in the pending ring; when the ring is
/// full the oldest pending record is dropped and counted (`dropped()`),
/// bounding memory under a flush-starved firehose. Flush() drains the
/// pending ring into `sieve_audit` — it mutates an engine table, so the
/// caller must hold the middleware state lock exclusively (queries must
/// not scan the table mid-insert); SieveMiddleware::FlushAuditLog does
/// exactly that, and the session layer auto-flushes before executing any
/// query that reads `sieve_audit`.
///
/// Threading: Append/pending()/dropped()/total_appended() take the leaf
/// mutex and never call out; Init/Flush additionally touch the engine and
/// rely on the caller's exclusive middleware lock for table consistency.
class AuditLog {
 public:
  static constexpr const char* kTableName = "sieve_audit";
  /// Pending-ring capacity: bounds memory between flushes, not the table.
  static constexpr size_t kDefaultCapacity = 8192;

  explicit AuditLog(Database* db, size_t capacity = kDefaultCapacity)
      : db_(db), capacity_(capacity == 0 ? 1 : capacity) {}

  /// Creates the `sieve_audit` table and its seq/querier indexes
  /// (idempotent).
  Status Init();

  /// Builds the record for one execution from the rewrite snapshot it ran
  /// with and the stats it produced. Does not assign `seq` — Append does.
  static AuditRecord MakeRecord(const QueryMetadata& md,
                                const PreparedRewrite& rewrite,
                                AuditCacheState cache, const ExecStats& stats);

  /// Appends a record to the pending ring, assigning and returning its
  /// sequence number. Thread-safe; never blocks on the engine.
  int64_t Append(AuditRecord record);

  /// Drains every pending record into `sieve_audit`. Caller must exclude
  /// concurrent query execution (see class comment). Records are gone from
  /// the ring whether or not the insert succeeds (a failed flush is
  /// reported, not retried); records lost to a failed flush are counted in
  /// unflushed().
  Status Flush();

  /// Retention bound on the `sieve_audit` table itself: when a Flush
  /// leaves more than `n` live rows, the oldest rows (lowest seq) are
  /// deleted first until the bound holds. 0 = unbounded. Thread-safe;
  /// takes effect at the next Flush.
  void set_max_table_rows(size_t n);
  size_t max_table_rows() const;

  /// Records appended and not yet flushed (nor dropped).
  size_t pending() const;
  /// Records lost to ring overflow since construction.
  uint64_t dropped() const;
  /// Records drained by a Flush that could not be inserted into
  /// `sieve_audit` (the flush failed partway): they are gone, and this
  /// counter is the only trace. Surfaced as MiddlewareHealth::
  /// audit_unflushed so shutdown-time flush failures are visible.
  uint64_t unflushed() const;
  /// `sieve_audit` rows removed by the retention bound since construction.
  uint64_t truncated() const;
  /// Total records ever appended (= the last assigned seq).
  int64_t total_appended() const;

  /// Snapshot of the newest `n` pending records (in-memory inspection
  /// without flushing; newest last).
  std::vector<AuditRecord> PendingTail(size_t n) const;

 private:
  /// Deletes oldest rows until <= max_table_rows_ remain (caller holds the
  /// middleware state lock exclusively, like Flush itself).
  Status EnforceRetention();

  Database* db_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<AuditRecord> pending_;
  int64_t next_seq_ = 1;
  uint64_t dropped_ = 0;
  uint64_t unflushed_ = 0;
  uint64_t truncated_ = 0;
  size_t max_table_rows_ = 0;  ///< 0 = unbounded
};

}  // namespace sieve

#endif  // SIEVE_SIEVE_AUDIT_LOG_H_
