#ifndef SIEVE_SIEVE_MIDDLEWARE_H_
#define SIEVE_SIEVE_MIDDLEWARE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/shared_gate.h"
#include "engine/database.h"
#include "policy/policy_store.h"
#include "sieve/audit_log.h"
#include "sieve/cost_model.h"
#include "sieve/dynamic.h"
#include "sieve/guard_store.h"
#include "sieve/rewrite_cache.h"
#include "sieve/rewriter.h"

namespace sieve {

class SieveSession;
class PreparedQuery;
class ResultCursor;

/// Tuning knobs of the middleware. Snapshotted at construction; updated
/// atomically afterwards through SieveMiddleware::set_options.
struct SieveOptions {
  /// Query timeout in seconds (the paper's experiments use 30 s; 0 = none).
  double timeout_seconds = 30.0;
  /// Regeneration mode for dynamic policy insertions.
  RegenerationMode regeneration_mode = RegenerationMode::kLazy;
  /// Partition-parallel execution on at most this many threads (the
  /// calling thread included) per fan-out: every scan-shaped pipeline
  /// (each policy-filtered CTE body among them) splits into morsels, and
  /// UNION arms drain concurrently; hash joins, aggregates and EXCEPT
  /// consume their inputs serially (see ARCHITECTURE.md). 1 (the default) preserves serial behavior; parallel
  /// runs return the same rows in the same order with the same ExecStats
  /// totals.
  int num_threads = 1;
  /// Rows per execution batch of the vectorized executor: scans emit
  /// whole morsels, guard/Δ predicates run as column kernels once per
  /// batch, timeout checks amortize across the batch. 1 runs capacity-1
  /// batches through the same operators; 0 picks an adaptive per-operator
  /// size from the row width (EffectiveBatchSize). Every value returns
  /// identical rows, order and ExecStats. Must be >= 0 (validated by
  /// set_options).
  int batch_size = static_cast<int>(kDefaultBatchSize);
  /// Retention bound on the queryable `sieve_audit` table: when a flush
  /// leaves more than this many live rows, the oldest rows (lowest seq)
  /// are truncated first until the bound holds. 0 (the default) keeps the
  /// table unbounded — the pre-retention behavior. Must be >= 0; truncated
  /// rows are counted in AuditLog::truncated().
  int64_t audit_max_rows = 0;
};

/// One-stop health snapshot for operational surfaces (the server STATS
/// command, bench metadata): rewrite-cache behavior, audit-log pressure
/// and the policy epoch, read from their leaf-locked counters without
/// touching the state gate.
struct MiddlewareHealth {
  RewriteCacheStats cache;
  size_t audit_pending = 0;       ///< records appended, not yet flushed
  uint64_t audit_dropped = 0;     ///< pending-ring overflow losses
  uint64_t audit_unflushed = 0;   ///< records lost to failed flushes
  int64_t audit_total = 0;        ///< records ever appended
  uint64_t audit_truncated = 0;   ///< sieve_audit rows removed by retention
  uint64_t policy_epoch = 0;
};

/// The Sieve middleware facade (Section 5): intercepts queries, rewrites
/// them into policy-compliant queries using guarded expressions and the Δ
/// operator, and submits them to the underlying engine. One instance per
/// Database.
///
/// ## Sessions and the rewrite cache
///
/// The middleware is session-oriented: each querier/connection opens a
/// cheap SieveSession (see sieve/session.h) and prepares its queries once
/// — `Prepare` parses and rewrites, `Execute` binds parameters and runs
/// the cached rewrite, amortizing guard selection across the query
/// stream. Rewrites live in a shared RewriteCache keyed by (querier,
/// purpose, engine profile, normalized SQL). Each cached rewrite carries a
/// snapshot of the per-key version counters it read (PreparedRewrite) and
/// is stale once one of them moves: a policy added or removed under a
/// grant key that reaches its querier (GrantKeysFor — directly, through a
/// group, or with purpose "any"), a regenerated or outdated guard of its
/// own key, a table turning protected or unprotected, or a corpus reload.
/// Unaffected queriers' rewrites keep hitting through sustained policy
/// churn; the stores never call into the cache.
///
/// ## Threading
///
/// Many sessions may prepare and execute concurrently. Internally a
/// reader-writer lock partitions the work: executions (and open cursors)
/// hold it shared; store mutations (AddPolicy, set_options) and
/// cache-miss rewrites (which may regenerate guards) hold it exclusively.
/// Consequently AddPolicy blocks until in-flight executions and open
/// cursors finish, and vice versa — a query observes either the pre- or
/// the post-insert policy corpus, never a torn mix. Each individual
/// session (and its PreparedQuery/ResultCursor objects) is single-
/// threaded; concurrency is across sessions.
class SieveMiddleware {
 public:
  SieveMiddleware(Database* db, const GroupResolver* resolver,
                  SieveOptions options = {})
      : db_(db),
        resolver_(resolver),
        options_(options),
        policies_(db),
        guards_(db, &policies_),
        rewriter_(db, &policies_, &guards_, &cost_, resolver),
        dynamics_(db, &policies_, &guards_, &cost_, resolver),
        audit_log_(db) {
    audit_log_.set_max_table_rows(
        options_.audit_max_rows < 0 ? 0
                                    : static_cast<size_t>(options_.audit_max_rows));
  }

  /// Best-effort flush of the pending audit ring: enforcement records
  /// produced just before the middleware goes away are materialized into
  /// `sieve_audit` rather than silently dropped (a failure leaves them
  /// counted in AuditLog::unflushed(), though the middleware is gone to
  /// report it).
  ~SieveMiddleware();

  /// Creates the policy/guard catalog tables (including the `sieve_audit`
  /// audit table) and registers the Δ UDF. The cost model keeps its
  /// compiled-in constants; CostModel::Calibrate measures them on demand.
  Status Init();

  /// Adds a policy through the dynamic manager (marks affected guards
  /// outdated / regenerates per the configured mode). The counters it
  /// bumps stale exactly the cached rewrites that depend on them; blocks
  /// while queries are executing.
  Result<int64_t> AddPolicy(Policy policy);

  /// Rewrites without executing (inspection, tests, benches). Bypasses
  /// the rewrite cache; may regenerate outdated guards.
  Result<RewriteResult> Rewrite(const std::string& sql,
                                const QueryMetadata& md);

  /// One-shot compatibility path: equivalent to opening a temporary
  /// SieveSession, preparing `sql` (through the shared rewrite cache) and
  /// executing it without parameters. Prefer SieveSession for repeated
  /// queries.
  Result<ResultSet> Execute(const std::string& sql, const QueryMetadata& md);

  /// Reference enforcement: appends the plain DNF of the querier's policies
  /// (no guards, no Δ, no hints) — the textbook query-rewrite semantics used
  /// as the correctness oracle in tests. Runs under the same
  /// timeout/num_threads options as Execute so differential comparisons
  /// measure the rewrite, not the configuration.
  Result<ResultSet> ExecuteReference(const std::string& sql,
                                     const QueryMetadata& md);

  /// Atomically replaces the tuning options for subsequent executions.
  /// Rejects invalid settings (num_threads < 1, negative timeout).
  Status set_options(const SieveOptions& options);

  /// Current policy epoch: the sum of the policy- and guard-store version
  /// counters. A diagnostic (STATS, benches); cached rewrites validate
  /// against per-key counters, not against the epoch.
  uint64_t policy_epoch() const {
    return policies_.version() + guards_.version();
  }

  /// Hit/miss/invalidation counters of the shared rewrite cache.
  RewriteCacheStats rewrite_cache_stats() const {
    return rewrite_cache_.stats();
  }

  /// Health snapshot (cache + audit counters + epoch) for operational
  /// surfaces. Lock-light: reads leaf-locked counters only, safe to call
  /// from any thread at any time (server STATS, bench metadata).
  MiddlewareHealth Health() const {
    MiddlewareHealth h;
    h.cache = rewrite_cache_.stats();
    h.audit_pending = audit_log_.pending();
    h.audit_dropped = audit_log_.dropped();
    h.audit_unflushed = audit_log_.unflushed();
    h.audit_total = audit_log_.total_appended();
    h.audit_truncated = audit_log_.truncated();
    h.policy_epoch = policy_epoch();
    return h;
  }

  /// True when (querier, purpose) is a subject of the policy corpus: some
  /// policy's grant reaches this metadata directly or through group
  /// membership — the same GrantMatchesMetadata semantics the rewriter
  /// uses, so authentication and enforcement can never disagree about who
  /// a policy addresses. Takes the state gate shared (the server's HELLO
  /// check runs on the general lane).
  bool IsKnownSubject(const QueryMetadata& md) const;

  /// The shared prepared-rewrite cache (benches/tests: Clear() emulates
  /// wholesale invalidation for comparison runs).
  RewriteCache& rewrite_cache() { return rewrite_cache_; }

  /// The enforcement audit log. Sessions Append to it during execution
  /// (leaf-locked); use FlushAuditLog — not AuditLog::Flush directly — to
  /// materialize pending records into the queryable `sieve_audit` table.
  AuditLog& audit_log() { return audit_log_; }

  /// Drains pending audit records into the `sieve_audit` engine table
  /// under the exclusive state lock (no query may scan the table
  /// mid-insert). Sessions call this automatically before executing any
  /// query that reads `sieve_audit`, so `SELECT ... FROM sieve_audit`
  /// through the middleware always sees a complete trail.
  Status FlushAuditLog();

  Database& db() { return *db_; }
  PolicyStore& policies() { return policies_; }
  GuardStore& guards() { return guards_; }
  CostModel& cost_model() { return cost_; }
  QueryRewriter& rewriter() { return rewriter_; }
  DynamicPolicyManager& dynamics() { return dynamics_; }
  /// Options snapshot. Do not call concurrently with set_options.
  const SieveOptions& options() const { return options_; }

 private:
  friend class SieveSession;
  friend class PreparedQuery;
  friend class ResultCursor;

  Database* db_;
  const GroupResolver* resolver_;
  SieveOptions options_;
  CostModel cost_;
  PolicyStore policies_;
  GuardStore guards_;
  QueryRewriter rewriter_;
  DynamicPolicyManager dynamics_;
  RewriteCache rewrite_cache_;
  AuditLog audit_log_;
  /// Readers: executions and open cursors. Writers: policy/guard/options
  /// mutations and cache-miss rewrites. See the class comment. A
  /// SharedGate (not a shared_mutex) so a cursor's pin can be released
  /// from a different thread than acquired it — the server multiplexes
  /// one connection's requests across workers and tears connections down
  /// from its reaper path.
  mutable SharedGate state_mu_;
};

}  // namespace sieve

#endif  // SIEVE_SIEVE_MIDDLEWARE_H_
