#ifndef SIEVE_SIEVE_SESSION_H_
#define SIEVE_SIEVE_SESSION_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "sieve/middleware.h"
#include "sieve/rewrite_cache.h"

namespace sieve {

/// Streaming result of one prepared-query execution: rows are pulled in
/// chunks through Next instead of materializing a full ResultSet, reusing
/// the engine's partition machinery (serial executions stream; parallel
/// ones buffer once and serve slices — rows and order are identical).
///
/// An open cursor pins the policy corpus it was opened under: it holds the
/// middleware's state lock shared, so AddPolicy/set_options block until
/// the cursor finishes. The pin is released as soon as the stream ends —
/// exhaustion, a sticky execution error, Close(), or destruction,
/// whichever comes first — so a finished cursor may outlive its scope
/// without blocking writers.
///
/// IMPORTANT — while a cursor is live (opened, not yet finished), its
/// owner must not call back into the middleware: no Prepare of new SQL
/// (a cache miss takes the state lock exclusively and would wait forever
/// on this cursor's own pin), no AddPolicy/set_options, and no concurrent
/// Execute or second cursor (recursive shared acquisition of the state
/// gate deadlocks once a writer queues). Drain the cursor or Close() it
/// first; interleaving work belongs in a different session. Use from one
/// thread at a time, but not thread-affine: the pin is a SharedGate
/// token, so a cursor may be handed between threads (opened by one server
/// worker, fetched by another, torn down by the reaper) — exactly what
/// the network front-end does. Movable.
class ResultCursor {
 public:
  static constexpr size_t kDefaultBatchRows = 1024;

  ResultCursor(ResultCursor&&) = default;
  ResultCursor& operator=(ResultCursor&& other) {
    if (this != &other) {
      Finish();
      epoch_lock_ = std::move(other.epoch_lock_);
      metadata_ = std::move(other.metadata_);
      bound_stmt_ = std::move(other.bound_stmt_);
      cursor_ = std::move(other.cursor_);
      audit_ = other.audit_;
      audit_record_ = std::move(other.audit_record_);
    }
    return *this;
  }
  /// A dropped cursor still finishes its audit record (stats as of the
  /// last Next) — every execution leaves exactly one audit entry.
  ~ResultCursor() { Finish(); }

  const Schema& schema() const { return cursor_->schema(); }

  /// Appends up to `max_rows` (> 0) rows to *batch (not cleared).
  /// Returns true when rows were appended, false once exhausted.
  /// Execution errors are sticky.
  Result<bool> Next(std::vector<Row>* batch,
                    size_t max_rows = kDefaultBatchRows) {
    auto more = cursor_->Next(batch, max_rows);
    if (cursor_->exhausted()) Finish();
    return more;
  }

  /// Pulls everything remaining into a ResultSet (stats finalized).
  Result<ResultSet> Drain() {
    auto result = cursor_->Drain();
    Finish();
    return result;
  }

  /// Abandons the rest of the stream and releases the epoch pin early —
  /// the LIMIT-style exit: read the first rows, Close(), then resume
  /// normal session work. The cursor only reports exhaustion afterwards;
  /// stats() keeps the totals accumulated so far.
  void Close() {
    cursor_->Abandon();
    Finish();
  }

  bool exhausted() const { return cursor_->exhausted(); }
  /// Counter totals so far; final — and byte-identical to a one-shot
  /// Execute of the same query — once exhausted() is true.
  const ExecStats& stats() const { return cursor_->stats(); }

  /// Shrinks the remaining execution budget so the stream times out at
  /// most `seconds_from_now` from this call; never extends it. Backs the
  /// per-FETCH wire deadline (see server/wire.h).
  void TightenDeadline(double seconds_from_now) {
    cursor_->TightenDeadline(seconds_from_now);
  }

 private:
  friend class PreparedQuery;
  ResultCursor(std::shared_lock<SharedGate> epoch_lock,
               std::unique_ptr<QueryMetadata> metadata, SelectStmtPtr bound,
               std::unique_ptr<QueryCursor> cursor, AuditLog* audit,
               std::unique_ptr<AuditRecord> audit_record)
      : epoch_lock_(std::move(epoch_lock)),
        metadata_(std::move(metadata)),
        bound_stmt_(std::move(bound)),
        cursor_(std::move(cursor)),
        audit_(audit),
        audit_record_(std::move(audit_record)) {}

  /// First finish wins (exhaustion, Drain, Close or destruction): stamps
  /// the cursor's final ExecStats totals into the pending audit record,
  /// appends it (leaf lock — safe while still holding the epoch pin
  /// shared), then releases the pin.
  void Finish() {
    if (audit_record_ != nullptr) {  // null once finished or moved from
      const ExecStats& s = cursor_->stats();
      audit_record_->rows_out = static_cast<int64_t>(s.rows_output);
      audit_record_->comparisons = static_cast<int64_t>(s.comparisons);
      audit_record_->policy_evals = static_cast<int64_t>(s.policy_evals);
      audit_->Append(std::move(*audit_record_));
    }
    audit_record_.reset();
    if (epoch_lock_.owns_lock()) epoch_lock_.unlock();
  }

  std::shared_lock<SharedGate> epoch_lock_;  // pins the policy epoch
  std::unique_ptr<QueryMetadata> metadata_;         // referenced by cursor_
  SelectStmtPtr bound_stmt_;                        // keeps the plan's source alive
  std::unique_ptr<QueryCursor> cursor_;
  AuditLog* audit_ = nullptr;
  std::unique_ptr<AuditRecord> audit_record_;  // pending until Finish
};

/// A query prepared once through SieveSession::Prepare: parsed, rewritten
/// against the querier's policies and cached, ready to execute repeatedly
/// with different parameter bindings. Holds an immutable snapshot of the
/// rewrite; when a policy or guard mutation moves one of the version
/// counters the snapshot read — a grant reaching its querier, its own
/// guards, the protection of a table it reads — the snapshot is stale and
/// the next Execute transparently re-prepares (through the shared cache).
/// Mutations on other queriers' keys leave the snapshot valid, so results
/// always reflect a consistent policy corpus without paying for unrelated
/// churn.
///
/// Single-threaded like its session; movable. Results are byte-identical
/// — rows, row order and ExecStats — to a one-shot
/// SieveMiddleware::Execute of the same SQL with literals in place of
/// parameters bound to the same values.
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;

  /// Executes with positional bindings: params[i] replaces slot i (each
  /// `?` in parse order; every occurrence of one `:name` shares a slot).
  /// Requires exactly parameter_count() values; binding NULL is allowed
  /// and compares as SQL NULL (matches nothing).
  ///
  /// `deadline_seconds` > 0 caps this execution's time budget: the
  /// effective timeout is the smaller of it and the middleware's
  /// configured SieveOptions::timeout_seconds, and overrunning it returns
  /// Status::Timeout like any other query timeout. 0 keeps the configured
  /// budget. This is how a per-request wire deadline reaches the
  /// ExecContext timeout epoch.
  Result<ResultSet> Execute(const std::vector<Value>& params = {},
                            double deadline_seconds = 0.0);

  /// Executes with named bindings. Every slot must carry a name (prepare
  /// with `:name` placeholders, not `?`); names are case-insensitive, and
  /// unknown or duplicate names are errors.
  Result<ResultSet> ExecuteNamed(
      const std::vector<std::pair<std::string, Value>>& named);

  /// Opens a streaming cursor instead of materializing the result. The
  /// cursor blocks policy mutations while open — see ResultCursor.
  /// `deadline_seconds` caps the stream's total budget exactly as in
  /// Execute (the cursor's clock starts at open and keeps running between
  /// Next calls); ResultCursor::TightenDeadline can shrink it further.
  Result<ResultCursor> OpenCursor(const std::vector<Value>& params = {},
                                  double deadline_seconds = 0.0);

  /// Number of parameter slots in the prepared statement.
  size_t parameter_count() const { return rewrite_->params.size(); }
  /// Slot names in slot order: lower-cased for `:name`, "" for `?`.
  const std::vector<std::string>& parameter_names() const {
    return rewrite_->params;
  }

  /// Whitespace-normalized original SQL.
  const std::string& sql() const { return rewrite_->normalized_sql; }
  /// Rewrite snapshot this query currently executes (diagnostics: per-table
  /// strategy, default-deny flag, rewritten SQL). Refreshed when an
  /// Execute finds the snapshot stale.
  std::shared_ptr<const PreparedRewrite> rewrite() const { return rewrite_; }
  const QueryMetadata& metadata() const { return md_; }

 private:
  friend class SieveSession;
  PreparedQuery(SieveMiddleware* middleware, QueryMetadata md,
                std::shared_ptr<const PreparedRewrite> rewrite, bool from_cache)
      : mw_(middleware),
        md_(std::move(md)),
        rewrite_(std::move(rewrite)),
        next_cache_(from_cache ? AuditCacheState::kHit
                               : AuditCacheState::kMiss) {}

  /// Re-prepares against the current policy corpus (authoritative: takes
  /// the middleware's writer lock on a cache miss).
  Status Refresh();
  /// Maps named bindings onto the positional signature.
  Result<std::vector<Value>> ResolveNamed(
      const std::vector<std::pair<std::string, Value>>& named) const;
  /// Flushes pending audit records before executing a query that reads
  /// `sieve_audit` (before taking the shared state lock, to avoid a
  /// shared→exclusive upgrade).
  Status MaybeFlushAuditReads();
  /// Cache disposition of the execution about to run: kRefresh when this
  /// Execute re-prepared a stale snapshot (`refreshed`), else the pending
  /// state — kMiss on the first run of a freshly rewritten snapshot, kHit
  /// afterwards.
  AuditCacheState TakeCacheState(bool refreshed) {
    AuditCacheState s =
        refreshed ? AuditCacheState::kRefresh : next_cache_;
    next_cache_ = AuditCacheState::kHit;
    return s;
  }

  SieveMiddleware* mw_;
  QueryMetadata md_;
  std::shared_ptr<const PreparedRewrite> rewrite_;
  /// Audit attribution of the next execution (see TakeCacheState).
  AuditCacheState next_cache_ = AuditCacheState::kMiss;
};

/// One querier's connection to the middleware (Section 5 casts Sieve as a
/// middleware in front of the DBMS; the session is the unit a connection
/// pool hands out). Sessions are cheap — a pointer and the querier's
/// metadata — so a server creates one per connection; any number may
/// prepare and execute concurrently against one SieveMiddleware, sharing
/// its rewrite cache.
///
/// Use one session (and its prepared queries) from one thread at a time.
class SieveSession {
 public:
  SieveSession(SieveMiddleware* middleware, QueryMetadata md)
      : mw_(middleware), md_(std::move(md)) {}

  /// Parses and rewrites `sql` once (served from the shared RewriteCache
  /// when the same querier prepared the same normalized SQL and the cached
  /// rewrite is not stale). `?` and `:name` placeholders become parameter
  /// slots bound at Execute time. kAccessDenied when a scalar subquery
  /// written in `sql` reads a protected table.
  Result<PreparedQuery> Prepare(const std::string& sql);

  /// Prepare + Execute in one call (still cache-amortized).
  Result<ResultSet> Execute(const std::string& sql,
                            const std::vector<Value>& params = {});

  const QueryMetadata& metadata() const { return md_; }
  SieveMiddleware& middleware() { return *mw_; }

 private:
  friend class PreparedQuery;

  /// Cache-through rewrite: optimistic lock-free lookup, then the
  /// authoritative path under the middleware's writer lock (rewriting may
  /// regenerate outdated guards, which mutates the guard store). Sets
  /// *from_cache (when non-null) to whether the rewrite was served from
  /// the shared cache rather than freshly produced — the audit log's
  /// hit/miss attribution.
  static Result<std::shared_ptr<const PreparedRewrite>> PrepareRewrite(
      SieveMiddleware* mw, const QueryMetadata& md,
      const std::string& normalized_sql, bool optimistic,
      bool* from_cache = nullptr);

  SieveMiddleware* mw_;
  QueryMetadata md_;
};

}  // namespace sieve

#endif  // SIEVE_SIEVE_SESSION_H_
