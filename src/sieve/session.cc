#include "sieve/session.h"

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "parser/parser.h"

namespace sieve {

namespace {

/// Writer-vs-reader livelock guard: an Execute retries when a policy
/// writer staled its freshly re-prepared snapshot before the staleness
/// re-check. Each retry re-prepares authoritatively, so this bound is only
/// reachable under a pathological back-to-back AddPolicy storm targeting
/// this query's own dependency keys.
constexpr int kMaxRefreshRetries = 100;

// Clones the rewrite template and substitutes the positional parameters.
// The clone is what executes — the shared template is never mutated, so
// concurrent sessions can execute the same cached rewrite.
Result<SelectStmtPtr> BindTemplate(const PreparedRewrite& rewrite,
                                   const std::vector<Value>& params) {
  if (params.size() != rewrite.params.size()) {
    return Status::InvalidArgument(
        StrFormat("query expects %zu parameter(s), got %zu",
                  rewrite.params.size(), params.size()));
  }
  SelectStmtPtr bound = rewrite.stmt->Clone();
  SIEVE_RETURN_IF_ERROR(BindParameters(bound.get(), params));
  return bound;
}

// The version counters a rewrite of `md` over `tables` depended on: per
// table the grant keys GrantKeysFor(md) reaches, the querier's own guard
// key and the table's protection counter, plus the corpus reload counter.
std::vector<VersionSnapshot> SnapshotVersions(
    PolicyStore& policies, GuardStore& guards, const GroupResolver* resolver,
    const QueryMetadata& md, const std::vector<std::string>& tables) {
  std::vector<VersionSnapshot> out{
      VersionSnapshot::Of(policies.ReloadVersion())};
  const auto grant_keys = GrantKeysFor(md, resolver);
  for (const std::string& table : tables) {
    out.push_back(VersionSnapshot::Of(policies.ProtectionVersion(table)));
    for (const auto& [querier, purpose] : grant_keys) {
      out.push_back(
          VersionSnapshot::Of(policies.GrantVersion(querier, purpose, table)));
    }
    out.push_back(VersionSnapshot::Of(
        guards.GuardVersion(md.querier, md.purpose, table)));
  }
  return out;
}

// Per-request deadline folded into the configured budget: the effective
// timeout is whichever is tighter (0 means "no bound" on either side).
double EffectiveTimeout(double configured, double deadline_seconds) {
  if (deadline_seconds <= 0.0) return configured;
  if (configured <= 0.0 || deadline_seconds < configured) {
    return deadline_seconds;
  }
  return configured;
}

}  // namespace

Result<std::shared_ptr<const PreparedRewrite>> SieveSession::PrepareRewrite(
    SieveMiddleware* mw, const QueryMetadata& md,
    const std::string& normalized_sql, bool optimistic, bool* from_cache) {
  const std::string key = RewriteCache::MakeKey(
      md.querier, md.purpose, mw->db_->profile().name(), normalized_sql);
  if (from_cache != nullptr) *from_cache = true;

  if (optimistic) {
    // Lock-free fast path. Non-authoritative: a hit is only a hint —
    // Execute re-validates the entry under the shared state lock before
    // running it — and its miss is not recorded; the authoritative retry
    // below counts it.
    if (auto hit = mw->rewrite_cache_.Lookup(key, /*authoritative=*/false)) {
      return hit;
    }
  }

  // Authoritative path: the writer lock both excludes policy mutations and
  // allows EnsureGuards to regenerate outdated guards (a GuardStore
  // mutation) while no query is executing.
  std::unique_lock<SharedGate> lock(mw->state_mu_);
  if (auto hit = mw->rewrite_cache_.Lookup(key)) {
    return hit;
  }
  if (from_cache != nullptr) *from_cache = false;

  // Chaos hook: a cache-miss rewrite failing under the writer lock must
  // release the gate cleanly and leave cache/guard state untouched (the
  // point sits before any mutation).
  if (SIEVE_FAULT_POINT("mw.rewrite.fail")) {
    return SIEVE_INJECT_FAULT("mw.rewrite.fail");
  }

  SIEVE_ASSIGN_OR_RETURN(SelectStmtPtr stmt, Parser::Parse(normalized_sql));
  auto entry = std::make_shared<PreparedRewrite>();
  SIEVE_ASSIGN_OR_RETURN(entry->params, CollectParameterSlots(*stmt));
  // Dependency tables, from the *original* statement before rewriting (the
  // rewrite replaces table refs with CTEs).
  for (const std::string& table : CollectReferencedTables(*stmt)) {
    entry->dep_tables.push_back(ToLower(table));
  }
  SIEVE_ASSIGN_OR_RETURN(RewriteResult rewrite,
                         mw->rewriter_.Rewrite(*stmt, md));
  entry->normalized_sql = normalized_sql;
  entry->stmt = std::move(rewrite.stmt);
  entry->rewritten_sql = std::move(rewrite.sql);
  entry->tables = std::move(rewrite.tables);
  entry->default_denied = rewrite.default_denied;
  // Snapshot *after* the rewrite: regenerating guards bumped this
  // querier's guard keys, which must not stale the rewrite that did it.
  // Nothing moves in between — every mutation needs this same lock.
  entry->versions = SnapshotVersions(mw->policies_, mw->guards_,
                                     mw->resolver_, md, entry->dep_tables);
  mw->rewrite_cache_.Insert(key, entry);
  return std::shared_ptr<const PreparedRewrite>(std::move(entry));
}

Result<PreparedQuery> SieveSession::Prepare(const std::string& sql) {
  bool from_cache = false;
  SIEVE_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedRewrite> rewrite,
      PrepareRewrite(mw_, md_, NormalizeSql(sql), /*optimistic=*/true,
                     &from_cache));
  return PreparedQuery(mw_, md_, std::move(rewrite), from_cache);
}

Result<ResultSet> SieveSession::Execute(const std::string& sql,
                                        const std::vector<Value>& params) {
  SIEVE_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(sql));
  return prepared.Execute(params);
}

Status PreparedQuery::Refresh() {
  SIEVE_ASSIGN_OR_RETURN(
      rewrite_, SieveSession::PrepareRewrite(mw_, md_, rewrite_->normalized_sql,
                                             /*optimistic=*/false));
  return Status::OK();
}

Result<std::vector<Value>> PreparedQuery::ResolveNamed(
    const std::vector<std::pair<std::string, Value>>& named) const {
  const std::vector<std::string>& slots = rewrite_->params;
  std::vector<Value> positional(slots.size(), Value::Null());
  std::vector<bool> bound(slots.size(), false);
  for (const auto& [name, value] : named) {
    std::string key = ToLower(name);
    bool found = false;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i] != key) continue;
      if (bound[i]) {
        return Status::InvalidArgument("parameter :" + key + " bound twice");
      }
      positional[i] = value;
      bound[i] = true;
      found = true;
    }
    if (!found) {
      return Status::InvalidArgument("query has no parameter named :" + key);
    }
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    if (bound[i]) continue;
    if (slots[i].empty()) {
      return Status::InvalidArgument(
          "positional parameter ? (slot " + std::to_string(i) +
          ") cannot be bound by name; use Execute");
    }
    return Status::InvalidArgument("no binding for parameter :" + slots[i]);
  }
  return positional;
}

Status PreparedQuery::MaybeFlushAuditReads() {
  for (const std::string& table : rewrite_->dep_tables) {
    if (table == AuditLog::kTableName) return mw_->FlushAuditLog();
  }
  return Status::OK();
}

Result<ResultSet> PreparedQuery::Execute(const std::vector<Value>& params,
                                         double deadline_seconds) {
  // Queries over the audit trail see every prior enforcement decision:
  // drain the pending ring into sieve_audit first (exclusive lock — must
  // happen before we take the state lock shared below).
  SIEVE_RETURN_IF_ERROR(MaybeFlushAuditReads());
  for (int attempt = 0; attempt < kMaxRefreshRetries; ++attempt) {
    {
      std::shared_lock<SharedGate> lock(mw_->state_mu_);
      // Only a mutation of a counter *this* rewrite read stales it —
      // unrelated AddPolicy churn leaves the snapshot valid. Writers hold
      // the gate exclusively, so the verdict holds while we execute.
      if (!rewrite_->stale()) {
        SIEVE_ASSIGN_OR_RETURN(SelectStmtPtr bound,
                               BindTemplate(*rewrite_, params));
        mw_->dynamics_.ObserveQuery();
        const SieveOptions& opts = mw_->options_;
        auto result = mw_->db_->ExecuteStmt(
            *bound, &md_,
            EffectiveTimeout(opts.timeout_seconds, deadline_seconds),
            opts.num_threads, opts.batch_size);
        if (result.ok()) {
          // Leaf-locked append while still holding the state lock shared:
          // the record names exactly the policies/guards of the snapshot
          // this execution ran with.
          mw_->audit_log_.Append(
              AuditLog::MakeRecord(md_, *rewrite_, TakeCacheState(attempt > 0),
                                   result.value().stats));
        }
        return result;
      }
    }
    // A policy mutation outdated the snapshot; re-prepare and try again.
    SIEVE_RETURN_IF_ERROR(Refresh());
  }
  return Status::Internal(
      "prepared query could not observe a stable rewrite snapshot");
}

Result<ResultSet> PreparedQuery::ExecuteNamed(
    const std::vector<std::pair<std::string, Value>>& named) {
  SIEVE_ASSIGN_OR_RETURN(std::vector<Value> positional, ResolveNamed(named));
  return Execute(positional);
}

Result<ResultCursor> PreparedQuery::OpenCursor(
    const std::vector<Value>& params, double deadline_seconds) {
  SIEVE_RETURN_IF_ERROR(MaybeFlushAuditReads());
  for (int attempt = 0; attempt < kMaxRefreshRetries; ++attempt) {
    {
      std::shared_lock<SharedGate> lock(mw_->state_mu_);
      if (!rewrite_->stale()) {
        SIEVE_ASSIGN_OR_RETURN(SelectStmtPtr bound,
                               BindTemplate(*rewrite_, params));
        mw_->dynamics_.ObserveQuery();
        const SieveOptions& opts = mw_->options_;
        // The cursor owns its metadata copy: the engine context keeps a
        // pointer to it across Next calls, and the cursor may outlive
        // this PreparedQuery.
        auto md = std::make_unique<QueryMetadata>(md_);
        SIEVE_ASSIGN_OR_RETURN(
            std::unique_ptr<QueryCursor> cursor,
            mw_->db_->OpenCursor(
                *bound, md.get(),
                EffectiveTimeout(opts.timeout_seconds, deadline_seconds),
                opts.num_threads, opts.batch_size));
        // The audit record travels with the cursor and is appended once
        // the stream finishes, carrying the cursor's final stats.
        auto record = std::make_unique<AuditRecord>(AuditLog::MakeRecord(
            md_, *rewrite_, TakeCacheState(attempt > 0), ExecStats{}));
        // The shared lock transfers into the cursor: the policy corpus
        // stays pinned until the cursor is drained or destroyed.
        return ResultCursor(std::move(lock), std::move(md), std::move(bound),
                            std::move(cursor), &mw_->audit_log_,
                            std::move(record));
      }
    }
    SIEVE_RETURN_IF_ERROR(Refresh());
  }
  return Status::Internal(
      "prepared query could not observe a stable rewrite snapshot");
}

}  // namespace sieve
