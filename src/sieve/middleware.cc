#include "sieve/middleware.h"

#include <functional>
#include <mutex>
#include <shared_mutex>

#include "common/string_util.h"
#include "parser/parser.h"
#include "sieve/delta.h"
#include "sieve/session.h"

namespace sieve {

namespace {

// Calls `fn` on every base-table reference in the FROM lists of `stmt`'s
// UNION arms and, recursively, of its derived tables. CTE bodies are not
// visited.
void ForEachBaseTableRef(SelectStmt* stmt,
                         const std::function<void(TableRef*)>& fn) {
  for (SelectStmt* arm = stmt; arm != nullptr; arm = arm->union_next.get()) {
    for (auto& ref : arm->from) {
      if (ref.subquery != nullptr) {
        ForEachBaseTableRef(ref.subquery.get(), fn);
      } else {
        fn(&ref);
      }
    }
  }
}

}  // namespace

SieveMiddleware::~SieveMiddleware() {
  // No sessions may be live at destruction, so the gate is uncontended;
  // a failed flush has nowhere to report — the records count as unflushed
  // for whatever outlives the log (nothing does, but the attempt is what
  // keeps the normal shutdown path lossless).
  if (audit_log_.pending() > 0) {
    [[maybe_unused]] Status flushed = FlushAuditLog();
  }
}

Status SieveMiddleware::Init() {
  SIEVE_RETURN_IF_ERROR(policies_.Init());
  SIEVE_RETURN_IF_ERROR(guards_.Init());
  SIEVE_RETURN_IF_ERROR(audit_log_.Init());
  if (!db_->udfs().Contains(kDeltaUdfName)) {
    SIEVE_RETURN_IF_ERROR(RegisterDeltaUdf(db_, &guards_));
  }
  dynamics_.set_mode(options_.regeneration_mode);
  return Status::OK();
}

Result<int64_t> SieveMiddleware::AddPolicy(Policy policy) {
  // Exclusive: waits for in-flight executions/cursors, then mutates the
  // stores, whose bumped counters stale the cached rewrites that read them.
  std::unique_lock<SharedGate> lock(state_mu_);
  return dynamics_.InsertPolicy(std::move(policy));
}

Status SieveMiddleware::set_options(const SieveOptions& options) {
  if (options.num_threads < 1) {
    return Status::InvalidArgument(
        StrFormat("num_threads must be >= 1, got %d", options.num_threads));
  }
  if (options.timeout_seconds < 0.0) {
    return Status::InvalidArgument(
        StrFormat("timeout_seconds must be >= 0, got %g",
                  options.timeout_seconds));
  }
  if (options.batch_size < 0) {
    return Status::InvalidArgument(
        StrFormat("batch_size must be >= 0 (0 = adaptive), got %d",
                  options.batch_size));
  }
  if (options.audit_max_rows < 0) {
    return Status::InvalidArgument(
        StrFormat("audit_max_rows must be >= 0 (0 = unbounded), got %lld",
                  static_cast<long long>(options.audit_max_rows)));
  }
  std::unique_lock<SharedGate> lock(state_mu_);
  options_ = options;
  dynamics_.set_mode(options.regeneration_mode);
  audit_log_.set_max_table_rows(static_cast<size_t>(options.audit_max_rows));
  return Status::OK();
}

bool SieveMiddleware::IsKnownSubject(const QueryMetadata& md) const {
  // Shared: only reads the corpus, but must not observe a torn mutation.
  std::shared_lock<SharedGate> lock(state_mu_);
  for (const Policy& p : policies_.policies()) {
    if (GrantMatchesMetadata(p.querier, p.purpose, md, resolver_)) return true;
  }
  return false;
}

Status SieveMiddleware::FlushAuditLog() {
  // Exclusive: Flush inserts into the sieve_audit engine table, which must
  // not interleave with executions scanning it (same contract as policy
  // catalog mutations).
  std::unique_lock<SharedGate> lock(state_mu_);
  return audit_log_.Flush();
}

Result<RewriteResult> SieveMiddleware::Rewrite(const std::string& sql,
                                               const QueryMetadata& md) {
  // Exclusive: rewriting may regenerate outdated guards (a GuardStore
  // mutation), which must not run concurrently with executions reading
  // guard state through the Δ UDF.
  std::unique_lock<SharedGate> lock(state_mu_);
  return rewriter_.RewriteSql(sql, md);
}

Result<ResultSet> SieveMiddleware::Execute(const std::string& sql,
                                           const QueryMetadata& md) {
  SieveSession session(this, md);
  return session.Execute(sql);
}

Result<ResultSet> SieveMiddleware::ExecuteReference(const std::string& sql,
                                                    const QueryMetadata& md) {
  // Shared: the reference rewrite only reads the policy corpus, and the
  // execution must not interleave with policy mutations (same consistency
  // contract as the Sieve path, so differential tests compare like with
  // like). Intentionally skips dynamics_.ObserveQuery(): the oracle must
  // not perturb the r_pq bookkeeping of the workload under test.
  std::shared_lock<SharedGate> lock(state_mu_);
  SIEVE_ASSIGN_OR_RETURN(SelectStmtPtr stmt, Parser::Parse(sql));
  SelectStmtPtr rewritten = stmt->Clone();

  // Collect protected tables referenced by the query, derived tables
  // included.
  std::vector<std::string> tables;
  ForEachBaseTableRef(rewritten.get(), [&](TableRef* ref) {
    bool has_policy = false;
    for (const Policy& p : policies_.policies()) {
      if (EqualsIgnoreCase(p.table_name, ref->table_name)) {
        has_policy = true;
        break;
      }
    }
    if (!has_policy) return;
    bool seen = false;
    for (const auto& t : tables) {
      if (EqualsIgnoreCase(t, ref->table_name)) seen = true;
    }
    if (!seen) tables.push_back(ref->table_name);
  });

  for (const std::string& table : tables) {
    std::vector<const Policy*> relevant =
        policies_.FilterByMetadata(md, table, resolver_);
    auto cte_body = std::make_shared<SelectStmt>();
    cte_body->select_star = true;
    TableRef base;
    base.table_name = table;
    cte_body->from.push_back(base);
    if (relevant.empty()) {
      cte_body->where = MakeLiteral(Value::Bool(false));
    } else {
      std::vector<ExprPtr> policy_exprs;
      policy_exprs.reserve(relevant.size());
      for (const Policy* p : relevant) policy_exprs.push_back(p->ObjectExpr());
      cte_body->where = MakeOr(std::move(policy_exprs));
    }
    std::string cte_name = "sieve_ref_" + ToLower(table);
    rewritten->ctes.push_back({cte_name, cte_body});
    ForEachBaseTableRef(rewritten.get(), [&](TableRef* ref) {
      if (!EqualsIgnoreCase(ref->table_name, table)) return;
      if (ref->alias.empty()) ref->alias = ref->table_name;
      ref->table_name = cte_name;
      ref->hint = IndexHint{};
    });
  }
  return db_->ExecuteStmt(*rewritten, &md, options_.timeout_seconds,
                          options_.num_threads, options_.batch_size);
}

}  // namespace sieve
