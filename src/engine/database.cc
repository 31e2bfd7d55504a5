#include "engine/database.h"

#include "common/string_util.h"
#include "parser/parser.h"

namespace sieve {

Status Database::CreateTable(const std::string& name, Schema schema) {
  return catalog_.CreateTable(name, std::move(schema));
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& column) {
  SIEVE_ASSIGN_OR_RETURN(TableEntry * entry, catalog_.Get(table));
  return entry->indexes.CreateIndex(*entry->table, column);
}

Result<RowId> Database::Insert(const std::string& table, Row row) {
  SIEVE_ASSIGN_OR_RETURN(TableEntry * entry, catalog_.Get(table));
  SIEVE_ASSIGN_OR_RETURN(RowId id, entry->table->Insert(std::move(row)));
  entry->indexes.OnInsert(entry->table->Get(id), id);
  return id;
}

Status Database::Delete(const std::string& table, RowId id) {
  SIEVE_ASSIGN_OR_RETURN(TableEntry * entry, catalog_.Get(table));
  if (entry->table->IsLive(id)) {
    entry->indexes.OnDelete(entry->table->Get(id), id);
  }
  return entry->table->Delete(id);
}

Status Database::Analyze() {
  for (const std::string& name : catalog_.TableNames()) {
    TableEntry* entry = catalog_.Find(name);
    entry->indexes.RefreshStatistics();
  }
  return Status::OK();
}

Result<ResultSet> Database::ExecuteSql(const std::string& sql,
                                       const QueryMetadata* metadata,
                                       double timeout_seconds,
                                       int num_threads, int batch_size) {
  SIEVE_ASSIGN_OR_RETURN(SelectStmtPtr stmt, Parser::Parse(sql));
  return ExecuteStmt(*stmt, metadata, timeout_seconds, num_threads,
                     batch_size);
}

ThreadPool* Database::EnsurePool(size_t num_threads) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pools_.empty() || pools_.back()->size() < num_threads) {
    pools_.push_back(std::make_unique<ThreadPool>(num_threads));
  }
  return pools_.back().get();
}

Result<ResultSet> Database::ExecuteStmt(const SelectStmt& stmt,
                                        const QueryMetadata* metadata,
                                        double timeout_seconds,
                                        int num_threads, int batch_size) {
  SIEVE_ASSIGN_OR_RETURN(
      std::unique_ptr<QueryCursor> cursor,
      OpenCursor(stmt, metadata, timeout_seconds, num_threads, batch_size));
  return cursor->Drain();
}

Result<std::unique_ptr<QueryCursor>> Database::OpenCursor(
    const SelectStmt& stmt, const QueryMetadata* metadata,
    double timeout_seconds, int num_threads, int batch_size) {
  // The context (and with it the timeout epoch) is created before planning
  // so planning time counts against the query budget, as it always has.
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.hooks = this;
  ctx.metadata = metadata;
  ctx.timeout_seconds = timeout_seconds;
  // 0 = adaptive per-operator sizing (see EffectiveBatchSize); negatives
  // clamp to capacity-1 batches.
  ctx.batch_size = batch_size < 0 ? 1 : batch_size;
  if (num_threads > 1) {
    ctx.num_threads = num_threads;
    ctx.pool = EnsurePool(static_cast<size_t>(num_threads));
  }
  Optimizer optimizer(&catalog_, &profile_);
  SIEVE_ASSIGN_OR_RETURN(PlannedQuery plan, optimizer.Plan(stmt));
  return QueryCursor::Open(std::move(plan), ctx);
}

Result<ExplainInfo> Database::ExplainSql(const std::string& sql) {
  SIEVE_ASSIGN_OR_RETURN(SelectStmtPtr stmt, Parser::Parse(sql));
  return ExplainStmt(*stmt);
}

Result<ExplainInfo> Database::ExplainStmt(const SelectStmt& stmt) {
  Optimizer optimizer(&catalog_, &profile_);
  SIEVE_ASSIGN_OR_RETURN(PlannedQuery plan, optimizer.Plan(stmt));
  return plan.explain;
}

double Database::EstimateSelectivity(const std::string& table,
                                     const Expr& predicate) {
  Optimizer optimizer(&catalog_, &profile_);
  return optimizer.EstimatePredicateSelectivity(table, predicate);
}

namespace {

// Inner scope of a subquery: concatenation of the (qualified) schemas of
// every base table / CTE named in its FROM list. Used to decide which
// column refs are correlated (outer) references.
Schema InnerScopeSchema(const SelectStmt& stmt, Catalog* catalog) {
  Schema inner;
  for (const auto& ref : stmt.from) {
    if (ref.subquery != nullptr) continue;  // conservatively ignored
    const TableEntry* entry = catalog->Find(ref.table_name);
    if (entry == nullptr) continue;
    Schema qualified =
        QualifySchema(entry->table->schema(), ref.EffectiveName());
    for (const auto& col : qualified.columns()) inner.AddColumn(col);
  }
  return inner;
}

// Recursively replaces outer references in-place.
void SubstituteExpr(ExprPtr* slot, const Schema& inner,
                    const Schema& outer_schema, const Row& outer_row) {
  Expr* e = slot->get();
  switch (e->kind()) {
    case ExprKind::kColumnRef: {
      auto* ref = static_cast<ColumnRefExpr*>(e);
      ExprPtr probe = ref->Clone();
      static_cast<ColumnRefExpr*>(probe.get())->set_bound_index(-1);
      if (BindExpr(probe.get(), inner).ok()) return;  // resolves inside
      ExprPtr outer_probe = ref->Clone();
      auto* op = static_cast<ColumnRefExpr*>(outer_probe.get());
      op->set_bound_index(-1);
      if (BindExpr(outer_probe.get(), outer_schema).ok()) {
        Value v = outer_row[static_cast<size_t>(op->bound_index())];
        *slot = MakeLiteral(std::move(v));
      }
      return;
    }
    case ExprKind::kComparison: {
      auto* c = static_cast<ComparisonExpr*>(e);
      SubstituteExpr(&c->mutable_left(), inner, outer_schema, outer_row);
      SubstituteExpr(&c->mutable_right(), inner, outer_schema, outer_row);
      return;
    }
    case ExprKind::kBetween: {
      auto* b = static_cast<BetweenExpr*>(e);
      SubstituteExpr(&b->mutable_input(), inner, outer_schema, outer_row);
      SubstituteExpr(&b->mutable_lo(), inner, outer_schema, outer_row);
      SubstituteExpr(&b->mutable_hi(), inner, outer_schema, outer_row);
      return;
    }
    case ExprKind::kInList: {
      auto* in = static_cast<InListExpr*>(e);
      SubstituteExpr(&in->mutable_input(), inner, outer_schema, outer_row);
      for (auto& item : in->mutable_items()) {
        SubstituteExpr(&item, inner, outer_schema, outer_row);
      }
      return;
    }
    case ExprKind::kAnd:
      for (auto& c : static_cast<AndExpr*>(e)->mutable_children()) {
        SubstituteExpr(&c, inner, outer_schema, outer_row);
      }
      return;
    case ExprKind::kOr:
      for (auto& c : static_cast<OrExpr*>(e)->mutable_children()) {
        SubstituteExpr(&c, inner, outer_schema, outer_row);
      }
      return;
    case ExprKind::kNot:
      SubstituteExpr(&static_cast<NotExpr*>(e)->mutable_child(), inner,
                     outer_schema, outer_row);
      return;
    case ExprKind::kUdfCall:
      for (auto& a : static_cast<UdfCallExpr*>(e)->mutable_args()) {
        SubstituteExpr(&a, inner, outer_schema, outer_row);
      }
      return;
    default:
      return;
  }
}

}  // namespace

Status Database::SubstituteOuterRefs(SelectStmt* stmt,
                                     const Schema& outer_schema,
                                     const Row& outer_row) {
  Schema inner = InnerScopeSchema(*stmt, &catalog_);
  SelectStmt* current = stmt;
  while (current != nullptr) {
    if (current->where != nullptr) {
      SubstituteExpr(&current->where, inner, outer_schema, outer_row);
    }
    current = current->union_next.get();
  }
  return Status::OK();
}

Result<Value> Database::EvalScalarSubquery(const std::string& sql,
                                           const Schema& outer_schema,
                                           const Row& outer_row,
                                           const QueryMetadata* metadata,
                                           ExecStats* stats) {
  SIEVE_ASSIGN_OR_RETURN(SelectStmtPtr stmt, Parser::Parse(sql));
  SIEVE_RETURN_IF_ERROR(SubstituteOuterRefs(stmt.get(), outer_schema, outer_row));

  Optimizer optimizer(&catalog_, &profile_);
  SIEVE_ASSIGN_OR_RETURN(PlannedQuery plan, optimizer.Plan(*stmt));
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.hooks = this;
  ctx.metadata = metadata;
  ctx.stats = stats;
  SIEVE_ASSIGN_OR_RETURN(ResultSet result, Executor::Run(&plan, &ctx));
  if (result.rows.empty()) return Value::Null();
  if (result.schema.num_columns() != 1) {
    return Status::ExecutionError(
        "scalar subquery must produce exactly one column: " + sql);
  }
  return result.rows.front().front();
}

Result<Value> Database::CallUdf(const std::string& name,
                                const std::vector<Value>& args,
                                const Schema& schema, const Row& row,
                                const QueryMetadata* metadata,
                                ExecStats* stats) {
  const UdfFn* fn = udfs_.Find(name);
  if (fn == nullptr) {
    return Status::NotFound("no such UDF: " + name);
  }
  if (stats != nullptr) ++stats->udf_invocations;
  // Simulate the UDF calling-convention boundary of a real DBMS: the tuple's
  // attributes are marshalled into the UDF ABI, plus fixed dispatch
  // overhead (see EngineProfile::udf_invocation_spin).
  {
    size_t sink = 0;
    for (const Value& v : row) sink ^= v.Hash();
    for (int i = 0; i < profile_.udf_invocation_spin; ++i) {
      sink = sink * 1099511628211ULL + 0x9e3779b9;
    }
    // Relaxed atomic: concurrent partitions all funnel through this sink;
    // it only needs to defeat dead-code elimination, not order anything.
    benchmark_sink_.fetch_add(sink, std::memory_order_relaxed);
  }
  UdfContext ctx;
  ctx.db = this;
  ctx.schema = &schema;
  ctx.row = &row;
  ctx.metadata = metadata;
  ctx.stats = stats;
  return (*fn)(args, ctx);
}

}  // namespace sieve
