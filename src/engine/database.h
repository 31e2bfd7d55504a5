#ifndef SIEVE_ENGINE_DATABASE_H_
#define SIEVE_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "engine/udf.h"
#include "expr/eval.h"
#include "parser/ast.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/profile.h"
#include "storage/catalog.h"

namespace sieve {

/// The embedded relational engine ("minidb") that plays the role of MySQL /
/// PostgreSQL underneath the Sieve middleware. One instance owns a catalog,
/// secondary indexes with histograms, a UDF registry and an engine profile
/// (MySQL-like honors index hints; PostgreSQL-like ignores hints and bitmap-
/// ORs index scans). All SQL enters through ExecuteSql/ExecuteStmt.
class Database : public EngineHooks {
 public:
  explicit Database(EngineProfile profile = EngineProfile::MySqlLike())
      : profile_(profile) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  UdfRegistry& udfs() { return udfs_; }
  const EngineProfile& profile() const { return profile_; }
  void set_profile(EngineProfile profile) { profile_ = profile; }

  // -------------------------------------------------------------------------
  // DDL / DML
  // -------------------------------------------------------------------------

  Status CreateTable(const std::string& name, Schema schema);
  Status CreateIndex(const std::string& table, const std::string& column);
  /// Inserts a row and maintains all indexes on the table.
  Result<RowId> Insert(const std::string& table, Row row);
  Status Delete(const std::string& table, RowId id);
  /// Rebuilds histograms on every index (like ANALYZE).
  Status Analyze();

  // -------------------------------------------------------------------------
  // Queries
  // -------------------------------------------------------------------------

  /// Parses, plans and runs `sql`. `timeout_seconds` 0 disables the timeout.
  /// `num_threads` > 1 enables parallel execution — morsel-partitioned
  /// scan pipelines (CTE bodies included) and concurrent UNION arms — on
  /// an internal thread pool (1 = serial, the default); hash joins,
  /// aggregates and EXCEPT consume their inputs serially. `batch_size` is
  /// the rows-per-batch unit of the vectorized executor (1 runs
  /// capacity-1 batches through the same operators; 0 picks an adaptive
  /// per-operator size from the row width; negatives clamp to 1).
  /// Every (num_threads, batch_size) combination reproduces identical
  /// rows, row order and ExecStats.
  Result<ResultSet> ExecuteSql(const std::string& sql,
                               const QueryMetadata* metadata = nullptr,
                               double timeout_seconds = 0.0,
                               int num_threads = 1,
                               int batch_size = static_cast<int>(kDefaultBatchSize));

  /// Plans and runs an already-parsed statement. Implemented as
  /// OpenCursor + QueryCursor::Drain, so one-shot and cursor execution
  /// share a single code path (identical rows, order and ExecStats).
  Result<ResultSet> ExecuteStmt(const SelectStmt& stmt,
                                const QueryMetadata* metadata = nullptr,
                                double timeout_seconds = 0.0,
                                int num_threads = 1,
                                int batch_size = static_cast<int>(kDefaultBatchSize));

  /// Plans `stmt` and opens a pull-based cursor over it (chunked
  /// QueryCursor::Next instead of a materialized ResultSet). `metadata`
  /// must outlive the cursor. The timeout clock starts here and keeps
  /// running between Next calls.
  Result<std::unique_ptr<QueryCursor>> OpenCursor(
      const SelectStmt& stmt, const QueryMetadata* metadata = nullptr,
      double timeout_seconds = 0.0, int num_threads = 1,
      int batch_size = static_cast<int>(kDefaultBatchSize));

  /// Plans `sql` and returns the access-path summary without executing —
  /// the EXPLAIN facility Sieve's strategy selector relies on (Section 5.5).
  Result<ExplainInfo> ExplainSql(const std::string& sql);
  Result<ExplainInfo> ExplainStmt(const SelectStmt& stmt);

  /// Estimated selectivity of one predicate on `table` (paper: ρ(pred)).
  double EstimateSelectivity(const std::string& table, const Expr& predicate);

  // -------------------------------------------------------------------------
  // EngineHooks
  // -------------------------------------------------------------------------

  Result<Value> EvalScalarSubquery(const std::string& sql,
                                   const Schema& outer_schema,
                                   const Row& outer_row,
                                   const QueryMetadata* metadata,
                                   ExecStats* stats) override;

  Result<Value> CallUdf(const std::string& name, const std::vector<Value>& args,
                        const Schema& schema, const Row& row,
                        const QueryMetadata* metadata,
                        ExecStats* stats) override;

 private:
  /// Replaces column refs of a correlated subquery that only resolve in the
  /// outer scope with the outer row's values.
  Status SubstituteOuterRefs(SelectStmt* stmt, const Schema& outer_schema,
                             const Row& outer_row);

  /// The worker pool backing partition-parallel execution, created on the
  /// first parallel query and grown when a query asks for more threads
  /// (never shrunk: RunWorkers caps each fan-out at the query's own
  /// num_threads). Outgrown pools are retired, not destroyed: a concurrent
  /// query may still be running on one, and ThreadPool's destructor joins.
  ThreadPool* EnsurePool(size_t num_threads);

  Catalog catalog_;
  UdfRegistry udfs_;
  EngineProfile profile_;
  std::vector<std::unique_ptr<ThreadPool>> pools_;  // back() is current
  std::mutex pool_mu_;
  /// Sink for the simulated UDF marshalling work (prevents the optimizer
  /// from eliding it). Atomic: parallel partitions cross the UDF boundary
  /// concurrently.
  std::atomic<size_t> benchmark_sink_{0};
};

}  // namespace sieve

#endif  // SIEVE_ENGINE_DATABASE_H_
