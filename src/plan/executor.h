#ifndef SIEVE_PLAN_EXECUTOR_H_
#define SIEVE_PLAN_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "plan/operators.h"
#include "plan/optimizer.h"

namespace sieve {

/// Fully materialized query result plus run statistics.
struct ResultSet {
  Schema schema;
  std::vector<Row> rows;
  ExecStats stats;
  double elapsed_ms = 0.0;

  size_t size() const { return rows.size(); }

  /// Rendered table (for examples and debugging).
  std::string ToString(size_t max_rows = 20) const;
};

/// Fans `body` out as `n` workers on ctx->pool, run by at most
/// ctx->num_threads threads (the caller included) however large the pool
/// is: body(i, worker) runs under a private worker context — own
/// ExecStats (merged into ctx->stats at the barrier; partial work is
/// counted even on failure), shared timeout epoch and pool, and its own
/// cancel flag. A failure in worker
/// i cancels only workers i+1..n-1, so they stop at their next cooperative
/// check while every lower worker still runs to its own outcome; a worker
/// also stops when an enclosing fan-out cancels the worker that called
/// this one. The lowest-index failure is returned, a real error
/// outranking a cancellation Timeout; an exception thrown by `body` becomes
/// an ExecutionError naming the worker. Requires ctx->pool;
/// safe to call from inside a pool task (ParallelFor help-runs its batch).
/// It has two callers: the partitioned drain behind Executor::Materialize
/// and QueryCursor, and UnionOperator's concurrent arm drain.
Status RunWorkers(ExecContext* ctx, size_t n,
                  const std::function<Status(size_t, ExecContext*)>& body);

/// Number of partition morsels a parallel drain should split the opened
/// `root` into: several per worker thread (capped so each morsel covers at
/// least ~a batch of rows), handed out dynamically through ThreadPool::
/// ParallelFor's shared atomic claim counter. A skewed guard branch or a
/// highly selective filter then occupies one thread for one morsel at a
/// time instead of pinning a whole static 1/num_threads slice to it while
/// the other workers idle. Sizing uses Operator::PartitionRows, exact
/// once `root` is open (an index probe of 5 rows is one morsel, whatever
/// the table's size), and tiny inputs collapse to a single morsel instead
/// of paying dozens of near-empty clone Opens. Morsels are contiguous
/// slices stitched back in source order, so rows, row order and ExecStats
/// stay identical to a serial run at any count.
size_t PlanPartitionCount(const Operator& root, const ExecContext& ctx);

/// Incremental (pull-based) execution of one planned query: rows are
/// emitted in chunks through Next instead of materializing the whole
/// result up front. This is what backs the session API's ResultCursor.
///
/// Serial execution streams: each Next call pulls at most `max_rows` rows
/// from the operator tree, so the peak footprint is one batch (plus the
/// materialized CTEs and whatever blocking operators buffer internally).
/// Partition-parallel execution reuses the partition machinery wholesale:
/// when the opened pipeline supports Operator::CreatePartitions, Open
/// drains all partitions on the pool (exactly like Executor::Materialize)
/// and Next serves slices of the buffer — rows, row order and ExecStats
/// totals stay identical to a serial drain either way.
///
/// The timeout clock starts at Open and keeps running between Next calls;
/// a cursor held open counts against the query's budget. Stats() totals
/// (including rows_output) are final once the cursor is exhausted.
/// Single-threaded use only; not movable (the ExecContext points into the
/// cursor's own counters).
class QueryCursor {
 public:
  /// Takes ownership of the plan; `base` supplies catalog/hooks/
  /// metadata/timeout/parallelism (its `stats` pointer is ignored — the
  /// cursor accumulates into its own counters). Materializes the plan's
  /// CTEs in order, then opens the root: blocking work (CTE
  /// materialization, hash builds, parallel partition drains) happens
  /// here.
  static Result<std::unique_ptr<QueryCursor>> Open(PlannedQuery plan,
                                                   const ExecContext& base);

  QueryCursor(const QueryCursor&) = delete;
  QueryCursor& operator=(const QueryCursor&) = delete;

  const Schema& schema() const { return schema_; }

  /// Appends up to `max_rows` rows to *batch (which is not cleared).
  /// Returns true when rows were appended, false when the cursor is
  /// exhausted. Execution errors (timeout, failure) are sticky;
  /// `max_rows` must be > 0 (rejected non-stickily otherwise, since a
  /// zero batch would be indistinguishable from exhaustion).
  Result<bool> Next(std::vector<Row>* batch, size_t max_rows);

  /// Pulls everything remaining into a ResultSet whose stats/elapsed match
  /// a one-shot Executor::Run of the same plan.
  Result<ResultSet> Drain();

  /// Abandons the rest of the stream: the cursor reports exhaustion from
  /// now on and stats() totals freeze at what was actually emitted.
  void Abandon();

  bool exhausted() const { return done_; }
  /// Counter totals so far; final (and equal to the one-shot run's stats)
  /// once exhausted() is true.
  const ExecStats& stats() const { return stats_; }
  double elapsed_ms() const;

  /// Shrinks the remaining time budget so the cursor times out at most
  /// `seconds_from_now` from this call (measured on the cursor's shared
  /// timer epoch). Only ever tightens: a budget longer than what is
  /// already configured is ignored. Non-positive values are ignored.
  /// Backs the per-FETCH wire deadline.
  void TightenDeadline(double seconds_from_now);

 private:
  QueryCursor() = default;

  PlannedQuery plan_;
  ExecContext ctx_;
  ExecStats stats_;
  Schema schema_;
  Timer timer_;
  RowBatch fetch_batch_;  // serial path: rows pulled but not yet served
  size_t fetch_pos_ = 0;
  std::vector<Row> buffered_;  // partition-parallel path
  size_t buffered_pos_ = 0;
  bool partitioned_ = false;
  bool done_ = false;
  bool finalized_ = false;  // rows_output folded into stats_ exactly once
  uint64_t rows_emitted_ = 0;
  Status error_ = Status::OK();  // sticky first failure

  void Finalize();
};

/// Pulls a plan to completion under the ExecContext's timeout.
class Executor {
 public:
  /// Materializes `plan`'s CTEs in order, then drains its root.
  static Result<ResultSet> Run(PlannedQuery* plan, ExecContext* ctx);

  /// Opens `root` and drains it to completion into *rows. When
  /// ctx->num_threads > 1, ctx->pool is set and the opened pipeline
  /// supports partitioning (Operator::CreatePartitions), the partitions
  /// run on the pool under per-worker contexts; per-worker ExecStats are
  /// merged into ctx->stats at the barrier and the per-partition row
  /// vectors are concatenated in partition order, so rows, row order and
  /// stat totals are identical to a serial run. Falls back to a serial
  /// pull otherwise; the subtree's own materializations (derived-table
  /// scans, the nested-loop inner side) still come back through this
  /// function from their Open and fan out there, and a UNION drains its
  /// arms concurrently (see the threading contract in plan/operators.h).
  static Status Materialize(Operator* root, ExecContext* ctx,
                            std::vector<Row>* rows);
};

}  // namespace sieve

#endif  // SIEVE_PLAN_EXECUTOR_H_
