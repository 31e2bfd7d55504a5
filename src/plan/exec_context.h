#ifndef SIEVE_PLAN_EXEC_CONTEXT_H_
#define SIEVE_PLAN_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <thread>

#include "common/exec_stats.h"
#include "common/fault_injection.h"
#include "common/metadata.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "expr/eval.h"
#include "plan/row_batch.h"
#include "storage/catalog.h"

namespace sieve {

/// Per-query execution state threaded through every operator: catalog and
/// engine hooks, query metadata (for the Δ UDF), stat counters, the timeout
/// budget (the paper's experiments use a 30 s timeout, reported as "TO"),
/// and the partition-parallelism knobs.
///
/// Parallel execution fans work out at two points, both sharing one
/// ThreadPool: Executor::Materialize splits opened partitionable pipelines
/// (every policy-filtered CTE body is one) into morsels, and
/// UnionOperator drains its arms concurrently from inside Open. Hash
/// joins, aggregates and EXCEPT consume their inputs serially. Shared
/// inputs are resolved once, before anything fans out over them: CTE rows
/// before the query root opens, and index probes, derived tables and the
/// nested-loop inner side in the Open that precedes a split. Workers only
/// read them. Each unit of parallel work runs under its own
/// worker ExecContext (own ExecStats and cancel flag, shared timer epoch);
/// the workers' stats are merged back at the barrier, so the counters here
/// are never mutated concurrently.
struct ExecContext {
  Catalog* catalog = nullptr;
  EngineHooks* hooks = nullptr;
  const QueryMetadata* metadata = nullptr;
  ExecStats* stats = nullptr;
  double timeout_seconds = 0.0;  // 0 disables the timeout
  Timer timer;

  /// Rows per execution batch (Operator::NextBatch). The default is the
  /// vectorized fast path; 1 runs the same operators on capacity-1
  /// batches (same rows, order and ExecStats at every value — only the
  /// amortization changes); 0 selects an adaptive per-operator size from
  /// the row width (see EffectiveBatchSize). Never negative.
  int batch_size = static_cast<int>(kDefaultBatchSize);

  /// Partition parallelism: 1 (the default) is today's serial behavior.
  /// When > 1, `pool` must point at a live thread pool, and partitionable
  /// pipelines split into several morsels per worker that the pool's
  /// claim queue hands out dynamically (see Executor::Materialize). Each
  /// fan-out runs on at most this many threads, even on a larger pool.
  int num_threads = 1;
  ThreadPool* pool = nullptr;
  /// Set when a lower-index sibling partition failed; checked
  /// cooperatively so this worker abandons its scan instead of running to
  /// the end. Each worker of a fan-out has its own flag (see RunWorkers).
  std::atomic<bool>* cancel = nullptr;
  /// The context whose fan-out spawned this worker (nullptr at the query
  /// root). CheckTimeout also honors every enclosing worker's cancel flag,
  /// so cancelling a worker stops the nested fan-outs it started.
  const ExecContext* parent = nullptr;

  Status CheckTimeout() const {
    for (const ExecContext* c = this; c != nullptr; c = c->parent) {
      if (c->cancel != nullptr && c->cancel->load(std::memory_order_relaxed)) {
        return Status::Timeout("query cancelled: a sibling partition failed");
      }
    }
    // exec.stall slows the query down (1ms per check) so deadline tests can
    // force a timeout deterministically; exec.interrupt simulates an engine
    // failure surfacing mid-execution (including mid-cursor).
    if (SIEVE_FAULT_POINT("exec.stall")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (SIEVE_FAULT_POINT("exec.interrupt")) {
      return SIEVE_INJECT_FAULT("exec.interrupt");
    }
    if (timeout_seconds > 0.0 && timer.ElapsedSeconds() > timeout_seconds) {
      return Status::Timeout("query exceeded timeout");
    }
    return Status::OK();
  }

  /// A context for one parallel worker: shares the read-only engine state,
  /// the timeout epoch and the thread pool, but gets its own stat counters
  /// so accumulation is race-free, and its own cancel flag chained to this
  /// context's. Keeping the pool lets nested fan-out compose (a UNION arm
  /// whose pipeline partitions, a derived table materialized from inside
  /// a worker); ThreadPool::ParallelFor's help-running makes that reuse
  /// deadlock-free. The worker must not outlive this context.
  ExecContext MakeWorkerContext(ExecStats* worker_stats,
                                std::atomic<bool>* cancel_flag) const {
    ExecContext worker;
    worker.catalog = catalog;
    worker.hooks = hooks;
    worker.metadata = metadata;
    worker.stats = worker_stats;
    worker.timeout_seconds = timeout_seconds;
    worker.timer = timer;  // same epoch: the deadline is shared
    worker.batch_size = batch_size;
    worker.num_threads = num_threads;
    worker.pool = pool;
    worker.cancel = cancel_flag;
    worker.parent = this;
    return worker;
  }
};

}  // namespace sieve

#endif  // SIEVE_PLAN_EXEC_CONTEXT_H_
