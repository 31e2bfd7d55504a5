#ifndef SIEVE_COMMON_THREAD_POOL_H_
#define SIEVE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sieve {

/// Fixed-size worker pool backing partition-parallel query execution.
/// ParallelFor is its only entry point. The destructor lets the workers
/// drain the queue before they join.
///
/// Nested-task support: ParallelFor may be called from *inside* a pool
/// task (a UNION arm or a CTE body partitioning its pipeline while itself
/// running as a partition worker). The calling thread always participates
/// in its own batch — it claims and runs work items instead of blocking on
/// the queue — so a nested fan-out completes even when every pool worker
/// is busy or the pool has a single thread. No call path ever waits for
/// queue capacity, which is what makes reusing one executor-wide pool
/// across nesting levels deadlock-free.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Runs fn(0) .. fn(n-1) on at most `max_threads` threads, the caller
  /// included, and blocks until all complete. The caller always runs
  /// indices itself; up to max_threads - 1 pool workers (never more than
  /// size()) help, so a pool larger than a query's thread count does not
  /// widen the query.
  /// `fn` must not throw: an exception escaping it terminates the process
  /// rather than unwinding past the barrier while other indices still run
  /// (RunWorkers turns every failure into a Status first).
  /// Safe to call from inside a pool task (see class comment): the caller
  /// claims unstarted indices itself and only sleeps while indices it did
  /// not claim finish on other threads.
  void ParallelFor(size_t n, size_t max_threads,
                   const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

}  // namespace sieve

#endif  // SIEVE_COMMON_THREAD_POOL_H_
