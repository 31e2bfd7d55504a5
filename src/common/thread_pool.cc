#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "common/fault_injection.h"

namespace sieve {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

namespace {

// Shared state of one ParallelFor batch. The batch's helper tasks and the
// calling thread all claim indices from `next`; the caller blocks on
// `done` only for indices that other threads claimed. Helper tasks hold
// the state via shared_ptr because they may be popped from the queue
// after the batch already finished (they then find next >= n and return
// without touching `fn`, which lives on the caller's stack).
struct BatchState {
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done;
  size_t completed = 0;
};

}  // namespace

void ThreadPool::ParallelFor(size_t n, size_t max_threads,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  auto state = std::make_shared<BatchState>();

  // Claim loop: grab the next unstarted index and run it. `fn` is only
  // dereferenced for claimed indices (next < n), and a claimed index keeps
  // the caller blocked below until it completes — so `fn` is always alive
  // when invoked, even from a stale helper task. noexcept: a throwing `fn`
  // terminates here instead of unwinding past the barrier.
  const std::function<void(size_t)>* fn_ptr = &fn;
  auto claim_loop = [state, fn_ptr, n]() noexcept {
    while (true) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      // Chaos knob: delays a claimed index before it runs, perturbing the
      // dynamic morsel schedule (a slow worker, a descheduled thread).
      if (SIEVE_FAULT_POINT("pool.task.stall")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      (*fn_ptr)(i);
      std::lock_guard<std::mutex> lock(state->mu);
      if (++state->completed == n) state->done.notify_all();
    }
  };

  // One helper per worker, capped at n and at max_threads - 1; the caller
  // claims too, so a batch makes progress even when every worker is busy
  // with other batches.
  const size_t helper_cap = max_threads == 0 ? 0 : max_threads - 1;
  const size_t helpers = std::min({threads_.size(), n, helper_cap});
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < helpers; ++i) {
      queue_.emplace(claim_loop);
    }
  }
  cv_.notify_all();

  claim_loop();  // caller participates: never blocks on queue capacity

  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&state, n] { return state->completed == n; });
}

}  // namespace sieve
