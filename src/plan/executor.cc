#include "plan/executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "common/string_util.h"

namespace sieve {

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out;
  std::vector<std::string> header;
  header.reserve(schema.num_columns());
  for (const auto& col : schema.columns()) header.push_back(col.name);
  out += Join(header, " | ");
  out += "\n";
  size_t shown = 0;
  for (const auto& row : rows) {
    if (shown++ >= max_rows) {
      out += StrFormat("... (%zu more rows)\n", rows.size() - max_rows);
      break;
    }
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const auto& v : row) cells.push_back(v.ToString());
    out += Join(cells, " | ");
    out += "\n";
  }
  return out;
}

namespace {

// Chunk size QueryCursor::Drain pulls with; large enough that the
// per-batch overhead vanishes, small enough to keep Row moves cache-warm.
constexpr size_t kDrainBatchRows = 4096;

// Morsels handed out per worker thread. Several morsels per worker is
// what turns static slicing into dynamic scheduling: ParallelFor's atomic
// claim counter is the shared work queue, and a worker that finishes a
// cheap morsel immediately claims the next one instead of idling behind a
// skewed sibling. Larger values smooth skew further but multiply
// per-morsel Open overhead (operator clones, evaluator and buffer setup).
constexpr size_t kMorselsPerThread = 8;

// Minimum rows a morsel should cover (one default batch): below this the
// per-morsel Open overhead outweighs any scheduling benefit, so small
// inputs get fewer (down to one) morsels.
constexpr size_t kMinMorselRows = kDefaultBatchSize;

// Serial pull loop: drains the opened `root` batch-at-a-time into *rows
// (ctx->batch_size rows per NextBatch interpretation pass).
Status Pull(Operator* root, ExecContext* ctx, std::vector<Row>* rows) {
  RowBatch batch(
      EffectiveBatchSize(ctx->batch_size, root->schema().num_columns()));
  while (true) {
    SIEVE_ASSIGN_OR_RETURN(bool has, root->NextBatch(ctx, &batch));
    if (!has) break;
    // Plain push_back: letting the vector grow geometrically is O(R)
    // amortized, whereas reserving size+batch per batch would reallocate
    // (and move every drained row) once per batch.
    for (size_t i = 0; i < batch.size(); ++i) {
      rows->emplace_back();
      batch.MaterializeRow(i, &rows->back());
    }
  }
  return Status::OK();
}

// Opens `root` and, when the context is parallel and the opened pipeline
// partitions, fills *parts with its morsel clones. Opening first resolves
// the pipeline's shared input (index probe, derived table, nested-loop
// inner side) once, on this thread; the clones borrow it and are sized
// from its exact row count.
Status OpenAndSplit(Operator* root, ExecContext* ctx,
                    std::vector<OperatorPtr>* parts) {
  SIEVE_RETURN_IF_ERROR(root->Open(ctx));
  if (ctx->num_threads > 1 && ctx->pool != nullptr) {
    root->CreatePartitions(PlanPartitionCount(*root, *ctx), parts);
  }
  return Status::OK();
}

// Materializes the plan's CTEs in dependency order on the calling thread,
// before the root opens: each body fans out with the query's full thread
// budget, and every reference in the tree then reads finished rows.
Status MaterializeCtes(PlannedQuery* plan, ExecContext* ctx) {
  for (const std::unique_ptr<PlannedCte>& cte : plan->ctes) {
    SIEVE_RETURN_IF_ERROR(
        Executor::Materialize(cte->body.get(), ctx, &cte->rows));
  }
  return Status::OK();
}

// Opens and drives one partition clone per RunWorkers task (see
// executor.h for the worker-context / cancellation / error contract) and
// appends the per-partition row buffers in partition order, so rows, row
// order and stat totals are identical to a serial drain.
Status DrainPartitioned(const std::vector<OperatorPtr>& parts,
                        ExecContext* ctx, std::vector<Row>* rows) {
  const size_t n = parts.size();
  std::vector<std::vector<Row>> worker_rows(n);
  SIEVE_RETURN_IF_ERROR(
      RunWorkers(ctx, n, [&](size_t i, ExecContext* worker) {
        SIEVE_RETURN_IF_ERROR(parts[i]->Open(worker));
        return Pull(parts[i].get(), worker, &worker_rows[i]);
      }));
  size_t total = 0;
  for (const auto& part_rows : worker_rows) total += part_rows.size();
  rows->reserve(rows->size() + total);
  for (auto& part_rows : worker_rows) {
    for (Row& row : part_rows) rows->push_back(std::move(row));
  }
  return Status::OK();
}

// The Status of a worker whose body threw. Formatting the message can
// itself throw (bad_alloc); the fallback's message is short enough for the
// string's inline buffer, so no exception escapes into ParallelFor's
// noexcept claim loop.
Status WorkerThrew(size_t i, const char* what) noexcept {
  try {
    return Status::ExecutionError(
        what != nullptr
            ? StrFormat("partition worker %zu threw: %s", i, what)
            : StrFormat("partition worker %zu threw an unknown exception", i));
  } catch (...) {
    return Status(StatusCode::kExecutionError, "worker threw");
  }
}

}  // namespace

Status RunWorkers(ExecContext* ctx, size_t n,
                  const std::function<Status(size_t, ExecContext*)>& body) {
  std::vector<ExecStats> worker_stats(n);
  // One flag per worker: a failure cancels only the workers after it, so
  // no lower-index worker is stopped before it reaches its own error.
  std::vector<std::atomic<bool>> cancel(n);
  std::mutex error_mu;
  Status first_error;
  size_t first_error_index = n;

  auto run_worker = [&](size_t i) {
    Status st;
    try {
      ExecContext worker =
          ctx->MakeWorkerContext(&worker_stats[i], &cancel[i]);
      if (SIEVE_FAULT_POINT("exec.morsel.fail")) {
        // Fails this morsel before it runs; flows through the same
        // first-error/cancellation path as a genuine partition failure.
        st = SIEVE_INJECT_FAULT("exec.morsel.fail");
      } else {
        st = body(i, &worker);
      }
    } catch (const std::exception& e) {
      // A throwing worker (a UDF raising, bad_alloc mid-drain) fails the
      // query like any erroring partition: convert to a Status naming the
      // partition and let the first-error selection below pick the winner
      // deterministically (an exception escaping into ParallelFor would
      // terminate the process).
      st = WorkerThrew(i, e.what());
    } catch (...) {
      st = WorkerThrew(i, nullptr);
    }
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(error_mu);
      // Report the real failure, not a cancellation artifact: cancelled
      // workers fail with Timeout at their next cooperative check, so a
      // non-timeout error always outranks a timeout; within the same class
      // the lowest partition index wins (deterministic, like a serial
      // drain).
      bool take;
      if (first_error.ok()) {
        take = true;
      } else {
        bool new_real = st.code() != StatusCode::kTimeout;
        bool cur_real = first_error.code() != StatusCode::kTimeout;
        take = new_real != cur_real ? new_real : i < first_error_index;
      }
      if (take) {
        first_error = std::move(st);  // a move does not allocate
        first_error_index = i;
      }
      for (size_t j = i + 1; j < n; ++j) {
        cancel[j].store(true, std::memory_order_relaxed);
      }
    }
  };
  ctx->pool->ParallelFor(
      n, static_cast<size_t>(std::max(ctx->num_threads, 1)), run_worker);

  if (ctx->stats != nullptr) {
    for (const ExecStats& stats : worker_stats) ctx->stats->Add(stats);
  }
  return first_error;
}

size_t PlanPartitionCount(const Operator& root, const ExecContext& ctx) {
  const size_t by_size = root.PartitionRows() / kMinMorselRows;
  if (by_size <= 1) return 1;
  return std::min(by_size,
                  static_cast<size_t>(ctx.num_threads) * kMorselsPerThread);
}

Result<std::unique_ptr<QueryCursor>> QueryCursor::Open(PlannedQuery plan,
                                                       const ExecContext& base) {
  std::unique_ptr<QueryCursor> cursor(new QueryCursor());
  cursor->plan_ = std::move(plan);
  cursor->ctx_ = base;
  cursor->ctx_.stats = &cursor->stats_;
  ExecContext* ctx = &cursor->ctx_;
  Operator* root = cursor->plan_.root.get();
  SIEVE_RETURN_IF_ERROR(MaterializeCtes(&cursor->plan_, ctx));
  std::vector<OperatorPtr> parts;
  SIEVE_RETURN_IF_ERROR(OpenAndSplit(root, ctx, &parts));
  cursor->schema_ = root->schema();
  if (!parts.empty()) {
    SIEVE_RETURN_IF_ERROR(DrainPartitioned(parts, ctx, &cursor->buffered_));
    cursor->partitioned_ = true;
    // Every row is buffered: free the CTE rows and whatever the opened
    // root resolved instead of holding them as long as the cursor.
    parts.clear();
    cursor->plan_ = PlannedQuery();
    return cursor;
  }
  cursor->fetch_batch_.reset(
      EffectiveBatchSize(ctx->batch_size, cursor->schema_.num_columns()));
  return cursor;
}

Result<bool> QueryCursor::Next(std::vector<Row>* batch, size_t max_rows) {
  // A zero batch would be indistinguishable from exhaustion for the
  // caller; reject it (non-sticky: the cursor itself is fine).
  if (max_rows == 0) {
    return Status::InvalidArgument("QueryCursor::Next requires max_rows > 0");
  }
  SIEVE_RETURN_IF_ERROR(error_);
  if (done_) return false;
  size_t emitted = 0;
  if (partitioned_) {
    while (buffered_pos_ < buffered_.size() && emitted < max_rows) {
      batch->push_back(std::move(buffered_[buffered_pos_++]));
      ++emitted;
    }
    if (buffered_pos_ >= buffered_.size()) {
      buffered_.clear();
      done_ = true;
    }
  } else {
    while (emitted < max_rows) {
      if (fetch_pos_ >= fetch_batch_.size()) {
        auto has = plan_.root->NextBatch(&ctx_, &fetch_batch_);
        if (!has.ok()) {
          error_ = has.status();
          done_ = true;
          Finalize();
          return error_;
        }
        if (!*has) {
          done_ = true;
          break;
        }
        fetch_pos_ = 0;
      }
      batch->emplace_back();
      fetch_batch_.MaterializeRow(fetch_pos_++, &batch->back());
      ++emitted;
    }
  }
  rows_emitted_ += emitted;
  if (done_) Finalize();
  return emitted > 0;
}

// Mirror Executor::Run's accounting: rows_output counts the rows the
// plan root produced, folded in exactly once when the stream completes
// (exhaustion, sticky error, or Abandon).
void QueryCursor::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  stats_.rows_output += rows_emitted_;
}

void QueryCursor::Abandon() {
  done_ = true;
  buffered_.clear();
  buffered_pos_ = 0;
  fetch_batch_.clear();
  fetch_pos_ = 0;
  Finalize();
}

Result<ResultSet> QueryCursor::Drain() {
  ResultSet result;
  result.schema = schema_;
  while (true) {
    SIEVE_ASSIGN_OR_RETURN(bool more, Next(&result.rows, kDrainBatchRows));
    if (!more) break;
  }
  result.stats = stats_;
  result.elapsed_ms = timer_.ElapsedMillis();
  return result;
}

double QueryCursor::elapsed_ms() const { return timer_.ElapsedMillis(); }

void QueryCursor::TightenDeadline(double seconds_from_now) {
  if (seconds_from_now <= 0.0) return;
  // The timeout budget is measured from the shared timer epoch, so a
  // deadline "seconds from now" converts to elapsed-so-far + budget.
  double budget = ctx_.timer.ElapsedSeconds() + seconds_from_now;
  if (ctx_.timeout_seconds <= 0.0 || budget < ctx_.timeout_seconds) {
    ctx_.timeout_seconds = budget;
  }
}

Status Executor::Materialize(Operator* root, ExecContext* ctx,
                             std::vector<Row>* rows) {
  std::vector<OperatorPtr> parts;
  SIEVE_RETURN_IF_ERROR(OpenAndSplit(root, ctx, &parts));
  if (!parts.empty()) return DrainPartitioned(parts, ctx, rows);
  return Pull(root, ctx, rows);
}

Result<ResultSet> Executor::Run(PlannedQuery* plan, ExecContext* ctx) {
  Timer timer;
  ResultSet result;
  result.schema = plan->root->schema();
  SIEVE_RETURN_IF_ERROR(MaterializeCtes(plan, ctx));
  SIEVE_RETURN_IF_ERROR(Materialize(plan->root.get(), ctx, &result.rows));
  if (ctx->stats != nullptr) {
    ctx->stats->rows_output += result.rows.size();
    result.stats = *ctx->stats;
  }
  result.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace sieve
