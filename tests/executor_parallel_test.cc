// Unit tests for the parallel + vectorized execution subsystem: the
// thread pool itself (including nested fan-out from inside pool tasks),
// partition/morsel boundary edge cases on every partitionable scan,
// interior-operator edge cases (UNION arms drained concurrently; hash
// join, hash aggregate and EXCEPT over plain tables and over CTEs whose
// bodies fan out beneath them),
// RowBatch/NextBatch semantics (batch boundaries at partition edges,
// empty morsels, capacity-1 batches, mid-batch timeouts,
// lowest-index error selection under nested fan-out),
// race-free ExecStats merging, and cooperative timeout cancellation while
// a parallel scan is in flight.

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "tests/test_fixtures.h"

namespace sieve {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> runs(100);
  pool.ParallelFor(runs.size(), pool.size() + 1,
                   [&runs](size_t i) { ++runs[i]; });
  // ParallelFor returns only after every index ran, each exactly once.
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.ParallelFor(3, 2, [&ran](size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, ParallelForRunsOnAtMostMaxThreads) {
  // RunWorkers passes a query's num_threads as the cap: the database's
  // pool only grows, so without it a 2-thread query that follows an
  // 8-thread one would run on all 8 workers plus the caller.
  ThreadPool pool(4);
  for (size_t max_threads : {size_t{1}, size_t{2}}) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    pool.ParallelFor(64, max_threads, [&](size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_LE(ids.size(), max_threads) << "max_threads=" << max_threads;
    if (max_threads == 1) {
      EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);  // caller only
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // UNION arms and CTE bodies fan out from inside pool tasks; without the
  // help-running caller this would deadlock as soon as every worker is
  // occupied by an outer task. A 1-thread pool is the worst case.
  for (size_t pool_size : {size_t{1}, size_t{2}}) {
    ThreadPool pool(pool_size);
    std::atomic<int> inner_runs{0};
    const size_t max_threads = pool_size + 1;  // every worker + caller
    pool.ParallelFor(4, max_threads, [&](size_t) {
      pool.ParallelFor(4, max_threads, [&inner_runs](size_t) { ++inner_runs; });
    });
    EXPECT_EQ(inner_runs.load(), 16) << "pool_size=" << pool_size;
  }
}

// ---------------------------------------------------------------------------
// Partition boundary edge cases (operator level)
// ---------------------------------------------------------------------------

// Builds `num_rows` rows (id, id % 7) into table "t" of a fresh database,
// with an index on id, deleting every row whose id is in `deleted`.
std::unique_ptr<Database> MakeTable(int num_rows,
                                    const std::vector<RowId>& deleted = {}) {
  auto db = std::make_unique<Database>();
  Schema schema({{"id", DataType::kInt}, {"val", DataType::kInt}});
  EXPECT_TRUE(db->CreateTable("t", std::move(schema)).ok());
  for (int i = 0; i < num_rows; ++i) {
    EXPECT_TRUE(db->Insert("t", Row{Value::Int(i), Value::Int(i % 7)}).ok());
  }
  EXPECT_TRUE(db->CreateIndex("t", "id").ok());
  for (RowId id : deleted) EXPECT_TRUE(db->Delete("t", id).ok());
  EXPECT_TRUE(db->Analyze().ok());
  return db;
}

// Opens `op` and drains it through NextBatch at ctx->batch_size rows per
// batch, fingerprinting every row in stream order.
std::vector<std::string> DrainToStrings(Operator* op, ExecContext* ctx) {
  std::vector<std::string> out;
  Status open = op->Open(ctx);
  EXPECT_TRUE(open.ok()) << open.ToString();
  RowBatch batch(static_cast<size_t>(ctx->batch_size));
  Row row;
  while (true) {
    auto has = op->NextBatch(ctx, &batch);
    EXPECT_TRUE(has.ok()) << has.status().ToString();
    if (!has.ok() || !*has) break;
    EXPECT_FALSE(batch.empty()) << "a true NextBatch must carry rows";
    for (size_t k = 0; k < batch.size(); ++k) {
      batch.MaterializeRow(k, &row);
      out.push_back(RowFingerprint(row));
    }
  }
  return out;
}

// Drains the serial operator and `num_parts` partition clones of
// `partitioned` at batch capacities 1, 3 and 1024, asserting the
// concatenated partitions reproduce the serial stream exactly (same rows,
// same order) and that the split operator's Open plus the per-partition
// stats sum to the serial stats. As in the executor, `partitioned` is
// opened before it splits, and its clones borrow what that Open resolved.
void ExpectPartitionsMatchSerial(Operator* serial, Operator* partitioned,
                                 size_t num_parts, Catalog* catalog) {
  for (int capacity : {1, 3, 1024}) {
    ExecStats serial_stats;
    ExecContext serial_ctx;
    serial_ctx.catalog = catalog;
    serial_ctx.stats = &serial_stats;
    serial_ctx.batch_size = capacity;
    std::vector<std::string> expected = DrainToStrings(serial, &serial_ctx);

    ExecStats merged_stats;
    ExecContext split_ctx;
    split_ctx.catalog = catalog;
    split_ctx.stats = &merged_stats;
    split_ctx.batch_size = capacity;
    Status open = partitioned->Open(&split_ctx);
    ASSERT_TRUE(open.ok()) << open.ToString();
    std::vector<OperatorPtr> parts;
    ASSERT_TRUE(partitioned->CreatePartitions(num_parts, &parts));
    ASSERT_EQ(parts.size(), num_parts);
    std::vector<std::string> merged;
    for (auto& part : parts) {
      ExecStats part_stats;
      ExecContext part_ctx;
      part_ctx.catalog = catalog;
      part_ctx.stats = &part_stats;
      part_ctx.batch_size = capacity;
      for (auto& fp : DrainToStrings(part.get(), &part_ctx)) {
        merged.push_back(std::move(fp));
      }
      merged_stats.Add(part_stats);
    }
    EXPECT_EQ(merged, expected) << "capacity=" << capacity;
    EXPECT_EQ(merged_stats, serial_stats)
        << "capacity=" << capacity << " merged=" << merged_stats.ToString()
        << " serial=" << serial_stats.ToString();
  }
}

TEST(PartitionBoundaryTest, SeqScanEmptyTable) {
  auto db = MakeTable(0);
  TableEntry* entry = db->catalog().Get("t").value();
  SeqScanOperator serial(entry, "");
  SeqScanOperator partitioned(entry, "");
  ExpectPartitionsMatchSerial(&serial, &partitioned, 4, &db->catalog());
}

TEST(PartitionBoundaryTest, SeqScanFewerRowsThanPartitions) {
  auto db = MakeTable(3);
  TableEntry* entry = db->catalog().Get("t").value();
  SeqScanOperator serial(entry, "");
  SeqScanOperator partitioned(entry, "");
  ExpectPartitionsMatchSerial(&serial, &partitioned, 8, &db->catalog());
}

TEST(PartitionBoundaryTest, SeqScanNonDivisibleRowCount) {
  auto db = MakeTable(10);
  TableEntry* entry = db->catalog().Get("t").value();
  SeqScanOperator serial(entry, "");
  SeqScanOperator partitioned(entry, "");
  ExpectPartitionsMatchSerial(&serial, &partitioned, 4, &db->catalog());
}

TEST(PartitionBoundaryTest, SeqScanTombstonesAcrossBoundaries) {
  auto db = MakeTable(100, {0, 24, 25, 26, 49, 50, 74, 99});
  TableEntry* entry = db->catalog().Get("t").value();
  SeqScanOperator serial(entry, "");
  SeqScanOperator partitioned(entry, "");
  ExpectPartitionsMatchSerial(&serial, &partitioned, 4, &db->catalog());
}

TEST(PartitionBoundaryTest, IndexRangeScanSharedProbe) {
  auto db = MakeTable(1000, {150, 151, 200});
  TableEntry* entry = db->catalog().Get("t").value();
  IndexRange range;
  range.column = "id";
  range.lo = Value::Int(100);
  range.hi = Value::Int(333);
  IndexRangeScanOperator serial(entry, "", range);
  IndexRangeScanOperator partitioned(entry, "", range);
  ExpectPartitionsMatchSerial(&serial, &partitioned, 4, &db->catalog());
}

TEST(PartitionBoundaryTest, IndexRangeScanEmptyResult) {
  auto db = MakeTable(100);
  TableEntry* entry = db->catalog().Get("t").value();
  IndexRange range;
  range.column = "id";
  range.lo = Value::Int(5000);
  range.hi = Value::Int(6000);
  IndexRangeScanOperator serial(entry, "", range);
  IndexRangeScanOperator partitioned(entry, "", range);
  ExpectPartitionsMatchSerial(&serial, &partitioned, 4, &db->catalog());
}

TEST(PartitionBoundaryTest, IndexUnionBitmapScanSharedProbe) {
  auto db = MakeTable(1000, {42, 43});
  TableEntry* entry = db->catalog().Get("t").value();
  IndexRange r1;
  r1.column = "id";
  r1.lo = Value::Int(10);
  r1.hi = Value::Int(120);
  IndexRange r2;
  r2.column = "id";
  r2.lo = Value::Int(100);  // overlaps r1: the bitmap dedups
  r2.hi = Value::Int(400);
  IndexUnionBitmapScanOperator serial(entry, "", {r1, r2});
  IndexUnionBitmapScanOperator partitioned(entry, "", {r1, r2});
  ExpectPartitionsMatchSerial(&serial, &partitioned, 3, &db->catalog());
}

TEST(PartitionBoundaryTest, FilterAndProjectPartitionWithScan) {
  auto db = MakeTable(500);
  // Full pipeline through the SQL layer: Project(Filter(SeqScan)).
  auto serial = db->ExecuteSql("SELECT val FROM t WHERE val < 3");
  auto parallel = db->ExecuteSql("SELECT val FROM t WHERE val < 3", nullptr,
                                 0.0, 4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->rows.size(), parallel->rows.size());
  for (size_t i = 0; i < serial->rows.size(); ++i) {
    EXPECT_EQ(RowFingerprint(serial->rows[i]), RowFingerprint(parallel->rows[i]));
  }
  EXPECT_EQ(serial->stats, parallel->stats)
      << "serial=" << serial->stats.ToString()
      << " parallel=" << parallel->stats.ToString();
}

// ---------------------------------------------------------------------------
// Interior operators: UNION / hash join / hash aggregate / EXCEPT edge cases
// ---------------------------------------------------------------------------

// Adds the build-side table names(v, name) with one row per v in [0, 4).
void AddNamesTable(Database* db) {
  Schema schema({{"v", DataType::kInt}, {"name", DataType::kString}});
  ASSERT_TRUE(db->CreateTable("names", std::move(schema)).ok());
  const char* names[] = {"zero", "one", "two", "three"};
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(
        db->Insert("names", Row{Value::Int(v), Value::String(names[v])}).ok());
  }
  ASSERT_TRUE(db->Analyze().ok());
}

// Runs `sql` serially and at num_threads {2, 4, 8}; the parallel runs must
// reproduce the serial rows, row order and ExecStats totals exactly.
void ExpectParallelMatchesSerial(Database* db, const std::string& sql) {
  auto serial = db->ExecuteSql(sql);
  ASSERT_TRUE(serial.ok()) << sql << " -> " << serial.status().ToString();
  std::vector<std::string> expected;
  for (const auto& row : serial->rows) expected.push_back(RowFingerprint(row));
  for (int threads : {2, 4, 8}) {
    auto parallel = db->ExecuteSql(sql, nullptr, 0.0, threads);
    ASSERT_TRUE(parallel.ok())
        << sql << " threads=" << threads << " -> "
        << parallel.status().ToString();
    std::vector<std::string> got;
    for (const auto& row : parallel->rows) got.push_back(RowFingerprint(row));
    EXPECT_EQ(got, expected) << sql << " threads=" << threads;
    EXPECT_EQ(serial->stats, parallel->stats)
        << sql << " threads=" << threads
        << " serial=" << serial->stats.ToString()
        << " parallel=" << parallel->stats.ToString();
  }
}

TEST(InteriorOperatorTest, UnionWithEmptyBranch) {
  auto db = MakeTable(200);
  // Middle arm produces no rows; arms 1 and 3 overlap so UNION also dedups
  // across the empty branch.
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT val FROM t WHERE val < 2 UNION SELECT val FROM t WHERE id < 0 "
      "UNION SELECT val FROM t WHERE val < 4");
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT * FROM t WHERE id < 0 UNION ALL SELECT * FROM t WHERE val = 1");
}

TEST(InteriorOperatorTest, UnionDedupUnderThreadsIsFirstOccurrence) {
  // Projecting 5000 rows onto val ∈ [0, 7) makes every arm duplicate-heavy;
  // the arms drain concurrently, and the dedup after the barrier must keep
  // exactly the serial first occurrence of each distinct row, in serial
  // order.
  auto db = MakeTable(5000);
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT val FROM t WHERE val < 5 UNION SELECT val FROM t WHERE val > 1");
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT val FROM t WHERE val < 5 UNION ALL "
      "SELECT val FROM t WHERE val > 1");
}

TEST(InteriorOperatorTest, HashJoinZeroRowProbeSide) {
  auto db = MakeTable(100);
  Schema schema({{"id", DataType::kInt}, {"tag", DataType::kInt}});
  ASSERT_TRUE(db->CreateTable("e", std::move(schema)).ok());  // stays empty
  // Probe (left) side empty, build side populated — and the reverse.
  ExpectParallelMatchesSerial(
      db.get(), "SELECT * FROM e, t WHERE e.id = t.id");
  ExpectParallelMatchesSerial(
      db.get(), "SELECT * FROM t, e WHERE t.id = e.id");
  // The Sieve plan shape: the probe side is a CTE whose body fans out over
  // 6000 rows and yields none; the join consumes it serially.
  auto big = MakeTable(6000);
  ExpectParallelMatchesSerial(big.get(),
                              "WITH p AS (SELECT * FROM t WHERE val > 100) "
                              "SELECT * FROM p, t WHERE p.id = t.id");
}

TEST(InteriorOperatorTest, HashJoinKeepsProbeAndMatchOrder) {
  auto db = MakeTable(2000, {10, 999});
  AddNamesTable(db.get());
  // Multiple probe rows share each build key; match order must survive.
  ExpectParallelMatchesSerial(
      db.get(), "SELECT t.id, names.name FROM t, names WHERE t.val = names.v");
  // The Sieve plan shape: the probe side is a CTE whose body fans out.
  auto big = MakeTable(6000, {10, 4999});
  AddNamesTable(big.get());
  ExpectParallelMatchesSerial(
      big.get(),
      "WITH p AS (SELECT * FROM t WHERE val < 5) "
      "SELECT p.id, names.name FROM p, names WHERE p.val = names.v");
}

TEST(InteriorOperatorTest, AggregateSingleGroup) {
  auto db = MakeTable(1000);
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT val, COUNT(*) AS n, SUM(id) AS s, MIN(id) AS mn, "
      "MAX(id) AS mx, AVG(id) AS av FROM t WHERE val = 3 GROUP BY val");
  // The Sieve plan shape: the aggregate reads a CTE whose body fans out.
  auto big = MakeTable(6000);
  ExpectParallelMatchesSerial(
      big.get(),
      "WITH p AS (SELECT * FROM t WHERE val = 3) "
      "SELECT val, COUNT(*) AS n, SUM(id) AS s, MIN(id) AS mn, "
      "MAX(id) AS mx, AVG(id) AS av FROM p GROUP BY val");
}

TEST(InteriorOperatorTest, AggregateEmptyInput) {
  auto db = MakeTable(500);
  // Global aggregate over zero rows still yields one row (COUNT = 0,
  // SUM/MIN/MAX/AVG NULL) — also when that input is a CTE whose body
  // fans out.
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT COUNT(*) AS n, SUM(val) AS s, MIN(val) AS mn, "
      "MAX(val) AS mx, AVG(val) AS av FROM t WHERE val > 100");
  // Grouped aggregate over zero rows yields zero rows.
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT val, COUNT(*) AS n FROM t WHERE val > 100 GROUP BY val");
  auto big = MakeTable(6000);
  ExpectParallelMatchesSerial(
      big.get(),
      "WITH p AS (SELECT * FROM t WHERE val > 100) "
      "SELECT COUNT(*) AS n, SUM(val) AS s, MIN(val) AS mn, "
      "MAX(val) AS mx, AVG(val) AS av FROM p");
}

TEST(InteriorOperatorTest, AggregateManyGroupsMatchesSerial) {
  auto db = MakeTable(5000, {3, 4444});
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT val, COUNT(*) AS n, SUM(id) AS s, MIN(id) AS mn, "
      "MAX(id) AS mx, AVG(id) AS av FROM t GROUP BY val");
  // The Sieve plan shape: the aggregate reads a CTE whose body fans out.
  ExpectParallelMatchesSerial(
      db.get(),
      "WITH p AS (SELECT * FROM t WHERE val < 6) "
      "SELECT val, COUNT(*) AS n, SUM(id) AS s, MIN(id) AS mn, "
      "MAX(id) AS mx, AVG(id) AS av FROM p GROUP BY val");
}

TEST(InteriorOperatorTest, CteMaterializesOnceAcrossWorkers) {
  auto db = MakeTable(3000);
  // The CTE is referenced by both UNION arms, which drain concurrently;
  // it must materialize exactly once (the stats equality below would fail
  // if an arm re-materialized it).
  ExpectParallelMatchesSerial(
      db.get(),
      "WITH p AS (SELECT * FROM t WHERE val < 5) "
      "SELECT val FROM p WHERE id < 1000 UNION "
      "SELECT val FROM p WHERE id > 2000");
}

TEST(InteriorOperatorTest, MorselsShareOneBoundInList) {
  // The CTE body's filter splits into morsels that share its bound IN node
  // and the constant set BindExpr built; evaluation only reads them, so the
  // morsels match the serial run (CI repeats this test under TSan).
  auto db = MakeTable(6000);
  ExpectParallelMatchesSerial(
      db.get(),
      "WITH p AS (SELECT id, val FROM t WHERE val IN (1, 3, 5)) "
      "SELECT * FROM p");
}

TEST(InteriorOperatorTest, SameNamedCtesInDifferentScopesStayApart) {
  // Each derived table defines its own `x`; each reference must read its
  // own definition's rows, at every thread count.
  auto db = MakeTable(10);
  const std::string sql =
      "SELECT * FROM (WITH x AS (SELECT * FROM t WHERE id < 2) "
      "SELECT * FROM x) a UNION ALL "
      "SELECT * FROM (WITH x AS (SELECT * FROM t WHERE id > 7) "
      "SELECT * FROM x) b";
  auto result = db->ExecuteSql(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<int64_t> ids;
  for (const Row& row : result->rows) ids.push_back(row[0].AsInt());
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 8, 9}));
  ExpectParallelMatchesSerial(db.get(), sql);
}

// ---------------------------------------------------------------------------
// Stats merging and timeout cancellation (engine level)
// ---------------------------------------------------------------------------

TEST(ParallelExecutionTest, StatsTotalsMatchSerialAcrossThreadCounts) {
  auto db = MakeTable(5000, {7, 1234, 4999});
  const std::string sql = "SELECT * FROM t WHERE val IN (1, 4, 6)";
  auto serial = db->ExecuteSql(sql);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->rows.size(), 0u);
  for (int threads : {2, 4, 8}) {
    auto parallel = db->ExecuteSql(sql, nullptr, 0.0, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(serial->rows.size(), parallel->rows.size());
    for (size_t i = 0; i < serial->rows.size(); ++i) {
      EXPECT_EQ(RowFingerprint(serial->rows[i]),
                RowFingerprint(parallel->rows[i]));
    }
    EXPECT_EQ(serial->stats, parallel->stats)
        << "threads=" << threads << " serial=" << serial->stats.ToString()
        << " parallel=" << parallel->stats.ToString();
  }
}

TEST(ParallelExecutionTest, TimeoutCancelsParallelScan) {
  auto db = MakeTable(50000);
  auto result =
      db->ExecuteSql("SELECT * FROM t WHERE val < 5", nullptr, 1e-9, 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST(ParallelExecutionTest, CancelFlagShortCircuitsCheckTimeout) {
  std::atomic<bool> cancel{true};
  ExecContext ctx;
  ctx.cancel = &cancel;
  Status st = ctx.CheckTimeout();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
}

// ---------------------------------------------------------------------------
// Middleware: guarded execution (including the Δ operator) in parallel
// ---------------------------------------------------------------------------

std::multiset<std::string> Fingerprints(const ResultSet& rs) {
  std::multiset<std::string> out;
  for (const auto& row : rs.rows) out.insert(RowFingerprint(row));
  return out;
}

TEST(ParallelExecutionTest, DeltaGuardExecutionMatchesSerial) {
  // ~150 policies for the same owner pile onto one guard, pushing its
  // partition past the Δ crossover — so this exercises concurrent Δ UDF
  // evaluation (shared delta partition, once-bound object expressions).
  MiniCampus campus(EngineProfile::PostgresLike());
  SieveMiddleware sieve(&campus.db(), &campus.groups());
  ASSERT_TRUE(sieve.Init().ok());
  for (int i = 0; i < 150; ++i) {
    int t1 = 6 + i % 10;
    Policy p = campus.MakePolicy(0, "alice", "Analytics", t1, t1 + 2, i % 6);
    ASSERT_TRUE(sieve.AddPolicy(std::move(p)).ok());
  }
  ASSERT_TRUE(sieve.AddPolicy(campus.MakePolicy(3, "alice", "Analytics")).ok());

  QueryMetadata md{"alice", "Analytics"};
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = 2";
  auto rewrite = sieve.Rewrite(sql, md);
  ASSERT_TRUE(rewrite.ok());
  size_t delta_guards = 0;
  for (const auto& info : rewrite->tables) delta_guards += info.num_delta_guards;
  ASSERT_GT(delta_guards, 0u) << "test corpus failed to trigger the Δ path";

  auto serial = sieve.Execute(sql, md);
  ASSERT_TRUE(serial.ok());
  auto oracle = sieve.ExecuteReference(sql, md);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Fingerprints(*serial), Fingerprints(*oracle));
  for (int threads : {2, 4, 8}) {
    SieveOptions options = sieve.options();
    options.num_threads = threads;
    ASSERT_TRUE(sieve.set_options(options).ok());
    auto parallel = sieve.Execute(sql, md);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(Fingerprints(*serial), Fingerprints(*parallel))
        << "threads=" << threads;
    EXPECT_EQ(serial->stats, parallel->stats)
        << "threads=" << threads << " serial=" << serial->stats.ToString()
        << " parallel=" << parallel->stats.ToString();
  }
}

// ---------------------------------------------------------------------------
// Vectorized batches and morsels
// ---------------------------------------------------------------------------

TEST(RowBatchTest, ColumnarAppendAndMaterialize) {
  RowBatch batch(2);
  EXPECT_EQ(batch.capacity(), 2u);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(batch.full());

  batch.PushRow(Row{Value::Int(7), Value::String("payload")});
  batch.PushRow(Row{Value::Null(), Value::String("other")});
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.num_columns(), 2u);

  // Cells come back bit-identical through ValueAt and MaterializeRow.
  EXPECT_EQ(batch.ValueAt(0, 0), Value::Int(7));
  EXPECT_EQ(batch.ValueAt(1, 0), Value::Null());
  EXPECT_EQ(batch.ValueAt(1, 1), Value::String("other"));
  Row row;
  batch.MaterializeRow(0, &row);
  EXPECT_EQ(row, (Row{Value::Int(7), Value::String("payload")}));

  // The int column decays to a typed vector readable by kernels.
  const RowBatch::Column& col0 = batch.column(0);
  ASSERT_FALSE(col0.generic);
  EXPECT_EQ(col0.type, DataType::kInt);
  EXPECT_EQ(col0.i64[0], 7);
  EXPECT_NE(col0.nulls[1], 0);

  // clear() keeps the arena; the batch is reusable with a fresh layout.
  batch.clear();
  EXPECT_TRUE(batch.empty());
  batch.PushRow(Row{Value::Double(1.5), Value::Null()});
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.ValueAt(0, 0), Value::Double(1.5));

  // Zero capacity clamps to one row.
  RowBatch clamped(0);
  EXPECT_EQ(clamped.capacity(), 1u);
}

TEST(RowBatchTest, SelectionVectorNarrowsWithoutCopying) {
  RowBatch batch(8);
  for (int i = 0; i < 8; ++i) {
    batch.PushRow(Row{Value::Int(i)});
  }
  EXPECT_EQ(batch.selection(), nullptr);  // dense until narrowed

  // Keep the odd rows; logical order must follow physical order.
  uint8_t pass1[] = {0, 1, 0, 1, 0, 1, 0, 1};
  batch.NarrowToPassing(pass1);
  ASSERT_EQ(batch.size(), 4u);
  ASSERT_NE(batch.selection(), nullptr);
  for (size_t k = 0; k < batch.size(); ++k) {
    EXPECT_EQ(batch.ValueAt(k, 0), Value::Int(static_cast<int>(2 * k + 1)));
  }

  // Narrowing an already-narrowed batch composes (selection of selection).
  uint8_t pass2[] = {1, 0, 1, 0};
  batch.NarrowToPassing(pass2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ValueAt(0, 0), Value::Int(1));
  EXPECT_EQ(batch.ValueAt(1, 0), Value::Int(5));

  // All-filtered leaves a valid empty batch.
  uint8_t none[] = {0, 0};
  batch.NarrowToPassing(none);
  EXPECT_TRUE(batch.empty());
}

TEST(RowBatchTest, ExternalRowsShareStorage) {
  // AppendExternalRow serves string cells as views into the caller's
  // stable storage; MaterializeRow deep-copies them back out.
  std::vector<Row> stable;
  stable.push_back(Row{Value::String("alpha"), Value::Int(1)});
  stable.push_back(Row{Value::String("beta"), Value::Null()});

  RowBatch batch(4);
  for (const Row& r : stable) batch.AppendExternalRow(r);
  ASSERT_EQ(batch.size(), 2u);
  const RowBatch::Column& col0 = batch.column(0);
  ASSERT_FALSE(col0.generic);
  EXPECT_EQ(col0.type, DataType::kString);
  EXPECT_EQ(col0.str[0].data(), stable[0][0].AsString().data());  // a view
  Row out;
  batch.MaterializeRow(1, &out);
  EXPECT_EQ(out, stable[1]);
}

TEST(RowBatchTest, MixedTypeColumnDemotesToGenericCells) {
  // A column whose cells disagree on type falls back to generic Value
  // storage; reads must stay bit-identical.
  RowBatch batch(4);
  batch.PushRow(Row{Value::Int(1)});
  batch.PushRow(Row{Value::String("oops")});
  batch.PushRow(Row{Value::Double(2.5)});
  const RowBatch::Column& col = batch.column(0);
  EXPECT_TRUE(col.generic);
  EXPECT_EQ(batch.ValueAt(0, 0), Value::Int(1));
  EXPECT_EQ(batch.ValueAt(1, 0), Value::String("oops"));
  EXPECT_EQ(batch.ValueAt(2, 0), Value::Double(2.5));
}

TEST(RowBatchTest, EffectiveBatchSizePicksAdaptiveWidth) {
  // Explicit sizes pass through untouched.
  EXPECT_EQ(EffectiveBatchSize(1, 100), 1u);
  EXPECT_EQ(EffectiveBatchSize(777, 3), 777u);
  // Adaptive (0): narrow rows get big batches, wide rows small ones,
  // clamped to [64, 1024].
  EXPECT_EQ(EffectiveBatchSize(0, 1), 1024u);
  EXPECT_EQ(EffectiveBatchSize(0, 0), 1024u);  // width unknown -> max
  EXPECT_EQ(EffectiveBatchSize(0, 1000), 64u);
  size_t mid = EffectiveBatchSize(0, 8);
  EXPECT_GE(mid, 64u);
  EXPECT_LE(mid, 1024u);
}

TEST(PlanPartitionCountTest, SizesMorselsByInputRows) {
  ExecContext ctx;
  ctx.num_threads = 4;

  auto db = MakeTable(100);  // tiny: one morsel, not 4 near-empty ones
  TableEntry* entry = db->catalog().Get("t").value();
  SeqScanOperator tiny(entry, "");
  EXPECT_EQ(PlanPartitionCount(tiny, ctx), 1u);

  auto big_db = MakeTable(100000);  // large: capped at threads * 8
  TableEntry* big_entry = big_db->catalog().Get("t").value();
  SeqScanOperator big(big_entry, "");
  EXPECT_EQ(PlanPartitionCount(big, ctx), 32u);

  // Mid-size: one morsel per ~batch of rows.
  auto mid_db = MakeTable(5000);
  TableEntry* mid_entry = mid_db->catalog().Get("t").value();
  SeqScanOperator mid(mid_entry, "");
  EXPECT_EQ(PlanPartitionCount(mid, ctx), 4u);

  // An opened index scan is sized by the row ids it probed, not by the
  // table's slots: 5 of 100,000 rows make one morsel.
  IndexRange five;
  five.column = "id";
  five.lo = Value::Int(500);
  five.hi = Value::Int(504);
  IndexRangeScanOperator probe(big_entry, "", five);
  ExecContext open_ctx;
  open_ctx.catalog = &big_db->catalog();
  ASSERT_TRUE(probe.Open(&open_ctx).ok());
  EXPECT_EQ(probe.PartitionRows(), 5u);
  EXPECT_EQ(PlanPartitionCount(probe, ctx), 1u);
}

// Compares ExecuteSql at (threads, batch) against the serial reference
// at batch capacity 1 (threads = 1, batch = 1): rows, order, stats.
void ExpectModeMatchesReference(Database* db, const std::string& sql,
                                int threads, int batch) {
  auto reference = db->ExecuteSql(sql, nullptr, 0.0, 1, 1);
  ASSERT_TRUE(reference.ok()) << sql << " -> "
                              << reference.status().ToString();
  auto swept = db->ExecuteSql(sql, nullptr, 0.0, threads, batch);
  ASSERT_TRUE(swept.ok()) << sql << " threads=" << threads
                          << " batch=" << batch << " -> "
                          << swept.status().ToString();
  ASSERT_EQ(reference->rows.size(), swept->rows.size())
      << sql << " threads=" << threads << " batch=" << batch;
  for (size_t i = 0; i < reference->rows.size(); ++i) {
    EXPECT_EQ(RowFingerprint(reference->rows[i]),
              RowFingerprint(swept->rows[i]))
        << sql << " threads=" << threads << " batch=" << batch << " row " << i;
  }
  EXPECT_EQ(reference->stats, swept->stats)
      << sql << " threads=" << threads << " batch=" << batch
      << " reference=" << reference->stats.ToString()
      << " swept=" << swept->stats.ToString();
}

TEST(BatchExecutionTest, BatchBoundaryExactlyAtPartitionEdge) {
  // 4096 slots split into 2 morsels of 2048 = exactly 2 batches of 1024
  // (and exactly 32 batches of 64): the end-of-morsel and end-of-batch
  // edges coincide, so an off-by-one in either loop shows up as a lost or
  // duplicated boundary row.
  auto db = MakeTable(4096);
  for (int batch : {64, 1024}) {
    ExpectModeMatchesReference(db.get(), "SELECT * FROM t WHERE val < 5", 2,
                               batch);
    ExpectModeMatchesReference(db.get(), "SELECT val FROM t", 2, batch);
  }
}

TEST(BatchExecutionTest, EmptyMorselsFromSparsePartitions) {
  // 3 live rows sliced into 8 partition clones: most morsels drain zero
  // rows, and their NextBatch must report exhaustion without emitting an
  // empty batch as data.
  auto db = MakeTable(3);
  TableEntry* entry = db->catalog().Get("t").value();
  SeqScanOperator serial(entry, "");
  SeqScanOperator partitioned(entry, "");
  ExpectPartitionsMatchSerial(&serial, &partitioned, 8, &db->catalog());

  // Whole-pipeline version: tombstone a slot so a mid-table morsel is
  // empty even though its slot range is not.
  auto sparse = MakeTable(4000, {1000, 1001, 1002, 1003});
  ExpectModeMatchesReference(sparse.get(), "SELECT * FROM t WHERE val = 1", 8,
                             1024);
}

TEST(BatchExecutionTest, CapacityOneBatchesMatchLargerBatches) {
  auto db = MakeTable(3000, {5, 2999});
  const char* queries[] = {
      "SELECT * FROM t WHERE val IN (1, 4)",
      "SELECT val FROM t WHERE id < 100 UNION SELECT val FROM t",
      "SELECT val, COUNT(*) AS n FROM t GROUP BY val",
      "SELECT * FROM t WHERE val < 3 EXCEPT SELECT * FROM t WHERE id < 50",
  };
  for (const char* sql : queries) {
    // Capacity-1 batches must agree with the default batch size at every
    // thread count (all against the serial batch-1 reference).
    ExpectModeMatchesReference(db.get(), sql, 1, 1024);
    ExpectModeMatchesReference(db.get(), sql, 4, 1);
    ExpectModeMatchesReference(db.get(), sql, 4, 1024);
  }
}

TEST(BatchExecutionTest, MidBatchTimeoutSurfacesAsTimeout) {
  // The timeout epoch starts before the scan; with an effectively-zero
  // budget the first per-batch check (between batches, i.e. "mid-stream")
  // must abort the query — serial and parallel, big and degenerate
  // batches.
  auto db = MakeTable(50000);
  for (int threads : {1, 4}) {
    for (int batch : {1, 1024}) {
      auto result = db->ExecuteSql("SELECT * FROM t WHERE val < 5", nullptr,
                                   1e-9, threads, batch);
      ASSERT_FALSE(result.ok()) << "threads=" << threads << " batch=" << batch;
      EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(BatchExecutionTest, ThrowingMorselFailsQueryDeterministically) {
  // A morsel whose guard evaluation throws (here: a UDF raising a C++
  // exception) must fail the whole query with an ExecutionError naming
  // the partition — and the same partition every run, regardless of
  // scheduling (lowest index wins at the merge barrier).
  auto db = MakeTable(6000);
  ASSERT_TRUE(db->udfs()
                  .Register("boom",
                            [](const std::vector<Value>&,
                               UdfContext&) -> Result<Value> {
                              throw std::runtime_error("udf exploded");
                            })
                  .ok());
  for (int threads : {2, 8}) {
    for (int batch : {1, 1024}) {
      auto result = db->ExecuteSql("SELECT * FROM t WHERE boom() = true",
                                   nullptr, 0.0, threads, batch);
      ASSERT_FALSE(result.ok()) << "threads=" << threads << " batch=" << batch;
      EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
      EXPECT_NE(result.status().message().find("partition worker 0 threw"),
                std::string::npos)
          << result.status().ToString();
      EXPECT_NE(result.status().message().find("udf exploded"),
                std::string::npos)
          << result.status().ToString();
    }
  }
}

TEST(BatchExecutionTest, NestedFanOutReportsFirstArmError) {
  // The UNION arms run as workers of one fan-out, and each arm's scan
  // partitions again inside its worker. Both arms throw, with distinct
  // messages. Arm 1's failure must not cancel arm 0 before arm 0 reaches
  // its own error, so arm 0's error wins every run.
  auto db = MakeTable(6000);
  for (std::string name : {"boom0", "boom1"}) {
    const std::string message = name + " exploded";
    ASSERT_TRUE(db->udfs()
                    .Register(name,
                              [message](const std::vector<Value>&,
                                        UdfContext&) -> Result<Value> {
                                throw std::runtime_error(message);
                              })
                    .ok());
  }
  const char* sql =
      "SELECT * FROM t WHERE boom0() = true UNION "
      "SELECT * FROM t WHERE boom1() = true";
  for (int threads : {2, 8}) {
    auto result = db->ExecuteSql(sql, nullptr, 0.0, threads);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kExecutionError)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("boom0 exploded"),
              std::string::npos)
        << "threads=" << threads << ": " << result.status().ToString();
  }
}

TEST(InteriorOperatorTest, ExceptKeepsFirstOccurrences) {
  // Duplicate-heavy projections, so the distinct filter works.
  auto db = MakeTable(6000, {17, 4242});
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT * FROM t WHERE val < 4 EXCEPT SELECT * FROM t WHERE id < 2000");
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT val FROM t EXCEPT SELECT val FROM t WHERE val > 3");
  // Empty minuend and empty subtrahend.
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT * FROM t WHERE id < 0 EXCEPT SELECT * FROM t WHERE val = 1");
  ExpectParallelMatchesSerial(
      db.get(),
      "SELECT * FROM t WHERE val = 1 EXCEPT SELECT * FROM t WHERE id < 0");
  // The Sieve plan shape: the minuend is a CTE whose body fans out over
  // more than one morsel of rows.
  ExpectParallelMatchesSerial(
      db.get(),
      "WITH p AS (SELECT * FROM t WHERE val < 6) "
      "SELECT val FROM p EXCEPT SELECT val FROM t WHERE val > 3");
}

TEST(BatchExecutionTest, AggregateOutputSpansManyBatches) {
  // One group per live id: HashAggregate's NextBatch must serve far more
  // groups than one batch holds, resuming exactly where the last batch
  // stopped, at every thread count.
  auto db = MakeTable(3000, {5, 2999});
  const char* sql = "SELECT id, COUNT(*) AS n FROM t GROUP BY id";
  auto reference = db->ExecuteSql(sql, nullptr, 0.0, 1, 1);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->rows.size(), 2998u);
  for (const Row& row : reference->rows) EXPECT_EQ(row[1].AsInt(), 1);
  ExpectModeMatchesReference(db.get(), sql, 1, 3);
  ExpectModeMatchesReference(db.get(), sql, 1, 1024);
  ExpectModeMatchesReference(db.get(), sql, 4, 64);
  ExpectModeMatchesReference(db.get(), sql, 4, 1024);
}

TEST(BatchExecutionTest, NestedLoopJoinNativeBatchPath) {
  // Non-equi predicate forces the nested-loop plan; its native NextBatch
  // crosses whole outer batches against the materialized right side, and
  // CreatePartitions splits the outer pipeline while every clone borrows
  // the one materialization of the inner side.
  auto db = MakeTable(300);
  Schema schema({{"v", DataType::kInt}, {"name", DataType::kString}});
  ASSERT_TRUE(db->CreateTable("names", std::move(schema)).ok());
  const char* names[] = {"zero", "one", "two", "three"};
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(
        db->Insert("names", Row{Value::Int(v), Value::String(names[v])}).ok());
  }
  const char* sql =
      "SELECT t.id, names.name FROM t, names WHERE t.val < names.v";
  ExpectModeMatchesReference(db.get(), sql, 1, 1024);
  ExpectModeMatchesReference(db.get(), sql, 1, 3);
  ExpectModeMatchesReference(db.get(), sql, 4, 64);
  ExpectModeMatchesReference(db.get(), sql, 8, 1);

  // Empty inner side: the outer must still drain (stats parity).
  const char* empty_inner =
      "SELECT t.id, names.name FROM t, names WHERE names.v > 100 AND t.val < "
      "names.v";
  ExpectModeMatchesReference(db.get(), empty_inner, 1, 1024);
  ExpectModeMatchesReference(db.get(), empty_inner, 4, 64);

  // 300 outer rows are one morsel at every thread count; 6,000 are
  // several, so clones really borrow the inner side, and a filtered
  // derived table's rows, across workers.
  auto big = MakeTable(6000, {17, 4242});
  AddNamesTable(big.get());
  const char* borrowed[] = {
      "SELECT t.id, names.name FROM t, names WHERE t.val < names.v",
      "SELECT d.id, d.val FROM (SELECT * FROM t WHERE val < 5) AS d "
      "WHERE d.id > 100",
  };
  for (const char* borrowed_sql : borrowed) {
    for (int threads : {2, 4, 8}) {
      ExpectModeMatchesReference(big.get(), borrowed_sql, threads, 1024);
    }
  }
}

}  // namespace
}  // namespace sieve
