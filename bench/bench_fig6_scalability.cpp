// Experiment 5 / Figure 6: scalability on the Mall dataset (PostgreSQL-like
// profile): speedup of SIEVE over the baseline as the number of policies
// per querier grows from 100 to 1200. Paper: speedup grows ~linearly from
// 1.6x (100 policies) to 5.6x (1200 policies).
//
// Extensions: a partition-parallel thread sweep on the same guarded-scan
// workload (num_threads 1, 2, 4, 8) showing how guarded-expression
// enforcement scales with cores; an interior-operator sweep (UNION / join
// / aggregate tops, plus the MySQL-profile IndexGuards UNION on the
// TIPPERS world), both timed as medians over interleaved rounds; and a
// batch-size sweep comparing the default batch
// size against capacity-1 batches (batch_size = 1) per operator shape;
// and a columnar section recording the typed-column guard kernels (fixed
// 1024 and adaptive batch sizing) against the batch-1 reference on the
// guard-dominated scan. All sections are emitted to BENCH_fig6.json —
// with the build's -march and SIMD width in the metadata object — so the
// perf trajectory accumulates across commits.

#include <iterator>
#include <thread>

#include "bench/harness.h"

using namespace sieve;         // NOLINT
using namespace sieve::bench;  // NOLINT

namespace {

constexpr int kNumShops = 5;
const int kSizes[] = {100, 400, 1200};
const int kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kNumThreadCounts = std::size(kThreadCounts);

// Rounds of the thread sweeps. Every round times every (query, thread
// count) cell once per querier, so drift in host speed spreads over all
// cells instead of landing on a speedup; a cell reports the median of its
// rounds x queriers samples.
constexpr int kSweepRounds = 6;

// Median of `samples`, or -1 when there are none.
double Median(std::vector<double> samples) {
  if (samples.empty()) return -1;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

void SetThreads(SieveMiddleware* sieve, int threads) {
  SieveOptions options = sieve->options();
  options.num_threads = threads;
  if (!sieve->set_options(options).ok()) std::abort();  // validated knob
}

// Median ms of each (query, thread count) cell over kSweepRounds
// interleaved rounds, each round timing every query once per querier at
// every thread count; each round starts the thread counts at a rotated
// offset so no count always runs first. -1 marks a cell with no
// successful run. Leaves the middleware at 1 thread.
std::vector<std::vector<double>> SweepThreads(
    SieveMiddleware* sieve, const std::vector<QueryMetadata>& queriers,
    const std::vector<std::string>& queries) {
  std::vector<std::vector<std::vector<double>>> samples(
      queries.size(), std::vector<std::vector<double>>(kNumThreadCounts));
  for (int round = 0; round < kSweepRounds; ++round) {
    for (size_t k = 0; k < kNumThreadCounts; ++k) {
      const size_t t = (k + static_cast<size_t>(round)) % kNumThreadCounts;
      SetThreads(sieve, kThreadCounts[t]);
      for (size_t q = 0; q < queries.size(); ++q) {
        for (const QueryMetadata& md : queriers) {
          double s = TimeQuery([&] { return sieve->Execute(queries[q], md); });
          if (s >= 0) samples[q][t].push_back(s);
        }
      }
    }
  }
  SetThreads(sieve, 1);
  std::vector<std::vector<double>> medians(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (auto& cell : samples[q]) medians[q].push_back(Median(cell));
  }
  return medians;
}

std::vector<Policy> MakePolicyStream(const MallDataset& ds, int tag,
                                     int count) {
  Rng rng(7000 + static_cast<uint64_t>(tag));
  std::vector<Policy> out;
  for (int k = 0; k < count; ++k) {
    int customer = static_cast<int>(
        rng.Uniform(0, ds.config.num_customers - 1));
    Policy p;
    p.table_name = "WiFi_Connectivity";
    p.owner = Value::Int(customer);
    p.purpose = "Marketing";
    p.object_conditions.push_back(
        ObjectCondition::Eq("owner", Value::Int(customer)));
    if (rng.Chance(0.6)) {
      int64_t h = rng.Uniform(10, 18);
      p.object_conditions.push_back(ObjectCondition::Range(
          "obs_time", Value::Time(h * 3600), Value::Time((h + 2) * 3600)));
    }
    if (rng.Chance(0.4)) {
      int64_t d = rng.Uniform(0, ds.config.num_days - 3);
      p.object_conditions.push_back(ObjectCondition::Range(
          "obs_date", Value::Date(ds.first_day + d),
          Value::Date(ds.first_day + d + 2)));
    }
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== Figure 6: scalability on the Mall dataset "
              "(PostgreSQL-like profile) ===\n\n");
  Database db(EngineProfile::PostgresLike());
  MallConfig config;
  config.num_customers = 1500;
  config.target_events = 150000;
  MallGenerator generator(config);
  auto ds = generator.Populate(&db);
  if (!ds.ok()) return 1;

  MapGroupResolver no_groups;
  SieveOptions options;
  options.timeout_seconds = kTimeoutSeconds;
  SieveMiddleware sieve(&db, &no_groups, options);
  if (!sieve.Init().ok()) return 1;
  Baselines baselines(&db, &sieve.policies(), &no_groups);
  if (!baselines.Init().ok()) return 1;

  // Cumulative policy sets per querier, installed as distinct identities.
  for (int shop = 0; shop < kNumShops; ++shop) {
    std::vector<Policy> stream = MakePolicyStream(*ds, shop, kSizes[2]);
    for (int size : kSizes) {
      std::string querier = StrFormat("fig6_shop%d_s%d", shop, size);
      for (int k = 0; k < size; ++k) {
        Policy copy = stream[static_cast<size_t>(k)];
        copy.id = -1;
        copy.querier = querier;
        (void)sieve.AddPolicy(std::move(copy));
      }
    }
  }
  std::printf("events=%zu total-policies=%zu\n\n", ds->num_events,
              sieve.policies().size());

  const std::string sql = "SELECT * FROM WiFi_Connectivity";
  std::vector<JsonRow> json_rows;
  TablePrinter table({"|P| per querier", "BaselineP ms", "SIEVE ms",
                      "speedup"});
  for (int size : kSizes) {
    double sum_base = 0, sum_sieve = 0;
    int n = 0;
    for (int shop = 0; shop < kNumShops; ++shop) {
      QueryMetadata md{StrFormat("fig6_shop%d_s%d", shop, size), "Marketing"};
      double b = TimeQuery([&] {
        return baselines.Execute(BaselineKind::kP, sql, md, kTimeoutSeconds);
      });
      double s = TimeQuery([&] { return sieve.Execute(sql, md); });
      if (b < 0 || s < 0) continue;
      sum_base += b;
      sum_sieve += s;
      ++n;
    }
    if (n == 0) continue;
    table.AddRow({StrFormat("%d", size), StrFormat("%.1f", sum_base / n),
                  StrFormat("%.1f", sum_sieve / n),
                  StrFormat("%.2fx", sum_base / std::max(1e-9, sum_sieve))});
    json_rows.push_back(JsonRow()
                            .Set("section", std::string("policy_scaling"))
                            .Set("policies", size)
                            .Set("threads", 1)
                            .Set("baseline_ms", sum_base / n)
                            .Set("sieve_ms", sum_sieve / n));
  }
  table.Print();
  std::printf("\nExpected shape (paper Fig. 6): the SIEVE-vs-baseline "
              "speedup grows with the\nnumber of policies (paper: 1.6x at "
              "100 policies to 5.6x at 1200).\n");

  // ---- Thread sweep: partition-parallel guarded scans ----
  std::printf("\n=== Extension: thread scaling of the guarded scan "
              "(|P|=%d per querier, %u hardware threads) ===\n\n",
              kSizes[2], std::thread::hardware_concurrency());
  TablePrinter threads_table({"threads", "SIEVE ms", "speedup vs 1T"});
  std::vector<QueryMetadata> mall_queriers;
  for (int shop = 0; shop < kNumShops; ++shop) {
    mall_queriers.push_back(
        {StrFormat("fig6_shop%d_s%d", shop, kSizes[2]), "Marketing"});
  }
  const std::vector<double> scan_ms =
      SweepThreads(&sieve, mall_queriers, {sql}).front();
  for (size_t t = 0; t < kNumThreadCounts; ++t) {
    const double ms = scan_ms[t];
    if (ms < 0) continue;
    const double one_thread_ms = scan_ms[0];
    threads_table.AddRow(
        {StrFormat("%d", kThreadCounts[t]), StrFormat("%.1f", ms),
         one_thread_ms > 0 ? StrFormat("%.2fx", one_thread_ms / ms)
                           : std::string("-")});
    json_rows.push_back(JsonRow()
                            .Set("section", std::string("thread_scaling"))
                            .Set("policies", kSizes[2])
                            .Set("threads", kThreadCounts[t])
                            .Set("sieve_ms", ms));
  }
  threads_table.Print();
  std::printf("\nMedians of %d interleaved rounds x %d queriers per "
              "row.\nExpected shape: the speedup grows with threads up to the "
              "core count while the\nΔ-heavy guarded scan dominates; beyond "
              "the cores the extra threads only add\noverhead. Results and "
              "stats stay identical to serial either way.\n",
              kSweepRounds, kNumShops);

  // ---- Interior-operator sweep: UNION / join / aggregate tops ----
  // The scan sweep above parallelizes the policy-filtered CTE; these
  // queries put an operator on top of it: a UNION whose two arms drain
  // concurrently, and a hash join against the unprotected Shops table and
  // an aggregate, both of which consume the parallel-materialized CTE on
  // one thread. The last cell is the MySQL-profile IndexGuards rewrite on
  // the TIPPERS world, whose CTE body is itself a UNION of one FORCE INDEX
  // arm per guard: there the arms are what runs concurrently.
  std::printf("\n=== Extension: interior-operator thread scaling "
              "(|P|=%d per Mall querier) ===\n\n",
              kSizes[2]);
  struct InteriorQuery {
    const char* label;
    std::string sql;
  };
  const InteriorQuery interior_queries[] = {
      {"union",
       "SELECT * FROM WiFi_Connectivity WHERE obs_time BETWEEN '10:00' AND "
       "'12:00' UNION SELECT * FROM WiFi_Connectivity WHERE shop_id = 1"},
      {"join",
       "SELECT w.id, w.owner, s.type FROM WiFi_Connectivity w, Shops s "
       "WHERE w.shop_id = s.id"},
      {"aggregate",
       "SELECT shop_id, COUNT(*) AS n, MIN(obs_time) AS mn, "
       "MAX(obs_time) AS mx, AVG(owner) AS av FROM WiFi_Connectivity "
       "GROUP BY shop_id"},
  };
  TablePrinter interior_table({"query", "threads", "SIEVE ms",
                               "speedup vs 1T"});
  auto add_interior_rows = [&](const std::string& label, int policies,
                               const std::vector<double>& cells) {
    for (size_t t = 0; t < kNumThreadCounts; ++t) {
      const double ms = cells[t];
      if (ms < 0) continue;
      interior_table.AddRow(
          {label, StrFormat("%d", kThreadCounts[t]), StrFormat("%.1f", ms),
           cells[0] > 0 ? StrFormat("%.2fx", cells[0] / ms)
                        : std::string("-")});
      json_rows.push_back(JsonRow()
                              .Set("section", std::string("interior_operators"))
                              .Set("query", label)
                              .Set("policies", policies)
                              .Set("threads", kThreadCounts[t])
                              .Set("sieve_ms", ms));
    }
  };
  std::vector<std::string> interior_sql;
  for (const InteriorQuery& q : interior_queries) interior_sql.push_back(q.sql);
  const std::vector<std::vector<double>> interior_ms =
      SweepThreads(&sieve, mall_queriers, interior_sql);
  for (size_t q = 0; q < interior_sql.size(); ++q) {
    add_interior_rows(interior_queries[q].label, kSizes[2], interior_ms[q]);
  }
  {
    // The top faculty querier, timed kNumShops times per round so the
    // cell has as many samples as a Mall cell.
    auto tippers = MakeTippersWorld(EngineProfile::MySqlLike());
    if (tippers == nullptr) return 1;
    const auto top = tippers->TopQueriers("faculty", 1);
    if (top.empty()) return 1;
    const std::vector<QueryMetadata> repeated(
        kNumShops, QueryMetadata{top[0].first, "Analytics"});
    const std::vector<double> cells =
        SweepThreads(tippers->sieve.get(), repeated,
                     {"SELECT * FROM WiFi_Dataset"})
            .front();
    add_interior_rows("index_guards_union", static_cast<int>(top[0].second),
                      cells);
  }
  interior_table.Print();
  std::printf("\nMedians of %d interleaved rounds x %d samples per "
              "row.\nExpected shape: the Mall rows track the scan sweep as "
              "far as the guarded CTE\nbody dominates — it materializes in "
              "parallel morsels under all three tops,\nwhile the join and "
              "aggregate above it run on one thread. index_guards_union\n"
              "(SELECT * for the TIPPERS faculty querier with the most "
              "policies, MySQL\nprofile) scales only as far as its guard "
              "arms balance. With fewer cores than\nthreads the extra "
              "threads only add overhead. Correctness (rows, order, "
              "stats)\nis asserted by the test suite, not here.\n",
              kSweepRounds, kNumShops);

  // ---- Batch-size sweep: default batches vs capacity-1 batches ----
  // Single-threaded on purpose: this isolates the interpretation overhead
  // the batch executor amortizes (per-call NextBatch dispatch and
  // bookkeeping, per-row predicate walks, per-row timeout checks) from
  // parallel speedup. batch_size = 1 runs the same operators on
  // capacity-1 batches; 1024 is the default.
  std::printf("\n=== Extension: batch-size sweep (default vs "
              "capacity-1 batches, 1 thread, |P|=%d per querier) ===\n\n",
              kSizes[2]);
  struct ShapeQuery {
    const char* label;
    std::string sql;
  };
  const ShapeQuery shape_queries[] = {
      {"scan_filter", sql},  // the guarded scan: Filter(guards) over the CTE
      {"union", interior_queries[0].sql},
      {"join", interior_queries[1].sql},
      {"aggregate", interior_queries[2].sql},
  };
  auto set_batch = [&sieve](int batch) {
    SieveOptions options = sieve.options();
    options.num_threads = 1;
    options.batch_size = batch;
    if (!sieve.set_options(options).ok()) std::abort();  // validated knob
  };
  TablePrinter batch_table({"query", "batch_size", "SIEVE ms",
                            "speedup vs batch=1"});
  double scan_filter_speedup = 0;
  double scan_filter_batch1_ms = -1;
  for (const ShapeQuery& q : shape_queries) {
    double batch1_ms = -1;
    for (int batch : {1, 64, 1024}) {
      if (batch != 1 && batch1_ms <= 0) {
        // No batch=1 baseline (timeout/failure): a speedup would be
        // meaningless, so skip the shape instead of recording 0x rows
        // into the accumulated perf trajectory.
        std::fprintf(stderr,
                     "warning: no batch=1 baseline for %s; skipping\n",
                     q.label);
        break;
      }
      set_batch(batch);
      double sum_sieve = 0;
      int n = 0;
      for (int shop = 0; shop < kNumShops; ++shop) {
        QueryMetadata md{StrFormat("fig6_shop%d_s%d", shop, kSizes[2]),
                         "Marketing"};
        double s = TimeQuery([&] { return sieve.Execute(q.sql, md); });
        if (s < 0) continue;
        sum_sieve += s;
        ++n;
      }
      if (n == 0) continue;
      double ms = sum_sieve / n;
      if (batch == 1) batch1_ms = ms;
      double speedup = batch1_ms > 0 ? batch1_ms / ms : 0;
      if (std::string(q.label) == "scan_filter") {
        if (batch == 1) scan_filter_batch1_ms = ms;
        if (batch == 1024) scan_filter_speedup = speedup;
      }
      batch_table.AddRow(
          {q.label, StrFormat("%d", batch), StrFormat("%.1f", ms),
           batch == 1 ? std::string("-") : StrFormat("%.2fx", speedup)});
      json_rows.push_back(JsonRow()
                              .Set("section", std::string("batch_size"))
                              .Set("query", std::string(q.label))
                              .Set("policies", kSizes[2])
                              .Set("threads", 1)
                              .Set("batch_size", batch)
                              .Set("sieve_ms", ms)
                              .Set("speedup_vs_batch1", speedup));
    }
  }
  set_batch(1024);
  batch_table.Print();
  std::printf("\nExpected shape: batches of 1024 >= 2x capacity-1 "
              "batches (batch_size=1)\non the scan_filter guard "
              "sweep (measured: %.2fx); the other shapes gain\nwherever "
              "their input pipeline dominates. Unlike the thread sweeps, "
              "this one\nholds on 1-core machines too — it amortizes "
              "interpretation, not hardware.\n",
              scan_filter_speedup);

  // ---- Columnar guard kernels: fixed + adaptive batch vs batch 1 ----
  // The acceptance bar for the columnar RowBatch layout: the guard-dominated
  // scan_filter shape, where the comparison/AND/OR predicate tree compiles to
  // branch-free typed-column loops, at the default vectorized batch (1024)
  // and at the adaptive width (batch_size = 0: sized from the operator's
  // column count to a ~48KB working set), both against the batch_size = 1
  // reference measured above. The build's -march and SIMD
  // width land in the JSON metadata so regressions are attributable to the
  // instruction set they ran with.
  std::printf("\n=== Extension: columnar guard kernels (scan_filter, "
              "1 thread, -march=%s, %d-bit SIMD) ===\n\n",
              MarchFlag(), SimdVectorWidthBits());
  TablePrinter columnar_table({"batch_size", "SIEVE ms",
                               "speedup vs batch=1"});
  double columnar_speedup = 0;
  if (scan_filter_batch1_ms > 0) {
    for (int batch : {1024, 0}) {
      set_batch(batch);
      double sum_sieve = 0;
      int n = 0;
      for (int shop = 0; shop < kNumShops; ++shop) {
        QueryMetadata md{StrFormat("fig6_shop%d_s%d", shop, kSizes[2]),
                         "Marketing"};
        double s = TimeQuery([&] { return sieve.Execute(sql, md); });
        if (s < 0) continue;
        sum_sieve += s;
        ++n;
      }
      if (n == 0) continue;
      double ms = sum_sieve / n;
      double speedup = scan_filter_batch1_ms / ms;
      if (batch == 1024) columnar_speedup = speedup;
      columnar_table.AddRow(
          {batch == 0 ? std::string("adaptive") : StrFormat("%d", batch),
           StrFormat("%.1f", ms), StrFormat("%.2fx", speedup)});
      json_rows.push_back(JsonRow()
                              .Set("section", std::string("columnar"))
                              .Set("query", std::string("scan_filter"))
                              .Set("policies", kSizes[2])
                              .Set("threads", 1)
                              .Set("batch_size", batch)
                              .Set("row_at_a_time_ms", scan_filter_batch1_ms)
                              .Set("sieve_ms", ms)
                              .Set("speedup_vs_row", speedup));
    }
    set_batch(1024);
    columnar_table.Print();
    std::printf("\nTarget: >= 1.5x over batch_size=1 on the guard-dominated "
                "scan (measured:\n%.2fx at batch 1024). The adaptive row "
                "sizes each operator's batch from its\ncolumn count, trading "
                "peak amortization for cache residency on wide rows.\n",
                columnar_speedup);
  } else {
    std::fprintf(stderr,
                 "warning: no scan_filter batch=1 baseline; "
                 "skipping the columnar section\n");
  }

  if (!WriteBenchJson("fig6_scalability", "BENCH_fig6.json", json_rows)) {
    std::fprintf(stderr, "warning: could not write BENCH_fig6.json\n");
  } else {
    std::printf("\nwrote BENCH_fig6.json (%zu rows)\n", json_rows.size());
  }
  return 0;
}
