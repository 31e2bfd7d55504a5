// Prepared-query throughput: how much of the per-query middleware cost the
// session API amortizes away. Three paths run the same hot query:
//
//   unprepared — fresh parse + rewrite (guard selection, EXPLAIN-based
//                strategy choice) every iteration, then execute: the
//                pre-session middleware behavior.
//   one-shot   — SieveMiddleware::Execute, which re-prepares per call but
//                is served by the policy-epoch rewrite cache after the
//                first iteration.
//   prepared   — SieveSession::Prepare once, PreparedQuery::Execute with
//                bound parameters per iteration: no cache lookup at all.
//
// Also reports the rewrite-cache hit rate of the one-shot loop (expected
// >= 90% on a repeated query) and that an AddPolicy mid-stream stales the
// affected querier's cached rewrite, which the next execute finds stale
// and re-prepares (counted in `invalidations`). Emits BENCH_prepared.json.

#include "bench/harness.h"
#include "sieve/session.h"

using namespace sieve;         // NOLINT
using namespace sieve::bench;  // NOLINT

int main() {
  std::printf("=== Prepared-query throughput (session API vs per-query "
              "rewrite) ===\n\n");
  // Small world: the point is middleware overhead, not scan time, and a
  // smaller table makes the rewrite share of each query visible.
  auto world = MakeTippersWorld(EngineProfile::MySqlLike(), /*scale=*/0.1,
                                /*advanced_policies=*/20);
  if (world == nullptr) return 1;
  std::printf("events=%zu policies=%zu\n\n", world->dataset.num_events,
              world->sieve->policies().size());

  QueryMetadata md;
  for (const char* profile : {"faculty", "grad", "staff", "undergrad"}) {
    auto top = world->TopQueriers(profile, 1);
    if (!top.empty()) {
      md = {top.front().first, "Analytics"};
      break;
    }
  }
  if (md.querier.empty()) return 1;
  std::printf("querier=%s\n\n", md.querier.c_str());

  SieveMiddleware& sieve = *world->sieve;
  const std::string param_sql =
      "SELECT * FROM WiFi_Dataset AS W WHERE W.wifiAP = :ap AND "
      "W.ts_time BETWEEN :lo AND :hi";
  const std::string literal_sql =
      "SELECT * FROM WiFi_Dataset AS W WHERE W.wifiAP = 3 AND "
      "W.ts_time BETWEEN '09:00' AND '17:00'";
  const std::vector<std::pair<std::string, Value>> binds = {
      {"ap", Value::Int(3)},
      {"lo", Value::String("09:00")},
      {"hi", Value::String("17:00")}};

  constexpr int kIters = 60;
  std::vector<JsonRow> json_rows;
  TablePrinter table({"path", "iters", "total ms", "queries/s", "speedup"});

  auto run_mode = [&](const char* label, auto&& once) -> double {
    // One warm-up execution outside the timed loop.
    if (!once()) {
      std::fprintf(stderr, "%s: warm-up failed\n", label);
      return -1;
    }
    Timer t;
    for (int i = 0; i < kIters; ++i) {
      if (!once()) {
        std::fprintf(stderr, "%s: iteration failed\n", label);
        return -1;
      }
    }
    return t.ElapsedMillis();
  };

  // Path 1: fresh rewrite every iteration (cache bypassed by design).
  double unprepared_ms = run_mode("unprepared", [&] {
    auto rewrite = sieve.Rewrite(literal_sql, md);
    if (!rewrite.ok()) return false;
    auto result =
        sieve.db().ExecuteStmt(*rewrite->stmt, &md,
                               sieve.options().timeout_seconds,
                               sieve.options().num_threads);
    return result.ok();
  });

  // Path 2: one-shot Execute, amortized by the rewrite cache.
  RewriteCacheStats cache_before = sieve.rewrite_cache_stats();
  double oneshot_ms = run_mode("one-shot", [&] {
    return sieve.Execute(literal_sql, md).ok();
  });
  RewriteCacheStats cache_after = sieve.rewrite_cache_stats();

  // Path 3: prepare once, execute many with bound parameters.
  SieveSession session(&sieve, md);
  auto prepared = session.Prepare(param_sql);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  double prepared_ms =
      run_mode("prepared", [&] { return prepared->ExecuteNamed(binds).ok(); });

  if (unprepared_ms < 0 || oneshot_ms < 0 || prepared_ms < 0) return 1;

  auto add_row = [&](const char* label, double ms) {
    double qps = ms > 0 ? 1e3 * kIters / ms : 0;
    table.AddRow({label, StrFormat("%d", kIters), StrFormat("%.1f", ms),
                  StrFormat("%.0f", qps),
                  StrFormat("%.2fx", unprepared_ms / ms)});
    json_rows.push_back(JsonRow()
                            .Set("section", std::string("throughput"))
                            .Set("path", std::string(label))
                            .Set("iters", kIters)
                            .Set("total_ms", ms)
                            .Set("qps", qps)
                            .Set("speedup_vs_unprepared", unprepared_ms / ms));
  };
  add_row("unprepared", unprepared_ms);
  add_row("one-shot (cached)", oneshot_ms);
  add_row("prepared", prepared_ms);
  table.Print();

  uint64_t lookups = (cache_after.hits - cache_before.hits) +
                     (cache_after.misses - cache_before.misses);
  double hit_rate =
      lookups == 0
          ? 0.0
          : static_cast<double>(cache_after.hits - cache_before.hits) /
                static_cast<double>(lookups);
  std::printf("\nrewrite cache over the one-shot loop: %llu hits / %llu "
              "lookups (%.1f%% hit rate; expected >= 90%% on a repeated "
              "query)\n",
              static_cast<unsigned long long>(cache_after.hits -
                                              cache_before.hits),
              static_cast<unsigned long long>(lookups), 1e2 * hit_rate);
  json_rows.push_back(
      JsonRow()
          .Set("section", std::string("cache"))
          .Set("hits", static_cast<int64_t>(cache_after.hits -
                                            cache_before.hits))
          .Set("lookups", static_cast<int64_t>(lookups))
          .Set("hit_rate", hit_rate));

  // Mid-stream policy insert: it must stale this querier's cached
  // rewrite, and the next execute must still answer correctly
  // (transparent re-prepare, which finds the cached entry stale).
  RewriteCacheStats before_insert = sieve.rewrite_cache_stats();
  uint64_t epoch_before = sieve.policy_epoch();
  Policy p;
  p.table_name = "WiFi_Dataset";
  p.owner = Value::Int(0);
  p.querier = md.querier;
  p.purpose = md.purpose;
  p.object_conditions.push_back(ObjectCondition::Eq("owner", Value::Int(0)));
  if (!sieve.AddPolicy(std::move(p)).ok()) return 1;
  bool post_ok = prepared->ExecuteNamed(binds).ok();
  RewriteCacheStats after_insert = sieve.rewrite_cache_stats();
  std::printf("\nAddPolicy mid-stream: epoch %llu -> %llu, invalidations "
              "%llu -> %llu, post-insert execute %s\n",
              static_cast<unsigned long long>(epoch_before),
              static_cast<unsigned long long>(sieve.policy_epoch()),
              static_cast<unsigned long long>(before_insert.invalidations),
              static_cast<unsigned long long>(after_insert.invalidations),
              post_ok ? "ok" : "FAILED");
  json_rows.push_back(
      JsonRow()
          .Set("section", std::string("invalidation"))
          .Set("epoch_before", static_cast<int64_t>(epoch_before))
          .Set("epoch_after", static_cast<int64_t>(sieve.policy_epoch()))
          .Set("invalidations",
               static_cast<int64_t>(after_insert.invalidations -
                                    before_insert.invalidations))
          .Set("post_insert_ok", std::string(post_ok ? "true" : "false")));

  if (!WriteBenchJson("prepared_throughput", "BENCH_prepared.json",
                      json_rows)) {
    std::fprintf(stderr, "warning: could not write BENCH_prepared.json\n");
  }
  std::printf("\nExpected shape: prepared >= one-shot (cached) > unprepared "
              "in queries/s; the\ngap is the amortized parse+rewrite cost "
              "(guard selection and EXPLAIN-based\nstrategy choice).\n");
  return post_ok ? 0 : 1;
}
