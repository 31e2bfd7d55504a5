// Section 6 validation (beyond the paper's evaluation), in two parts.
//
// Part 1 — per-key staleness under churn: a mixed policy/query stream
// where every insertion targets one hot querier while seven bystander
// queriers keep executing the same prepared SQL. Cached rewrites validate
// against per-key version counters, so only the hot querier's cached
// rewrite goes stale and bystanders keep hitting the rewrite cache
// (expected hit rate ~100%, acceptance floor 80%). The same stream re-runs
// with the cache wholesale-cleared after every insert — the pre-keyed
// behavior — where bystanders miss every round (~0%).
//
// Part 2 — total system time (query evaluation + guard regeneration) for
// a stream of policy insertions and queries, as a function of the
// regeneration interval k. Eq. 19 predicts the optimal k; the measured
// minimum should fall near it. Queries posed between regenerations run
// against the stale guarded expression plus the pending policies appended
// inline (the cost model of Eq. 16).
//
// Both parts are recorded in BENCH_dynamic.json (phase = "churn_keyed" /
// "churn_wholesale" / "ksweep") for cross-commit diffing.

#include <string>
#include <vector>

#include "bench/harness.h"
#include "sieve/guard_selection.h"
#include "sieve/session.h"

using namespace sieve;         // NOLINT
using namespace sieve::bench;  // NOLINT

namespace {

Policy MakeStreamPolicy(const TippersDataset& ds, Rng* rng,
                        const std::string& querier) {
  auto residents = ds.ResidentDevices();
  int owner = residents[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(residents.size()) - 1))];
  Policy p;
  p.table_name = "WiFi_Dataset";
  p.owner = Value::Int(owner);
  p.querier = querier;
  p.purpose = "Safety";
  p.object_conditions.push_back(
      ObjectCondition::Eq("owner", Value::Int(owner)));
  int64_t h = rng->Uniform(7, 16);
  p.object_conditions.push_back(ObjectCondition::Range(
      "ts_time", Value::Time(h * 3600), Value::Time((h + 2) * 3600)));
  return p;
}

struct ChurnResult {
  bool ok = false;
  int rounds = 0;
  int queriers = 0;
  uint64_t bystander_hits = 0;
  uint64_t bystander_lookups = 0;
  uint64_t target_hits = 0;
  uint64_t target_lookups = 0;
  uint64_t invalidations = 0;
  double stream_ms = 0;

  double BystanderHitRate() const {
    return bystander_lookups == 0
               ? 0.0
               : static_cast<double>(bystander_hits) /
                     static_cast<double>(bystander_lookups);
  }
};

// Runs the mixed stream: each round inserts one policy for queriers[0]
// (the hot querier) through the middleware, then every querier executes
// its SQL through a session (cache-through). With `wholesale` the rewrite
// cache is cleared after each insert, emulating invalidation-by-clearing;
// otherwise each entry's version snapshot decides what drops. Hit/miss attribution
// is per-execute via stats diffs (the stream is single-threaded).
ChurnResult RunChurnStream(TippersWorld* world, const std::string& prefix,
                           int n_queriers, int rounds, bool wholesale) {
  ChurnResult out;
  out.rounds = rounds;
  out.queriers = n_queriers;
  SieveMiddleware& sieve = *world->sieve;
  Rng rng(7);

  std::vector<std::string> queriers;
  for (int q = 0; q < n_queriers; ++q) {
    queriers.push_back(StrFormat("%s%d", prefix.c_str(), q));
  }
  for (const auto& querier : queriers) {
    for (int i = 0; i < 3; ++i) {
      if (!sieve.AddPolicy(MakeStreamPolicy(world->dataset, &rng, querier))
               .ok()) {
        return out;
      }
    }
  }

  const std::string sql = "SELECT COUNT(*) FROM WiFi_Dataset";
  std::vector<SieveSession> sessions;
  sessions.reserve(queriers.size());
  for (const auto& querier : queriers) {
    sessions.emplace_back(&sieve, QueryMetadata{querier, "Safety"});
  }
  // Warm twice: the first execution regenerates guards and caches the
  // rewrite (its snapshot is taken after that Put), the second hits
  // against the settled corpus.
  for (int warm = 0; warm < 2; ++warm) {
    for (auto& s : sessions) {
      if (!s.Execute(sql).ok()) return out;
    }
  }

  RewriteCacheStats at_start = sieve.rewrite_cache_stats();
  Timer stream;
  for (int round = 0; round < rounds; ++round) {
    if (!sieve.AddPolicy(MakeStreamPolicy(world->dataset, &rng, queriers[0]))
             .ok()) {
      return out;
    }
    if (wholesale) sieve.rewrite_cache().Clear();
    for (int q = 0; q < n_queriers; ++q) {
      RewriteCacheStats before = sieve.rewrite_cache_stats();
      if (!sessions[static_cast<size_t>(q)].Execute(sql).ok()) return out;
      RewriteCacheStats after = sieve.rewrite_cache_stats();
      uint64_t hits = after.hits - before.hits;
      uint64_t lookups = hits + (after.misses - before.misses);
      if (q == 0) {
        out.target_hits += hits;
        out.target_lookups += lookups;
      } else {
        out.bystander_hits += hits;
        out.bystander_lookups += lookups;
      }
    }
  }
  out.stream_ms = stream.ElapsedMillis();
  out.invalidations =
      sieve.rewrite_cache_stats().invalidations - at_start.invalidations;
  out.ok = true;
  return out;
}

}  // namespace

int main() {
  auto world = MakeTippersWorld(EngineProfile::MySqlLike(), 1.0, 0);
  if (world == nullptr) return 1;
  std::vector<JsonRow> json_rows;

  std::printf(
      "=== Mixed churn stream: per-key staleness vs wholesale clear ===\n\n");
  const int kChurnQueriers = 8;
  const int kChurnRounds = 40;
  ChurnResult keyed =
      RunChurnStream(world.get(), "churn_", kChurnQueriers, kChurnRounds,
                     /*wholesale=*/false);
  ChurnResult wholesale =
      RunChurnStream(world.get(), "whole_", kChurnQueriers, kChurnRounds,
                     /*wholesale=*/true);
  if (!keyed.ok || !wholesale.ok) {
    std::fprintf(stderr, "churn stream failed\n");
    return 1;
  }

  TablePrinter churn_table({"invalidation", "bystander hit rate",
                            "target hit rate", "entries invalidated",
                            "stream ms"});
  for (const auto* r : {&keyed, &wholesale}) {
    churn_table.AddRow(
        {r == &keyed ? "keyed (per dependency key)" : "wholesale clear",
         StrFormat("%.1f%%", 100.0 * r->BystanderHitRate()),
         StrFormat("%.1f%%",
                   r->target_lookups == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(r->target_hits) /
                             static_cast<double>(r->target_lookups)),
         StrFormat("%llu", static_cast<unsigned long long>(r->invalidations)),
         StrFormat("%.1f", r->stream_ms)});
    json_rows.push_back(
        JsonRow()
            .Set("phase", std::string(r == &keyed ? "churn_keyed"
                                                  : "churn_wholesale"))
            .Set("rounds", r->rounds)
            .Set("queriers", r->queriers)
            .Set("bystander_hits", static_cast<int64_t>(r->bystander_hits))
            .Set("bystander_lookups",
                 static_cast<int64_t>(r->bystander_lookups))
            .Set("bystander_hit_rate", r->BystanderHitRate())
            .Set("target_hits", static_cast<int64_t>(r->target_hits))
            .Set("target_lookups", static_cast<int64_t>(r->target_lookups))
            .Set("invalidations", static_cast<int64_t>(r->invalidations))
            .Set("stream_ms", r->stream_ms));
  }
  churn_table.Print();
  std::printf(
      "\nExpected shape: keyed bystanders stay >= 80%% hits (their "
      "dependency keys\nnever mutate); wholesale clearing forces every "
      "querier to re-prepare every\nround (~0%%).\n\n");

  std::printf("=== Section 6: optimal guard regeneration interval k ===\n\n");
  const int kInserts = 120;   // N
  const double kRpq = 0.5;    // queries per policy insertion
  PolicyStore& store = world->sieve->policies();
  GuardStore& guards = world->sieve->guards();
  GuardedExpressionBuilder builder(world->db.get(), &store,
                                   &world->sieve->cost_model(),
                                   &world->dataset.groups);

  TablePrinter table({"k (regen interval)", "regens", "queries",
                      "regen ms", "query ms", "total ms"});
  double best_total = 1e18;
  int best_k = 0;

  for (int k : {1, 5, 10, 20, 40, 80, 120}) {
    std::string querier = StrFormat("dyn_k%d", k);
    QueryMetadata md{querier, "Safety"};
    Rng rng(99);  // identical streams across k values

    std::vector<int64_t> pending_ids;
    double regen_ms = 0, query_ms = 0;
    int regens = 0, queries = 0;
    double query_credit = 0;

    for (int i = 1; i <= kInserts; ++i) {
      auto id = store.AddPolicy(MakeStreamPolicy(world->dataset, &rng, querier));
      if (!id.ok()) return 1;
      pending_ids.push_back(*id);

      if (i % k == 0) {
        Timer t;
        auto ge = builder.Build(md, "WiFi_Dataset");
        if (!ge.ok()) return 1;
        if (!guards.Put(std::move(ge).value()).ok()) return 1;
        regen_ms += t.ElapsedMillis();
        ++regens;
        pending_ids.clear();
      }

      query_credit += kRpq;
      while (query_credit >= 1.0) {
        query_credit -= 1.0;
        ++queries;
        // Query against the stale guards plus pending policies appended
        // inline (Section 6's evaluation model).
        std::vector<std::string> disjuncts;
        const GuardedExpression* ge =
            guards.Get(querier, "Safety", "WiFi_Dataset");
        if (ge != nullptr) {
          for (const Guard& g : ge->guards) {
            disjuncts.push_back(
                "(" +
                world->sieve->rewriter().GuardArmExpr(g, false)->ToSql() +
                ")");
          }
        }
        for (int64_t pid : pending_ids) {
          const Policy* p = store.FindPolicy(pid);
          if (p != nullptr) {
            disjuncts.push_back("(" + p->ObjectExpr()->ToSql() + ")");
          }
        }
        if (disjuncts.empty()) continue;
        std::string sql = "SELECT COUNT(*) FROM WiFi_Dataset WHERE " +
                          Join(disjuncts, " OR ");
        Timer t;
        auto result = world->db->ExecuteSql(sql, &md, kTimeoutSeconds);
        if (!result.ok()) return 1;
        query_ms += t.ElapsedMillis();
      }
    }
    double total = regen_ms + query_ms;
    if (total < best_total) {
      best_total = total;
      best_k = k;
    }
    table.AddRow({StrFormat("%d", k), StrFormat("%d", regens),
                  StrFormat("%d", queries), StrFormat("%.1f", regen_ms),
                  StrFormat("%.1f", query_ms), StrFormat("%.1f", total)});
    json_rows.push_back(JsonRow()
                            .Set("phase", std::string("ksweep"))
                            .Set("k", k)
                            .Set("regens", regens)
                            .Set("queries", queries)
                            .Set("regen_ms", regen_ms)
                            .Set("query_ms", query_ms)
                            .Set("total_ms", total));
  }
  table.Print();

  double k_star = world->sieve->dynamics().CurrentOptimalK(
      StrFormat("dyn_k%d", best_k), "Safety", "WiFi_Dataset");
  std::printf("\nmeasured best k = %d; Eq. 19 estimate for this workload "
              "k* ~= %.1f\n",
              best_k, k_star);
  std::printf("Expected shape: total time is U-shaped in k — regenerating "
              "every insert pays\nregeneration over and over; never "
              "regenerating pays growing query costs.\n");

  if (!WriteBenchJson("dynamic_regeneration", "BENCH_dynamic.json", json_rows,
                      JsonRow()
                          .Set("best_k", best_k)
                          .Set("k_star_estimate", k_star)
                          .Set("churn_rounds", kChurnRounds)
                          .Set("churn_queriers", kChurnQueriers))) {
    std::fprintf(stderr, "warning: could not write BENCH_dynamic.json\n");
  } else {
    std::printf("\nwrote BENCH_dynamic.json (%zu rows)\n", json_rows.size());
  }
  return 0;
}
