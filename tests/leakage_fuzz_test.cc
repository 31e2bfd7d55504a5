// Policy-leakage fuzz oracle: seeded random policy corpora and queries
// across all three scenarios (campus, mall, hospital), each execution
// checked against metamorphic invariants that catch over-sharing without
// a hand-written expected answer:
//
//   1. enforced == reference — the Sieve rewrite returns exactly the
//      tuple set of the plain policy-DNF reference semantics;
//   2. enforced ⊆ unrestricted — the querier never receives a row the raw
//      table scan would not produce (no fabricated rows);
//   3. row-level permission — for single-table SELECT-ALL shapes, the
//      visible rows are *exactly* the unrestricted rows on which some
//      applicable policy's object conditions evaluate true (both
//      directions: nothing leaks, nothing permitted is hidden);
//   4. default deny — a querier with no applicable policy sees zero rows;
//   5. audit accounting — every execution appends exactly one audit
//      record, and the flushed `sieve_audit` table is queryable through
//      the middleware with one entry per execution;
//   6. revocation (hospital) — after revoking a patient's research
//      consent, the researcher's view contains no row of that patient.
//
// Seed budget: SIEVE_FUZZ_SEEDS seeds per scenario (default 50; CI runs a
// smaller budget), starting at SIEVE_FUZZ_SEED_BASE (default 1000). On a
// failure the trace names the seed; reproduce with
//   SIEVE_FUZZ_SEED_BASE=<seed> SIEVE_FUZZ_SEEDS=1 ./leakage_fuzz_test

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "expr/eval.h"
#include "plan/operators.h"
#include "sieve/session.h"
#include "tests/test_fixtures.h"
#include "workload/mall.h"
#include "workload/policy_gen.h"
#include "workload/query_gen.h"

namespace sieve {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  int parsed = std::atoi(v);
  return parsed > 0 ? parsed : fallback;
}

int FuzzSeeds() { return EnvInt("SIEVE_FUZZ_SEEDS", 50); }
int FuzzSeedBase() { return EnvInt("SIEVE_FUZZ_SEED_BASE", 1000); }

std::string ReproHint(int seed) {
  return StrFormat(
      "seed=%d — reproduce with SIEVE_FUZZ_SEED_BASE=%d SIEVE_FUZZ_SEEDS=1",
      seed, seed);
}

std::multiset<std::string> Fingerprints(const ResultSet& rs) {
  std::multiset<std::string> out;
  for (const auto& row : rs.rows) out.insert(RowFingerprint(row));
  return out;
}

void ExpectSubset(const std::multiset<std::string>& sub,
                  const std::multiset<std::string>& super,
                  const std::string& what) {
  EXPECT_TRUE(std::includes(super.begin(), super.end(), sub.begin(),
                            sub.end()))
      << what << ": enforced result contains rows absent from the "
      << "unrestricted scan — fabricated or duplicated data";
}

/// Tracks one scenario's executions so the audit-accounting invariant can
/// be checked without instrumenting the middleware: every enforced
/// execution goes through Run().
class Enforced {
 public:
  explicit Enforced(SieveMiddleware* sieve) : sieve_(sieve) {}

  Result<ResultSet> Run(const std::string& sql, const QueryMetadata& md) {
    ++executions_;
    return sieve_->Execute(sql, md);
  }

  size_t executions() const { return executions_; }
  SieveMiddleware& sieve() { return *sieve_; }

 private:
  SieveMiddleware* sieve_;
  size_t executions_ = 0;
};

/// Invariants 1 + 2 for an arbitrary query shape.
void CheckReferenceAndSubset(Enforced& run, Database& db,
                             const std::string& sql, const QueryMetadata& md,
                             const std::string& trace) {
  auto enforced = run.Run(sql, md);
  ASSERT_TRUE(enforced.ok()) << trace << " sql=" << sql << " -> "
                             << enforced.status().ToString();
  auto reference = run.sieve().ExecuteReference(sql, md);
  ASSERT_TRUE(reference.ok()) << trace << " sql=" << sql;
  EXPECT_EQ(Fingerprints(*enforced), Fingerprints(*reference))
      << trace << " querier=" << md.querier << " purpose=" << md.purpose
      << " sql=" << sql;
  auto unrestricted = db.ExecuteSql(sql);
  ASSERT_TRUE(unrestricted.ok()) << trace << " sql=" << sql;
  ExpectSubset(Fingerprints(*enforced), Fingerprints(*unrestricted),
               trace + " querier=" + md.querier + " sql=" + sql);
}

/// Invariant 3: the enforced SELECT-ALL view of `table` equals, row for
/// row, the subset of the raw table some applicable policy permits —
/// evaluated independently of the rewriter with a plain per-row walk of
/// each policy's object conditions.
void CheckRowLevelPermission(Enforced& run, Database& db,
                             const std::string& table,
                             const QueryMetadata& md,
                             const GroupResolver* groups,
                             const std::string& trace) {
  const std::string sql = "SELECT * FROM " + table;
  auto enforced = run.Run(sql, md);
  ASSERT_TRUE(enforced.ok()) << trace << " table=" << table << " -> "
                             << enforced.status().ToString();
  auto all = db.ExecuteSql(sql);
  ASSERT_TRUE(all.ok()) << trace;
  const TableEntry* entry = db.catalog().Find(table);
  ASSERT_NE(entry, nullptr) << trace;
  const Schema& schema = entry->table->schema();

  std::vector<const Policy*> policies =
      run.sieve().policies().FilterByMetadata(md, table, groups);
  std::vector<ExprPtr> object_exprs;
  object_exprs.reserve(policies.size());
  for (const Policy* p : policies) object_exprs.push_back(p->ObjectExpr());

  ExecStats stats;
  Evaluator eval(&schema, nullptr, nullptr, &stats);
  std::multiset<std::string> permitted;
  for (const Row& row : all->rows) {
    bool pass = false;
    for (const ExprPtr& expr : object_exprs) {
      auto verdict = eval.EvalPredicate(*expr, row);
      ASSERT_TRUE(verdict.ok()) << trace;
      if (*verdict) {
        pass = true;
        break;
      }
    }
    if (pass) permitted.insert(RowFingerprint(row));
  }
  EXPECT_EQ(Fingerprints(*enforced), permitted)
      << trace << " table=" << table << " querier=" << md.querier
      << " purpose=" << md.purpose << ": the enforced view differs from "
      << "the per-row policy-permission oracle (" << policies.size()
      << " applicable policies)";
}

/// Invariant 4: no applicable policy → empty result, never an error.
void CheckDefaultDeny(Enforced& run, const std::string& sql,
                      const QueryMetadata& md, const std::string& trace) {
  auto denied = run.Run(sql, md);
  ASSERT_TRUE(denied.ok()) << trace << " sql=" << sql;
  EXPECT_EQ(denied->size(), 0u)
      << trace << " querier=" << md.querier << " purpose=" << md.purpose
      << " leaked " << denied->size() << " rows with no applicable policy";
}

/// Invariant 5: one audit record per execution, queryable through the
/// middleware. Consumes one extra execution for the audit read itself.
void CheckAuditAccounting(Enforced& run, const std::string& trace) {
  SieveMiddleware& sieve = run.sieve();
  EXPECT_EQ(sieve.audit_log().total_appended(),
            static_cast<int64_t>(run.executions()))
      << trace << ": executions and audit appends diverge";
  EXPECT_EQ(sieve.audit_log().dropped(), 0u) << trace;

  // Reading sieve_audit through the middleware auto-flushes the pending
  // ring, so the read sees every prior execution (not itself).
  const size_t expected = run.executions();
  auto rows = run.Run(
      "SELECT querier, policies, guards, denied, rows_out FROM sieve_audit",
      {"auditor", "Compliance"});
  ASSERT_TRUE(rows.ok()) << trace << " -> " << rows.status().ToString();
  EXPECT_EQ(rows->size(), expected)
      << trace << ": sieve_audit must hold exactly one entry per execution";
  for (const Row& row : rows->rows) {
    // Any entry that produced rows without being default-denied must name
    // the policies and guards that let them through.
    if (row[3].raw() == 0 && row[4].raw() > 0) {
      EXPECT_FALSE(row[1].AsString().empty())
          << trace << " querier=" << row[0].AsString()
          << ": rows released with no policy named in the audit entry";
      EXPECT_FALSE(row[2].AsString().empty())
          << trace << " querier=" << row[0].AsString()
          << ": rows released with no guard named in the audit entry";
    }
  }
}

// ---------------------------------------------------------------------------
// Campus: hand-built MiniCampus rows + a random policy corpus.
// ---------------------------------------------------------------------------

TEST(LeakageFuzz, Campus) {
  const int seeds = FuzzSeeds(), base = FuzzSeedBase();
  for (int s = 0; s < seeds; ++s) {
    const int seed = base + s;
    SCOPED_TRACE(ReproHint(seed));
    MiniCampus campus;
    SieveMiddleware sieve(&campus.db(), &campus.groups());
    ASSERT_TRUE(sieve.Init().ok());
    Rng rng(static_cast<uint64_t>(seed));

    const char* queriers[] = {"alice", "bob", "carol"};
    const char* purposes[] = {"any", "Analytics", "Social"};
    int n_policies = static_cast<int>(rng.Uniform(3, 25));
    for (int i = 0; i < n_policies; ++i) {
      int t1 = -1, t2 = -1, ap = -1;
      if (rng.Chance(0.6)) {
        t1 = static_cast<int>(rng.Uniform(6, 15));
        t2 = t1 + static_cast<int>(rng.Uniform(1, 5));
      }
      if (rng.Chance(0.4)) ap = static_cast<int>(rng.Uniform(0, 5));
      const char* grantee =
          rng.Chance(0.3) ? "students" : queriers[rng.Uniform(0, 2)];
      ASSERT_TRUE(sieve
                      .AddPolicy(campus.MakePolicy(
                          static_cast<int>(rng.Uniform(0, 9)), grantee,
                          purposes[rng.Uniform(0, 2)], t1, t2, ap))
                      .ok());
    }

    Enforced run(&sieve);
    for (const char* querier : queriers) {
      QueryMetadata md{querier, purposes[rng.Uniform(0, 2)]};
      CheckRowLevelPermission(run, campus.db(), "wifi", md, &campus.groups(),
                              "campus");
      const std::string where =
          StrFormat("wifiAP <= %lld AND ts_time >= '%02d:00'",
                    (long long)rng.Uniform(0, 5),
                    static_cast<int>(rng.Uniform(6, 14)));
      CheckReferenceAndSubset(run, campus.db(),
                              "SELECT * FROM wifi WHERE " + where, md,
                              "campus");
      // Derived-table shapes: the predicate inside and outside the
      // derived table.
      CheckReferenceAndSubset(
          run, campus.db(),
          "SELECT * FROM (SELECT * FROM wifi WHERE " + where + ") AS d", md,
          "campus");
      CheckReferenceAndSubset(
          run, campus.db(),
          "SELECT * FROM (SELECT * FROM wifi) AS d WHERE " + where, md,
          "campus");
    }
    CheckDefaultDeny(run, "SELECT * FROM wifi", {"mallory", "any"}, "campus");
    CheckAuditAccounting(run, "campus");
  }
}

// ---------------------------------------------------------------------------
// Mall: generated dataset + generated per-customer policy corpus.
// ---------------------------------------------------------------------------

TEST(LeakageFuzz, Mall) {
  const int seeds = FuzzSeeds(), base = FuzzSeedBase();
  for (int s = 0; s < seeds; ++s) {
    const int seed = base + s;
    SCOPED_TRACE(ReproHint(seed));
    Database db;
    MallConfig config;
    config.num_customers = 60;
    config.num_shops = 6;
    config.num_days = 8;
    config.target_events = 1500;
    config.seed = static_cast<uint64_t>(seed);
    MallGenerator gen(config);
    auto ds = gen.Populate(&db);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();

    MapGroupResolver no_groups;
    SieveMiddleware sieve(&db, &no_groups);
    ASSERT_TRUE(sieve.Init().ok());
    MallPolicyGenerator pg(static_cast<uint64_t>(seed) * 31 + 7);
    ASSERT_TRUE(pg.Generate(*ds, &sieve.policies()).ok());

    Enforced run(&sieve);
    Rng rng(static_cast<uint64_t>(seed) * 13 + 1);
    for (int q = 0; q < 3; ++q) {
      QueryMetadata md{
          MallDataset::ShopName(static_cast<int>(
              rng.Uniform(0, config.num_shops - 1))),
          "Marketing"};
      CheckRowLevelPermission(run, db, "WiFi_Connectivity", md, &no_groups,
                              "mall");
      CheckReferenceAndSubset(
          run, db,
          StrFormat("SELECT * FROM WiFi_Connectivity WHERE shop_id = %lld",
                    (long long)rng.Uniform(0, config.num_shops - 1)),
          md, "mall");
    }
    // Wrong purpose and unknown querier both default-deny.
    CheckDefaultDeny(run, "SELECT * FROM WiFi_Connectivity",
                     {MallDataset::ShopName(0), "Espionage"}, "mall");
    CheckDefaultDeny(run, "SELECT * FROM WiFi_Connectivity",
                     {"nobody", "Marketing"}, "mall");
    CheckAuditAccounting(run, "mall");
  }
}

// ---------------------------------------------------------------------------
// Hospital: GDPR purpose limitation + consent revocation.
// ---------------------------------------------------------------------------

TEST(LeakageFuzz, Hospital) {
  const int seeds = FuzzSeeds(), base = FuzzSeedBase();
  for (int s = 0; s < seeds; ++s) {
    const int seed = base + s;
    SCOPED_TRACE(ReproHint(seed));
    Database db;
    HospitalConfig config;
    config.num_patients = 40;
    config.num_staff = 10;
    config.num_wards = 3;
    config.num_days = 12;
    config.target_encounters = 900;
    config.seed = static_cast<uint64_t>(seed);
    HospitalGenerator gen(config);
    auto ds = gen.Populate(&db);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();

    SieveMiddleware sieve(&db, &ds->groups);
    ASSERT_TRUE(sieve.Init().ok());
    HospitalPolicyGenConfig pg_config;
    pg_config.seed = static_cast<uint64_t>(seed) * 17 + 3;
    HospitalPolicyGenerator pg(pg_config);
    ASSERT_TRUE(pg.Generate(*ds, &sieve.policies()).ok());

    Enforced run(&sieve);
    Rng rng(static_cast<uint64_t>(seed) * 7 + 5);
    HospitalQueryGenerator queries(*ds, static_cast<uint64_t>(seed));

    auto pick = [&](const char* role) {
      auto ids = ds->StaffWithRole(role);
      return HospitalDataset::StaffName(
          ids[static_cast<size_t>(rng.Uniform(
              0, static_cast<int64_t>(ids.size()) - 1))]);
    };
    const std::string doctor = pick("doctor");
    const std::string nurse = pick("nurse");
    const std::string researcher = pick("researcher");
    const std::string billing = pick("billing");

    for (const auto& [querier, purpose] :
         std::vector<std::pair<std::string, std::string>>{
             {doctor, "Treatment"},
             {nurse, "Treatment"},
             {researcher, "Research"},
             {billing, "Billing"}}) {
      QueryMetadata md{querier, purpose};
      CheckRowLevelPermission(run, db, "Encounters", md, &ds->groups,
                              "hospital");
      CheckRowLevelPermission(run, db, "Diagnoses", md, &ds->groups,
                              "hospital");
    }
    for (QuerySelectivity sel :
         {QuerySelectivity::kLow, QuerySelectivity::kHigh}) {
      CheckReferenceAndSubset(run, db, queries.HQ1(sel),
                              {nurse, "Treatment"}, "hospital");
      CheckReferenceAndSubset(run, db, queries.HQ2(sel),
                              {doctor, "Treatment"}, "hospital");
    }
    // Purpose limitation: treatment staff get nothing under Research, and
    // strangers get nothing at all.
    CheckDefaultDeny(run, "SELECT * FROM Encounters", {nurse, "Research"},
                     "hospital");
    CheckDefaultDeny(run, "SELECT * FROM Encounters", {"intruder", "Treatment"},
                     "hospital");

    // Consent revocation: drop a consented patient's research grants
    // (store-level removal + guard invalidation, the churn idiom), then the
    // researcher's Diagnoses view must contain no row of that patient —
    // and still match the per-row oracle over the shrunken corpus.
    auto consented = ds->ConsentedPatients();
    ASSERT_FALSE(consented.empty());
    const int revoked = consented[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(consented.size()) - 1))];
    std::vector<int64_t> research_ids =
        ResearchPolicyIds(sieve.policies(), revoked);
    ASSERT_FALSE(research_ids.empty()) << "patient " << revoked;
    for (int64_t id : research_ids) {
      ASSERT_TRUE(sieve.policies().RemovePolicy(id).ok());
    }
    sieve.guards().MarkOutdated(researcher, "Research", "Diagnoses");

    QueryMetadata research_md{researcher, "Research"};
    auto post = run.Run("SELECT * FROM Diagnoses", research_md);
    ASSERT_TRUE(post.ok()) << post.status().ToString();
    const TableEntry* diag = db.catalog().Find("Diagnoses");
    ASSERT_NE(diag, nullptr);
    int patient_col = diag->table->schema().FindColumn("patient_id");
    ASSERT_GE(patient_col, 0);
    for (const Row& row : post->rows) {
      ASSERT_NE(row[static_cast<size_t>(patient_col)].raw(), revoked)
          << "revoked patient " << revoked
          << " still visible to researcher " << researcher;
    }
    CheckRowLevelPermission(run, db, "Diagnoses", research_md, &ds->groups,
                            "hospital-post-revocation");

    CheckAuditAccounting(run, "hospital");
  }
}

}  // namespace
}  // namespace sieve
