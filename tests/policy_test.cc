#include "policy/policy.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "policy/policy_store.h"
#include "sieve/session.h"
#include "tests/test_fixtures.h"

namespace sieve {
namespace {

TEST(ObjectConditionTest, EqToExpr) {
  auto oc = ObjectCondition::Eq("owner", Value::Int(5));
  EXPECT_EQ(oc.ToExpr()->ToSql(), "owner = 5");
  Value lo, hi;
  ASSERT_TRUE(oc.AsInterval(&lo, &hi));
  EXPECT_EQ(lo.Compare(hi), 0);
}

TEST(ObjectConditionTest, RangeToExpr) {
  auto oc = ObjectCondition::Range("ts_time", Value::Time(9 * 3600),
                                   Value::Time(10 * 3600));
  EXPECT_EQ(oc.ToExpr()->ToSql(), "ts_time BETWEEN '09:00:00' AND '10:00:00'");
  Value lo, hi;
  ASSERT_TRUE(oc.AsInterval(&lo, &hi));
  EXPECT_EQ(lo.raw(), 9 * 3600);
  EXPECT_EQ(hi.raw(), 10 * 3600);
}

TEST(ObjectConditionTest, DerivedHasNoInterval) {
  auto oc = ObjectCondition::Derived("wifiAP", "SELECT 1 FROM t");
  Value lo, hi;
  EXPECT_FALSE(oc.AsInterval(&lo, &hi));
  EXPECT_EQ(oc.ToExpr()->kind(), ExprKind::kComparison);
}

TEST(PolicyTest, ObjectExprIsConjunction) {
  MiniCampus campus;
  Policy p = campus.MakePolicy(3, "alice", "Attendance", 9, 10, 2);
  EXPECT_EQ(p.ObjectExpr()->kind(), ExprKind::kAnd);
  EXPECT_NE(p.ToString().find("owner = 3"), std::string::npos);
}

TEST(PolicyTest, MetadataMatchingDirect) {
  MiniCampus campus;
  Policy p = campus.MakePolicy(3, "alice", "Attendance");
  EXPECT_TRUE(PolicyMatchesMetadata(p, {"alice", "Attendance"},
                                    &campus.groups()));
  EXPECT_FALSE(
      PolicyMatchesMetadata(p, {"alice", "Commercial"}, &campus.groups()));
  EXPECT_FALSE(
      PolicyMatchesMetadata(p, {"bob", "Attendance"}, &campus.groups()));
}

TEST(PolicyTest, MetadataMatchingViaGroup) {
  MiniCampus campus;
  Policy p = campus.MakePolicy(3, "students", "Social");
  EXPECT_TRUE(PolicyMatchesMetadata(p, {"bob", "Social"}, &campus.groups()));
  EXPECT_TRUE(PolicyMatchesMetadata(p, {"carol", "Social"}, &campus.groups()));
  EXPECT_FALSE(PolicyMatchesMetadata(p, {"alice", "Social"}, &campus.groups()));
}

TEST(PolicyTest, AnyPurposeMatchesEverything) {
  MiniCampus campus;
  Policy p = campus.MakePolicy(3, "alice", "any");
  EXPECT_TRUE(PolicyMatchesMetadata(p, {"alice", "Attendance"},
                                    &campus.groups()));
  EXPECT_TRUE(
      PolicyMatchesMetadata(p, {"alice", "whatever"}, &campus.groups()));
}

TEST(PolicyTest, GrantKeysAgreeWithGrantMatching) {
  // The rewrite cache validates a rewrite by the counters of the grant keys
  // GrantKeysFor enumerates, while the rewriter filters policies with
  // GrantMatchesMetadata: both must name exactly the same grants, or a
  // cached rewrite would miss a policy change that alters it.
  MiniCampus campus;
  const std::vector<std::string> principals = {
      "alice", "bob", "carol", "eve", "faculty", "students", "ALICE",
      "Students"};
  const std::vector<std::string> purposes = {"any", "ANY", "Analytics",
                                             "analytics", "Billing"};
  size_t matched = 0;
  for (const std::string& querier : principals) {
    for (const std::string& purpose : purposes) {
      const QueryMetadata md{querier, purpose};
      const auto keys = GrantKeysFor(md, &campus.groups());
      EXPECT_EQ(std::set(keys.begin(), keys.end()).size(), keys.size())
          << "duplicate grant key for " << querier << "/" << purpose;
      for (const std::string& grant_querier : principals) {
        for (const std::string& grant_purpose : purposes) {
          const bool matches = GrantMatchesMetadata(
              grant_querier, grant_purpose, md, &campus.groups());
          const bool listed =
              std::find(keys.begin(), keys.end(),
                        std::pair{ToLower(grant_querier),
                                  ToLower(grant_purpose)}) != keys.end();
          EXPECT_EQ(listed, matches)
              << "grant " << grant_querier << "/" << grant_purpose
              << " for " << querier << "/" << purpose;
          matched += matches ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(matched, 0u);
}

TEST(FoldDenyTest, DenyCutsMiddleOfAllowRange) {
  MiniCampus campus;
  Policy allow = campus.MakePolicy(3, "alice", "any", 9, 17);
  Policy deny = campus.MakePolicy(3, "alice", "any", 12, 13);
  deny.action = PolicyAction::kDeny;
  auto folded = FoldDenyIntoAllow(allow, deny);
  ASSERT_EQ(folded.size(), 2u);
  // Left remainder ends just before 12:00, right starts just after 13:00.
  Value lo, hi;
  ASSERT_TRUE(folded[0].object_conditions[1].AsInterval(&lo, &hi));
  EXPECT_EQ(lo.raw(), 9 * 3600);
  EXPECT_EQ(hi.raw(), 12 * 3600 - 1);
  ASSERT_TRUE(folded[1].object_conditions[1].AsInterval(&lo, &hi));
  EXPECT_EQ(lo.raw(), 13 * 3600 + 1);
  EXPECT_EQ(hi.raw(), 17 * 3600);
}

TEST(FoldDenyTest, DenyCoversAllow) {
  MiniCampus campus;
  Policy allow = campus.MakePolicy(3, "alice", "any", 10, 12);
  Policy deny = campus.MakePolicy(3, "alice", "any", 9, 13);
  deny.action = PolicyAction::kDeny;
  EXPECT_TRUE(FoldDenyIntoAllow(allow, deny).empty());
}

TEST(FoldDenyTest, DisjointDenyLeavesAllow) {
  MiniCampus campus;
  Policy allow = campus.MakePolicy(3, "alice", "any", 9, 10);
  Policy deny = campus.MakePolicy(3, "alice", "any", 15, 16);
  deny.action = PolicyAction::kDeny;
  auto folded = FoldDenyIntoAllow(allow, deny);
  ASSERT_EQ(folded.size(), 1u);
  Value lo, hi;
  ASSERT_TRUE(folded[0].object_conditions[1].AsInterval(&lo, &hi));
  EXPECT_EQ(lo.raw(), 9 * 3600);
}

TEST(FoldDenyTest, DifferentOwnerUntouched) {
  MiniCampus campus;
  Policy allow = campus.MakePolicy(3, "alice", "any", 9, 10);
  Policy deny = campus.MakePolicy(4, "alice", "any", 9, 10);
  deny.action = PolicyAction::kDeny;
  auto folded = FoldDenyIntoAllow(allow, deny);
  ASSERT_EQ(folded.size(), 1u);
}

class PolicyStoreTest : public ::testing::Test {
 protected:
  PolicyStoreTest() : store_(&campus_.db()) {
    EXPECT_TRUE(store_.Init().ok());
  }
  MiniCampus campus_;
  PolicyStore store_;
};

TEST_F(PolicyStoreTest, AddAssignsIds) {
  auto id1 = store_.AddPolicy(campus_.MakePolicy(1, "alice", "any"));
  auto id2 = store_.AddPolicy(campus_.MakePolicy(2, "alice", "any"));
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_NE(*id1, *id2);
  EXPECT_EQ(store_.size(), 2u);
  EXPECT_NE(store_.FindPolicy(*id1), nullptr);
}

TEST_F(PolicyStoreTest, PersistsToCatalogTables) {
  ASSERT_TRUE(store_.AddPolicy(campus_.MakePolicy(1, "alice", "any", 9, 10, 2))
                  .ok());
  auto rp = campus_.db().ExecuteSql("SELECT COUNT(*) FROM rP");
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp->rows[0][0].AsInt(), 1);
  // owner eq + time range (2 rows) + ap eq = 4 rOC rows.
  auto roc = campus_.db().ExecuteSql("SELECT COUNT(*) FROM rOC");
  ASSERT_TRUE(roc.ok());
  EXPECT_EQ(roc->rows[0][0].AsInt(), 4);
}

TEST_F(PolicyStoreTest, LoadFromTablesRoundTrip) {
  Policy original = campus_.MakePolicy(5, "alice", "Attendance", 9, 10, 2);
  ASSERT_TRUE(store_.AddPolicy(original).ok());
  ASSERT_TRUE(store_.LoadFromTables().ok());
  ASSERT_EQ(store_.size(), 1u);
  const Policy& loaded = store_.policies()[0];
  EXPECT_EQ(loaded.querier, "alice");
  EXPECT_EQ(loaded.purpose, "Attendance");
  ASSERT_EQ(loaded.object_conditions.size(), 3u);
  // The range condition must be reassembled from its two rOC rows.
  bool found_range = false;
  for (const auto& oc : loaded.object_conditions) {
    if (oc.is_range()) {
      found_range = true;
      EXPECT_EQ(oc.value.raw(), 9 * 3600);
      EXPECT_EQ(oc.value2->raw(), 10 * 3600);
    }
  }
  EXPECT_TRUE(found_range);
  // Semantics survive the round trip.
  EXPECT_EQ(loaded.ObjectExpr()->ToSql(), original.ObjectExpr()->ToSql());
}

TEST(PolicyStoreReloadTest, FailedReloadKeepsCorpusAndEnforcement) {
  // Regression: LoadFromTables cleared the corpus before parsing, so one
  // malformed rOC row failed the reload *and* left wifi unprotected —
  // alice's fresh SELECT returned all 600 rows instead of her 120, while
  // her cached snapshot still looked valid.
  MiniCampus campus;
  SieveMiddleware sieve(&campus.db(), &campus.groups());
  ASSERT_TRUE(sieve.Init().ok());
  auto id = sieve.AddPolicy(campus.MakePolicy(1, "alice", "any"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(sieve.AddPolicy(campus.MakePolicy(2, "alice", "any")).ok());
  const QueryMetadata alice{"alice", "any"};
  const std::string sql = "SELECT * FROM wifi";
  SieveSession session(&sieve, alice);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  auto before = prepared->Execute();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 120u);

  ASSERT_TRUE(campus.db()
                  .Insert(PolicyStore::kConditionTable,
                          Row{Value::Int(1000), Value::Int(*id),
                              Value::String("owner"), Value::String("="),
                              Value::String("bogus:1")})
                  .ok());
  EXPECT_FALSE(sieve.policies().LoadFromTables().ok());
  EXPECT_EQ(sieve.policies().size(), 2u);
  EXPECT_EQ(sieve.policies().PolicyCountForTable("wifi"), 2u);

  // The cached snapshot is still right, and so is a fresh rewrite.
  auto cached = prepared->Execute();
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->size(), 120u);
  sieve.rewrite_cache().Clear();
  auto fresh = sieve.Execute(sql, alice);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->size(), 120u);
  auto reference = sieve.ExecuteReference(sql, alice);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->size(), 120u);
}

TEST_F(PolicyStoreTest, RemovePolicy) {
  auto id = store_.AddPolicy(campus_.MakePolicy(1, "alice", "any"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_.RemovePolicy(*id).ok());
  EXPECT_EQ(store_.size(), 0u);
  EXPECT_EQ(store_.FindPolicy(*id), nullptr);
  EXPECT_FALSE(store_.RemovePolicy(*id).ok());
  auto rp = campus_.db().ExecuteSql("SELECT COUNT(*) FROM rP");
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp->rows[0][0].AsInt(), 0);
}

TEST_F(PolicyStoreTest, FilterByMetadataAppliesGroupsAndPurpose) {
  ASSERT_TRUE(store_.AddPolicy(campus_.MakePolicy(1, "alice", "Attendance")).ok());
  ASSERT_TRUE(store_.AddPolicy(campus_.MakePolicy(2, "students", "Social")).ok());
  ASSERT_TRUE(store_.AddPolicy(campus_.MakePolicy(3, "bob", "Social")).ok());

  auto for_alice = store_.FilterByMetadata({"alice", "Attendance"}, "wifi",
                                           &campus_.groups());
  ASSERT_EQ(for_alice.size(), 1u);
  EXPECT_EQ(for_alice[0]->owner.AsInt(), 1);

  // bob matches his own policy and the students-group policy.
  auto for_bob =
      store_.FilterByMetadata({"bob", "Social"}, "wifi", &campus_.groups());
  EXPECT_EQ(for_bob.size(), 2u);

  // Different table: nothing.
  auto other = store_.FilterByMetadata({"alice", "Attendance"}, "other",
                                       &campus_.groups());
  EXPECT_TRUE(other.empty());
}

TEST_F(PolicyStoreTest, DistinctQueriers) {
  ASSERT_TRUE(store_.AddPolicy(campus_.MakePolicy(1, "alice", "A")).ok());
  ASSERT_TRUE(store_.AddPolicy(campus_.MakePolicy(2, "alice", "A")).ok());
  ASSERT_TRUE(store_.AddPolicy(campus_.MakePolicy(3, "bob", "B")).ok());
  EXPECT_EQ(store_.DistinctQueriers("wifi").size(), 2u);
}

TEST_F(PolicyStoreTest, DerivedConditionPersistence) {
  Policy p = campus_.MakePolicy(1, "alice", "any");
  p.object_conditions.push_back(ObjectCondition::Derived(
      "wifiAP", "SELECT w2.wifiAP FROM wifi AS w2 WHERE w2.id = 0"));
  ASSERT_TRUE(store_.AddPolicy(std::move(p)).ok());
  ASSERT_TRUE(store_.LoadFromTables().ok());
  ASSERT_EQ(store_.size(), 1u);
  bool found = false;
  for (const auto& oc : store_.policies()[0].object_conditions) {
    if (oc.is_derived()) {
      found = true;
      EXPECT_NE(oc.subquery_sql.find("SELECT w2.wifiAP"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace sieve
