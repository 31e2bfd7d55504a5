// Unit tests for the session-oriented middleware API: SieveSession /
// PreparedQuery / ResultCursor, parameter binding edge cases, the
// pull-validated rewrite cache (which mutations stale which snapshots),
// LRU eviction, scalar-subquery and CTE-body enforcement, recursive CTEs
// failing cleanly, the reference oracle over derived tables and the
// validated SieveOptions update path.

#include "sieve/session.h"

#include <set>

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "sieve/middleware.h"
#include "sieve/rewrite_cache.h"
#include "tests/test_fixtures.h"

namespace sieve {
namespace {

std::vector<std::string> OrderedFingerprints(const ResultSet& rs) {
  std::vector<std::string> out;
  out.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string fp;
    for (const auto& v : row) fp += v.ToString() + "|";
    out.push_back(std::move(fp));
  }
  return out;
}

// Order-insensitive view, for comparing across *different* SQL texts
// (e.g. `?` vs inlined literal): the strategy selector may pick different
// access paths for them, which legitimately reorders rows.
std::multiset<std::string> Fingerprints(const ResultSet& rs) {
  std::vector<std::string> ordered = OrderedFingerprints(rs);
  return {ordered.begin(), ordered.end()};
}

TEST(NormalizeSqlTest, StripsLineAndBlockComments) {
  EXPECT_EQ(NormalizeSql("SELECT 1 -- trailing\n+ 2"), "SELECT 1 + 2");
  EXPECT_EQ(NormalizeSql("SELECT /* inline */ 1"), "SELECT 1");
  EXPECT_EQ(NormalizeSql("SELECT /* spans\nlines */ 1"), "SELECT 1");
  // A block comment separates tokens like whitespace does.
  EXPECT_EQ(NormalizeSql("SELECT a/*x*/FROM t"), "SELECT a FROM t");
  // Leading comment leaves no leading space.
  EXPECT_EQ(NormalizeSql("/* header */ SELECT 1"), "SELECT 1");
  // Comment markers inside string literals survive verbatim.
  EXPECT_EQ(NormalizeSql("SELECT '/* kept */' FROM t"),
            "SELECT '/* kept */' FROM t");
  EXPECT_EQ(NormalizeSql("SELECT '-- kept' FROM t"), "SELECT '-- kept' FROM t");
}

TEST(NormalizeSqlTest, UnterminatedBlockCommentStaysInvalid) {
  // The lexer rejects an unterminated block comment; normalization must
  // not silently swallow it and make the text parseable.
  std::string normalized = NormalizeSql("SELECT 1 /* oops");
  EXPECT_NE(normalized.find("/*"), std::string::npos);
  EXPECT_FALSE(Parser::Parse(normalized).ok());
}

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : sieve_(&campus_.db(), &campus_.groups()) {
    EXPECT_TRUE(sieve_.Init().ok());
    // alice sees owners 0 and 1; owner 1 only 9:00-14:00.
    EXPECT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(0, "alice", "any")).ok());
    EXPECT_TRUE(
        sieve_.AddPolicy(campus_.MakePolicy(1, "alice", "any", 9, 14)).ok());
  }

  MiniCampus campus_;
  SieveMiddleware sieve_;
  QueryMetadata md_{"alice", "any"};
};

TEST_F(SessionTest, PrepareOnceExecuteManyMatchesOneShot) {
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = 2";
  auto one_shot = sieve_.Execute(sql, md_);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();

  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->parameter_count(), 0u);
  for (int run = 0; run < 3; ++run) {
    auto repeated = prepared->Execute();
    ASSERT_TRUE(repeated.ok()) << repeated.status().ToString();
    EXPECT_EQ(OrderedFingerprints(*one_shot), OrderedFingerprints(*repeated))
        << "run " << run;
    EXPECT_EQ(one_shot->stats, repeated->stats) << "run " << run;
  }
}

TEST_F(SessionTest, PositionalParametersMatchInlinedLiterals) {
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi WHERE wifiAP = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared->parameter_count(), 1u);
  EXPECT_EQ(prepared->parameter_names()[0], "");

  for (int ap = 0; ap < 4; ++ap) {
    auto bound = prepared->Execute({Value::Int(ap)});
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    // Same rows and order as inlined literals. Stats may legitimately
    // differ: at rewrite time a `?` is not sargable, so the strategy
    // selector can pick a different (equally correct) access path than it
    // would for the literal query.
    auto literal = sieve_.Execute(
        "SELECT * FROM wifi WHERE wifiAP = " + std::to_string(ap), md_);
    ASSERT_TRUE(literal.ok());
    EXPECT_EQ(Fingerprints(*literal), Fingerprints(*bound)) << "ap=" << ap;
    // Re-binding the same value must be fully deterministic, stats included.
    auto again = prepared->Execute({Value::Int(ap)});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(OrderedFingerprints(*bound), OrderedFingerprints(*again));
    EXPECT_EQ(bound->stats, again->stats) << "ap=" << ap;
  }
}

TEST_F(SessionTest, NamedParametersShareSlotsAndIgnoreCase) {
  SieveSession session(&sieve_, md_);
  // :lo appears twice and must share one slot; names are case-insensitive.
  auto prepared = session.Prepare(
      "SELECT * FROM wifi WHERE ts_time BETWEEN :lo AND :hi AND "
      "ts_time >= :LO");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared->parameter_count(), 2u);
  EXPECT_EQ(prepared->parameter_names()[0], "lo");
  EXPECT_EQ(prepared->parameter_names()[1], "hi");

  auto named = prepared->ExecuteNamed(
      {{"HI", Value::String("12:00")}, {"lo", Value::String("09:00")}});
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  auto literal = sieve_.Execute(
      "SELECT * FROM wifi WHERE ts_time BETWEEN '09:00' AND '12:00' AND "
      "ts_time >= '09:00'",
      md_);
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(Fingerprints(*literal), Fingerprints(*named));
}

TEST_F(SessionTest, StringParameterCoercesToTimeColumn) {
  // Binding a string against a time column goes through the same literal
  // coercion as an inlined quoted literal.
  SieveSession session(&sieve_, md_);
  auto prepared =
      session.Prepare("SELECT * FROM wifi WHERE ts_time BETWEEN ? AND ?");
  ASSERT_TRUE(prepared.ok());
  auto bound =
      prepared->Execute({Value::String("09:00"), Value::String("11:00")});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto literal = sieve_.Execute(
      "SELECT * FROM wifi WHERE ts_time BETWEEN '09:00' AND '11:00'", md_);
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(Fingerprints(*literal), Fingerprints(*bound));
  EXPECT_GT(bound->size(), 0u);
}

TEST_F(SessionTest, MissingBindIsAnError) {
  SieveSession session(&sieve_, md_);
  auto prepared =
      session.Prepare("SELECT * FROM wifi WHERE wifiAP = ? AND owner = ?");
  ASSERT_TRUE(prepared.ok());
  ASSERT_EQ(prepared->parameter_count(), 2u);

  auto too_few = prepared->Execute({Value::Int(1)});
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);

  auto too_many =
      prepared->Execute({Value::Int(1), Value::Int(2), Value::Int(3)});
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);

  auto none = prepared->Execute();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, NamedBindingErrors) {
  SieveSession session(&sieve_, md_);
  auto prepared =
      session.Prepare("SELECT * FROM wifi WHERE wifiAP = :ap AND owner = ?");
  ASSERT_TRUE(prepared.ok());

  // The positional slot cannot be addressed by name.
  auto positional_by_name = prepared->ExecuteNamed({{"ap", Value::Int(1)}});
  ASSERT_FALSE(positional_by_name.ok());
  EXPECT_EQ(positional_by_name.status().code(), StatusCode::kInvalidArgument);

  auto all_named = session.Prepare(
      "SELECT * FROM wifi WHERE wifiAP = :ap AND owner = :who");
  ASSERT_TRUE(all_named.ok());
  auto unknown = all_named->ExecuteNamed(
      {{"ap", Value::Int(1)}, {"nobody", Value::Int(0)}});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  auto missing = all_named->ExecuteNamed({{"ap", Value::Int(1)}});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  auto twice = all_named->ExecuteNamed({{"ap", Value::Int(1)},
                                        {"AP", Value::Int(2)},
                                        {"who", Value::Int(0)}});
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, NullBindMatchesNothing) {
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi WHERE owner = ?");
  ASSERT_TRUE(prepared.ok());
  auto result = prepared->Execute({Value::Null()});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 0u);  // SQL NULL comparison is never true
}

TEST_F(SessionTest, TypeMismatchedBindComparesFalseNotCrash) {
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi WHERE owner = ?");
  ASSERT_TRUE(prepared.ok());
  // Values order across type families; an int column never equals a string.
  auto result = prepared->Execute({Value::String("bob")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 0u);
}

TEST_F(SessionTest, RewriteCacheHitsOnRepeatAndInvalidatesOnAddPolicy) {
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = ?";
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  RewriteCacheStats before = sieve_.rewrite_cache_stats();

  // Same SQL, different whitespace, same querier: cache hits.
  for (int i = 0; i < 5; ++i) {
    auto again = session.Prepare("SELECT *   FROM wifi\n WHERE wifiAP = ?");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->rewrite().get(), prepared->rewrite().get())
        << "expected the shared cached rewrite";
  }
  RewriteCacheStats after = sieve_.rewrite_cache_stats();
  EXPECT_GE(after.hits, before.hits + 5);

  // Comments — line and block — normalize away too (regression: block
  // comments used to produce a distinct cache key).
  auto commented = session.Prepare(
      "SELECT * /* projection */ FROM wifi -- table\n WHERE wifiAP = ?");
  ASSERT_TRUE(commented.ok());
  EXPECT_EQ(commented->rewrite().get(), prepared->rewrite().get())
      << "comment-only variants must share the cached rewrite";

  // AddPolicy for alice moves a counter this rewrite read: the next
  // Execute transparently re-prepares and reflects the new corpus.
  auto snapshot = prepared->rewrite();
  uint64_t epoch_before = sieve_.policy_epoch();
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(5, "alice", "any")).ok());
  EXPECT_GT(sieve_.policy_epoch(), epoch_before);
  EXPECT_TRUE(snapshot->stale());

  auto result = prepared->Execute({Value::Int(3)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto oracle =
      sieve_.ExecuteReference("SELECT * FROM wifi WHERE wifiAP = 3", md_);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(result->size(), oracle->size());
  bool saw_owner5 = false;
  for (const auto& row : result->rows) saw_owner5 |= row[2].AsInt() == 5;
  EXPECT_TRUE(saw_owner5) << "post-epoch execute must see the new policy";
  EXPECT_NE(prepared->rewrite().get(), snapshot.get())
      << "prepared query must have refreshed its snapshot";
  EXPECT_FALSE(prepared->rewrite()->stale());
  EXPECT_GE(sieve_.rewrite_cache_stats().invalidations, 1u)
      << "the refresh found the cached entry stale";
}

TEST_F(SessionTest, CursorStreamsIdenticalRowsAndStats) {
  const std::string sql = "SELECT * FROM wifi WHERE ts_time >= '08:00'";
  auto one_shot = sieve_.Execute(sql, md_);
  ASSERT_TRUE(one_shot.ok());
  ASSERT_GT(one_shot->size(), 10u);

  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->schema().ToString(), one_shot->schema.ToString());

  ResultSet chunked;
  chunked.schema = cursor->schema();
  size_t batches = 0;
  while (true) {
    auto more = cursor->Next(&chunked.rows, /*max_rows=*/7);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ++batches;
  }
  EXPECT_TRUE(cursor->exhausted());
  EXPECT_GT(batches, 1u) << "batch size 7 must take several pulls";
  EXPECT_EQ(OrderedFingerprints(*one_shot), OrderedFingerprints(chunked));
  EXPECT_EQ(one_shot->stats, cursor->stats());
}

TEST_F(SessionTest, CursorDrainMatchesExecute) {
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = 1";
  auto one_shot = sieve_.Execute(sql, md_);
  ASSERT_TRUE(one_shot.ok());

  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  auto drained = cursor->Drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(OrderedFingerprints(*one_shot), OrderedFingerprints(*drained));
  EXPECT_EQ(one_shot->stats, drained->stats);
}

TEST_F(SessionTest, ExhaustedCursorReleasesEpochPinForWriters) {
  // A drained-but-still-alive cursor must not hold the shared state lock:
  // AddPolicy on the same thread would otherwise deadlock.
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi WHERE wifiAP = 0");
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> batch;
  while (true) {
    auto more = cursor->Next(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  ASSERT_TRUE(cursor->exhausted());
  // Cursor still in scope; this must complete without blocking.
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(7, "alice", "any")).ok());
}

TEST_F(SessionTest, ClosedCursorReleasesEpochPinEarly) {
  // The LIMIT-style exit: read a few rows, Close(), then resume normal
  // session work (AddPolicy would deadlock if the pin were still held).
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi");
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> batch;
  auto more = cursor->Next(&batch, /*max_rows=*/5);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(*more);
  EXPECT_EQ(batch.size(), 5u);
  cursor->Close();
  EXPECT_TRUE(cursor->exhausted());
  EXPECT_EQ(cursor->stats().rows_output, 5u);  // frozen at emitted rows
  // Abandoned stream stays ended, and the writer path is unblocked.
  auto after_close = cursor->Next(&batch);
  ASSERT_TRUE(after_close.ok());
  EXPECT_FALSE(*after_close);
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(8, "alice", "any")).ok());
}

TEST_F(SessionTest, CursorRejectsZeroBatchWithoutEndingStream) {
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi WHERE wifiAP = 0");
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> batch;
  auto zero = cursor->Next(&batch, /*max_rows=*/0);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(cursor->exhausted());  // caller bug, not end of stream
  auto rest = cursor->Drain();
  ASSERT_TRUE(rest.ok());
  EXPECT_GT(rest->size(), 0u);
}

TEST_F(SessionTest, EntryWhoseSnapshotPredatesAMutationIsAMiss) {
  // A rewrite produced before a mutation (it raced the writer, or a holder
  // kept it past eviction) must never be served as current: its own
  // snapshot says it is stale, wherever it sits.
  VersionCounter counter{0};
  auto before = std::make_shared<PreparedRewrite>();
  before->versions.push_back(VersionSnapshot::Of(counter));
  counter.fetch_add(1);  // the mutation lands after the rewrite read it
  auto after = std::make_shared<PreparedRewrite>();
  after->versions.push_back(VersionSnapshot::Of(counter));
  EXPECT_TRUE(before->stale());
  EXPECT_FALSE(after->stale());

  RewriteCache cache;
  cache.Insert("before", before);
  cache.Insert("after", after);
  EXPECT_EQ(cache.Lookup("before"), nullptr);
  EXPECT_EQ(cache.Lookup("after").get(), after.get());
  RewriteCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.invalidations, 1u) << "found stale at lookup";
  EXPECT_EQ(cache.size(), 1u) << "the stale entry is dropped";
  EXPECT_EQ(cache.Lookup("before"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u) << "counted once";
}

TEST_F(SessionTest, NonAuthoritativeProbeMissIsNotCounted) {
  // The optimistic pre-lock probe must not double-count misses: only the
  // authoritative retry records one.
  RewriteCache cache;
  EXPECT_EQ(cache.Lookup("absent", /*authoritative=*/false), nullptr);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.Lookup("absent"), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(SessionTest, LruEvictionSparesJustHitEntry) {
  // Regression: capacity eviction used to erase(begin()) on an
  // unordered_map — an arbitrary, possibly hottest, entry. True LRU must
  // evict the least recently used entry, never one that just hit.
  RewriteCache cache(/*capacity=*/2);
  auto mk = [] { return std::make_shared<PreparedRewrite>(); };
  cache.Insert("a", mk());
  cache.Insert("b", mk());
  ASSERT_NE(cache.Lookup("a"), nullptr);  // refreshes a's recency
  cache.Insert("c", mk());                // evicts b (LRU), not a
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup("a"), nullptr) << "just-hit entry must survive";
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Eviction is capacity management, not invalidation.
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST_F(SessionTest, UnrelatedAddPolicyKeepsOtherQueriersRewrites) {
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(2, "bob", "any")).ok());
  SieveSession alice_session(&sieve_, md_);
  SieveSession bob_session(&sieve_, QueryMetadata{"bob", "any"});
  auto pa = alice_session.Prepare("SELECT * FROM wifi WHERE wifiAP = 1");
  auto pb = bob_session.Prepare("SELECT * FROM wifi WHERE wifiAP = 1");
  ASSERT_TRUE(pa.ok() && pb.ok());
  auto a_before = pa->rewrite();
  auto b_before = pb->rewrite();

  // A policy granted to bob stales bob's snapshot, not alice's.
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(3, "bob", "any")).ok());
  EXPECT_FALSE(a_before->stale());
  EXPECT_TRUE(b_before->stale());

  RewriteCacheStats before = sieve_.rewrite_cache_stats();
  ASSERT_TRUE(pa->Execute().ok());
  EXPECT_EQ(sieve_.rewrite_cache_stats().misses, before.misses)
      << "alice must execute without re-preparing";
  EXPECT_EQ(pa->rewrite().get(), a_before.get());

  // bob transparently re-prepares and sees the new corpus.
  auto rb = pb->Execute();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_NE(pb->rewrite().get(), b_before.get());
  auto oracle =
      sieve_.ExecuteReference("SELECT * FROM wifi WHERE wifiAP = 1",
                              QueryMetadata{"bob", "any"});
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(rb->size(), oracle->size());
}

// Fills the shared cache with synthetic entries until `n` entries have
// been evicted since the call.
void ChurnUntilEvicted(RewriteCache& cache, uint64_t n) {
  const uint64_t target = cache.stats().evictions + n;
  for (size_t i = 0; cache.stats().evictions < target; ++i) {
    ASSERT_LT(i, 2 * RewriteCache::kMaxEntries) << "churn never evicted";
    cache.Insert("churn-" + std::to_string(i),
                 std::make_shared<PreparedRewrite>());
  }
}

TEST_F(SessionTest, AddPolicyAfterEvictionStillInvalidatesHeldRewrite) {
  // End-to-end shape of the eviction-reach regression: alice prepares, cache
  // churn (here synthetic one-shot entries) evicts her resident entry, and
  // only THEN a policy for alice lands. Her PreparedQuery must re-prepare
  // and serve the post-mutation rows, not the snapshot it prepared under;
  // bob's evicted snapshot, whose keys the policy misses, stays valid.
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(2, "bob", "any")).ok());
  SieveSession session(&sieve_, md_);
  SieveSession bob_session(&sieve_, QueryMetadata{"bob", "any"});
  auto pa = session.Prepare("SELECT * FROM wifi WHERE wifiAP = 1");
  auto pb = bob_session.Prepare("SELECT * FROM wifi WHERE wifiAP = 1");
  ASSERT_TRUE(pa.ok() && pb.ok());
  auto before = pa->rewrite();

  ChurnUntilEvicted(sieve_.rewrite_cache(), 2);
  EXPECT_FALSE(before->stale()) << "eviction alone must not invalidate";

  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(5, "alice", "any")).ok());
  EXPECT_TRUE(before->stale())
      << "post-eviction AddPolicy must reach the held rewrite";
  EXPECT_FALSE(pb->rewrite()->stale());

  auto rows = pa->Execute();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_NE(pa->rewrite().get(), before.get()) << "must have re-prepared";
  auto oracle = sieve_.ExecuteReference("SELECT * FROM wifi WHERE wifiAP = 1",
                                        md_);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(rows->size(), oracle->size());
}

TEST_F(SessionTest, GroupGrantInvalidatesMemberQueriersRewrites) {
  // bob ∈ students: a policy granted to the group must stale bob's
  // cached rewrite (the grant reaches him through membership) while
  // leaving alice's (faculty) untouched.
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(2, "bob", "any")).ok());
  SieveSession alice_session(&sieve_, md_);
  SieveSession bob_session(&sieve_, QueryMetadata{"bob", "any"});
  auto pa = alice_session.Prepare("SELECT * FROM wifi WHERE wifiAP = 2");
  auto pb = bob_session.Prepare("SELECT * FROM wifi WHERE wifiAP = 2");
  ASSERT_TRUE(pa.ok() && pb.ok());

  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(4, "students", "any")).ok());
  EXPECT_FALSE(pa->rewrite()->stale());
  EXPECT_TRUE(pb->rewrite()->stale());

  auto rb = pb->Execute();
  ASSERT_TRUE(rb.ok());
  auto oracle =
      sieve_.ExecuteReference("SELECT * FROM wifi WHERE wifiAP = 2",
                              QueryMetadata{"bob", "any"});
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(rb->size(), oracle->size());
}

TEST_F(SessionTest, DefaultDenyVisibleInRewriteDiagnostics) {
  SieveSession session(&sieve_, QueryMetadata{"eve", "any"});
  auto prepared = session.Prepare("SELECT * FROM wifi");
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->rewrite()->default_denied);
  auto result = prepared->Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST_F(SessionTest, SetOptionsValidates) {
  SieveOptions bad = sieve_.options();
  bad.num_threads = 0;
  auto st = sieve_.set_options(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  bad = sieve_.options();
  bad.timeout_seconds = -1.0;
  st = sieve_.set_options(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  SieveOptions good = sieve_.options();
  good.num_threads = 4;
  good.timeout_seconds = 12.5;
  ASSERT_TRUE(sieve_.set_options(good).ok());
  EXPECT_EQ(sieve_.options().num_threads, 4);
  EXPECT_EQ(sieve_.options().timeout_seconds, 12.5);
}

TEST_F(SessionTest, SetOptionsTimeoutAppliesToPreparedExecution) {
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute().ok());

  SieveOptions options = sieve_.options();
  options.timeout_seconds = 1e-7;  // effectively instant
  ASSERT_TRUE(sieve_.set_options(options).ok());
  auto timed_out = prepared->Execute();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kTimeout);
}

TEST_F(SessionTest, UnboundParameterInsideScalarSubqueryFailsCleanly) {
  // Placeholders inside scalar subqueries are documented as unsupported:
  // the subquery text is re-parsed per outer row after binding happened.
  // (The subquery reads unprotected aps; one over a protected table is
  // refused at Prepare, see ScalarSubqueryOverProtectedTableIsDenied.)
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(
      "SELECT * FROM wifi WHERE wifiAP = "
      "(SELECT MAX(a.ap) FROM aps AS a WHERE a.building = ?)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  // The outer statement has no visible slot; the stray inner placeholder
  // surfaces as a clean execution error, not a crash.
  EXPECT_EQ(prepared->parameter_count(), 0u);
  auto result = prepared->Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
}

// A policy on the aps lookup table (no owner column: one AP is visible).
Policy ApsPolicy(const std::string& querier, int ap) {
  Policy p;
  p.table_name = "aps";
  p.owner = Value::Int(ap);
  p.querier = querier;
  p.purpose = "any";
  p.object_conditions.push_back(ObjectCondition::Eq("ap", Value::Int(ap)));
  return p;
}

TEST_F(SessionTest, ScalarSubqueryOverProtectedTableIsDenied) {
  // Regression: scalar subquery text executes as written, so it read the
  // protected wifi table unrestricted — owner 5's data leaked to alice
  // through a comparison value and through a select-list count.
  auto direct = sieve_.Execute("SELECT * FROM wifi AS w WHERE w.owner = 5", md_);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct->size(), 0u);

  SieveSession session(&sieve_, md_);
  for (const char* sql : {
           "SELECT * FROM aps WHERE ap = "
           "(SELECT MAX(w.wifiAP) FROM wifi AS w WHERE w.owner = 5)",
           "SELECT a.ap, (SELECT COUNT(*) FROM wifi AS w WHERE w.owner = 5) "
           "AS n FROM aps AS a",
           // Nested: inside a derived table, and inside another subquery.
           "SELECT * FROM (SELECT * FROM aps WHERE ap = "
           "(SELECT MAX(w.wifiAP) FROM wifi AS w)) AS d",
           "SELECT * FROM aps WHERE ap = (SELECT MAX(b.ap) FROM aps AS b "
           "WHERE b.ap = (SELECT MIN(w.wifiAP) FROM wifi AS w))",
       }) {
    auto prepared = session.Prepare(sql);
    ASSERT_FALSE(prepared.ok()) << sql;
    EXPECT_EQ(prepared.status().code(), StatusCode::kAccessDenied) << sql;
    auto one_shot = sieve_.Execute(sql, md_);
    ASSERT_FALSE(one_shot.ok()) << sql;
    EXPECT_EQ(one_shot.status().code(), StatusCode::kAccessDenied) << sql;
  }
  EXPECT_EQ(sieve_.rewrite_cache().size(), 1u) << "only the direct query";

  // A subquery over an unprotected table stays allowed.
  const std::string ok_sql =
      "SELECT * FROM wifi WHERE wifiAP = (SELECT MAX(a.ap) FROM aps AS a)";
  auto allowed = session.Execute(ok_sql);
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  auto oracle = sieve_.ExecuteReference(ok_sql, md_);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Fingerprints(*allowed), Fingerprints(*oracle));
  EXPECT_GT(allowed->size(), 0u);
}

TEST_F(SessionTest, CteBodyOverProtectedTableIsDenied) {
  // Regression: CTE bodies written in the query were not rewritten, so
  // they read the protected wifi table unrestricted — all 600 rows, or
  // owner 5's 60 rows, instead of alice's 90.
  auto direct = sieve_.Execute("SELECT * FROM wifi", md_);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct->size(), 90u);

  SieveSession session(&sieve_, md_);
  for (const char* sql : {
           "WITH x AS (SELECT * FROM wifi) SELECT * FROM x",
           "WITH x AS (SELECT * FROM wifi WHERE owner = 5) SELECT * FROM x",
           // Read from a later UNION arm only.
           "WITH x AS (SELECT * FROM wifi WHERE owner = 5) "
           "SELECT a.ap FROM aps AS a UNION SELECT x.wifiAP FROM x",
           // Inside a derived table, a nested CTE, and a CTE body's own
           // derived table.
           "SELECT * FROM (WITH x AS (SELECT * FROM wifi WHERE owner = 5) "
           "SELECT * FROM x) AS d",
           "WITH y AS (WITH x AS (SELECT * FROM wifi) SELECT * FROM x) "
           "SELECT * FROM y",
           "WITH x AS (SELECT * FROM (SELECT * FROM wifi) AS d) "
           "SELECT * FROM x",
       }) {
    auto prepared = session.Prepare(sql);
    ASSERT_FALSE(prepared.ok()) << sql;
    EXPECT_EQ(prepared.status().code(), StatusCode::kAccessDenied) << sql;
    auto one_shot = sieve_.Execute(sql, md_);
    ASSERT_FALSE(one_shot.ok()) << sql;
    EXPECT_EQ(one_shot.status().code(), StatusCode::kAccessDenied) << sql;
  }
  EXPECT_EQ(sieve_.rewrite_cache().size(), 1u) << "only the direct query";

  // A CTE over the unprotected aps table stays allowed, and the wifi it
  // joins is still enforced.
  const std::string ok_sql =
      "WITH x AS (SELECT * FROM aps WHERE ap < 3) "
      "SELECT w.owner, x.building FROM wifi AS w, x WHERE w.wifiAP = x.ap";
  auto allowed = session.Execute(ok_sql);
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  auto oracle = sieve_.ExecuteReference(ok_sql, md_);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(Fingerprints(*allowed), Fingerprints(*oracle));
  EXPECT_GT(allowed->size(), 0u);
  EXPECT_LT(allowed->size(), direct->size());
}

TEST_F(SessionTest, RecursiveCteFailsCleanly) {
  // Regression: a CTE reached from its own body recursed in the planner
  // until the stack overflowed, killing the process.
  SieveSession session(&sieve_, md_);
  for (const char* sql : {
           "WITH x AS (SELECT * FROM x) SELECT * FROM x",
           "WITH a AS (SELECT * FROM b), b AS (SELECT * FROM a) "
           "SELECT * FROM wifi, a",
       }) {
    auto one_shot = sieve_.Execute(sql, md_);
    ASSERT_FALSE(one_shot.ok()) << sql;
    EXPECT_EQ(one_shot.status().code(), StatusCode::kBindError) << sql;
    auto prepared = session.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << sql << " -> "
                               << prepared.status().ToString();
    auto executed = prepared->Execute();
    ASSERT_FALSE(executed.ok()) << sql;
    EXPECT_EQ(executed.status().code(), StatusCode::kBindError) << sql;
  }
  auto after = session.Execute("SELECT * FROM wifi");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->size(), 90u);
}

TEST_F(SessionTest, ReferenceOracleEnforcesDerivedTables) {
  // Regression: ExecuteReference skipped derived tables, so the oracle read
  // wifi unrestricted inside them (60, 400 and 300 rows for the first
  // three queries) while the enforced path returned alice's rows.
  const std::pair<const char*, size_t> cases[] = {
      {"SELECT * FROM (SELECT * FROM wifi WHERE owner = 5) AS d", 0},
      {"SELECT * FROM (SELECT * FROM wifi) AS d WHERE d.ts_time >= '10:00'",
       65},
      {"SELECT * FROM (SELECT * FROM wifi WHERE wifiAP <= 2) AS d", 45},
      {"SELECT d.owner, a.building FROM (SELECT * FROM wifi WHERE wifiAP "
       "<= 2) AS d, aps AS a WHERE d.wifiAP = a.ap",
       45},
  };
  for (const auto& [sql, expected] : cases) {
    auto enforced = sieve_.Execute(sql, md_);
    ASSERT_TRUE(enforced.ok()) << sql << " -> "
                               << enforced.status().ToString();
    EXPECT_EQ(enforced->size(), expected) << sql;
    auto oracle = sieve_.ExecuteReference(sql, md_);
    ASSERT_TRUE(oracle.ok()) << sql << " -> " << oracle.status().ToString();
    EXPECT_EQ(Fingerprints(*oracle), Fingerprints(*enforced)) << sql;
  }
}

TEST_F(SessionTest, SubqueryTableTurningProtectedDeniesAcceptedQuery) {
  // Subquery tables are dependencies: the first policy on aps stales an
  // accepted query whose subquery reads aps, and its re-prepare is denied.
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(
      "SELECT * FROM wifi WHERE wifiAP = (SELECT MAX(a.ap) FROM aps AS a)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->Execute().ok());

  ASSERT_TRUE(sieve_.AddPolicy(ApsPolicy("bob", 0)).ok());
  EXPECT_TRUE(prepared->rewrite()->stale());
  auto denied = prepared->Execute();
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kAccessDenied);
}

TEST_F(SessionTest, TableProtectionTransitionsStaleEveryQuerier) {
  // The first policy on aps (granted to alice) flips the table to
  // default-deny for everyone else, so bob's snapshot of the open table
  // goes stale; removing the policy reopens it.
  const std::string sql = "SELECT * FROM aps";
  const QueryMetadata bob{"bob", "any"};
  SieveSession session(&sieve_, bob);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  auto open = prepared->Execute();
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->size(), 6u);

  auto id = sieve_.AddPolicy(ApsPolicy("alice", 2));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(prepared->rewrite()->stale());
  auto closed = prepared->Execute();
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed->size(), 0u);
  auto oracle = sieve_.ExecuteReference(sql, bob);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Fingerprints(*closed), Fingerprints(*oracle));

  ASSERT_TRUE(sieve_.policies().RemovePolicy(*id).ok());
  EXPECT_TRUE(prepared->rewrite()->stale());
  auto reopened = prepared->Execute();
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->size(), 6u);
}

TEST_F(SessionTest, PolicyOnJoinedTableStalesJoinQuery) {
  // A join depends on both its tables: a policy on aps (for bob) stales
  // alice's wifi–aps join, which becomes default-denied on aps.
  const std::string sql =
      "SELECT w.id, a.building FROM wifi w, aps a WHERE w.wifiAP = a.ap";
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  auto before = prepared->Execute();
  ASSERT_TRUE(before.ok());
  EXPECT_GT(before->size(), 0u);

  ASSERT_TRUE(sieve_.AddPolicy(ApsPolicy("bob", 1)).ok());
  EXPECT_TRUE(prepared->rewrite()->stale());
  auto after = prepared->Execute();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto oracle = sieve_.ExecuteReference(sql, md_);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Fingerprints(*after), Fingerprints(*oracle));
  EXPECT_EQ(after->size(), 0u);
}

TEST_F(SessionTest, LoadFromTablesStalesEveryHeldSnapshot) {
  // A corpus reload stales every snapshot — resident or evicted-but-held.
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(2, "bob", "any")).ok());
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = 3";
  SieveSession alice_session(&sieve_, md_);
  auto pa = alice_session.Prepare(sql);
  ASSERT_TRUE(pa.ok());
  ChurnUntilEvicted(sieve_.rewrite_cache(), 1);  // alice's entry is evicted
  SieveSession bob_session(&sieve_, QueryMetadata{"bob", "any"});
  auto pb = bob_session.Prepare(sql);
  ASSERT_TRUE(pb.ok());
  EXPECT_FALSE(pa->rewrite()->stale());
  EXPECT_FALSE(pb->rewrite()->stale());

  ASSERT_TRUE(sieve_.policies().LoadFromTables().ok());
  EXPECT_TRUE(pa->rewrite()->stale());
  EXPECT_TRUE(pb->rewrite()->stale());
  for (PreparedQuery* prepared : {&*pa, &*pb}) {
    auto rows = prepared->Execute();
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    auto oracle = sieve_.ExecuteReference(sql, prepared->metadata());
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(Fingerprints(*rows), Fingerprints(*oracle));
    EXPECT_FALSE(prepared->rewrite()->stale());
  }
}

TEST_F(SessionTest, AnyPurposeGroupGrantStalesButOtherPurposeDoesNot) {
  // alice ∈ faculty. A faculty/"any" grant reaches her Analytics query
  // (group and purpose "any" at once); an alice/Billing grant does not.
  const QueryMetadata analytics{"alice", "Analytics"};
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = 2";
  SieveSession session(&sieve_, analytics);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute().ok());

  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(3, "faculty", "any")).ok());
  EXPECT_TRUE(prepared->rewrite()->stale());
  auto rows = prepared->Execute();
  ASSERT_TRUE(rows.ok());
  auto oracle = sieve_.ExecuteReference(sql, analytics);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Fingerprints(*rows), Fingerprints(*oracle));
  bool saw_owner3 = false;
  for (const auto& row : rows->rows) saw_owner3 |= row[2].AsInt() == 3;
  EXPECT_TRUE(saw_owner3);

  auto snapshot = prepared->rewrite();
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(4, "alice", "Billing")).ok());
  EXPECT_FALSE(snapshot->stale());
  RewriteCacheStats before = sieve_.rewrite_cache_stats();
  ASSERT_TRUE(prepared->Execute().ok());
  EXPECT_EQ(prepared->rewrite().get(), snapshot.get());
  EXPECT_EQ(sieve_.rewrite_cache_stats().misses, before.misses);
}

TEST_F(SessionTest, HoldersOfOneKeyConvergeAfterMutation) {
  // Two sessions of one querier share a cached entry. After a mutation on
  // its keys the first to execute re-prepares and re-inserts; the second
  // then refreshes from the cache onto that same rewrite.
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = 4";
  SieveSession s1(&sieve_, md_);
  SieveSession s2(&sieve_, md_);
  auto p1 = s1.Prepare(sql);
  auto p2 = s2.Prepare(sql);
  ASSERT_TRUE(p1.ok() && p2.ok());
  ASSERT_EQ(p1->rewrite().get(), p2->rewrite().get());

  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(6, "alice", "any")).ok());
  ASSERT_TRUE(p1->Execute().ok());
  RewriteCacheStats before = sieve_.rewrite_cache_stats();
  auto rows = p2->Execute();
  ASSERT_TRUE(rows.ok());
  RewriteCacheStats after = sieve_.rewrite_cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(p1->rewrite().get(), p2->rewrite().get());
  auto oracle = sieve_.ExecuteReference(sql, md_);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Fingerprints(*rows), Fingerprints(*oracle));
}

}  // namespace
}  // namespace sieve
