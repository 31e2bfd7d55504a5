// Admission control: deterministic token-bucket behavior (injected
// clock), the per-querier in-flight ceiling (cursors hold their slot
// until drained/closed), clean RATE_LIMITED replies that leave the
// connection usable, bystander isolation, and cursor backpressure
// (chunks clamped to max_fetch_rows, totals exact).

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/auth.h"
#include "tests/server_test_util.h"

namespace sieve::server {
namespace {

TEST(AdmissionControllerTest, TokenBucketIsDeterministic) {
  double now = 0.0;
  AdmissionController ac([&] { return now; });
  AdmissionLimits limits;
  limits.rate_per_sec = 1.0;
  limits.burst = 2.0;
  // Bucket starts full: the burst is admitted, the next request is not.
  EXPECT_EQ(ac.TryAdmit("q", limits), AdmissionController::Verdict::kAdmit);
  EXPECT_EQ(ac.TryAdmit("q", limits), AdmissionController::Verdict::kAdmit);
  EXPECT_EQ(ac.TryAdmit("q", limits),
            AdmissionController::Verdict::kRateLimited);
  // One second refills exactly one token.
  now = 1.0;
  EXPECT_EQ(ac.TryAdmit("q", limits), AdmissionController::Verdict::kAdmit);
  EXPECT_EQ(ac.TryAdmit("q", limits),
            AdmissionController::Verdict::kRateLimited);
  // Refill is capped at the burst, not unbounded.
  now = 100.0;
  EXPECT_EQ(ac.TryAdmit("q", limits), AdmissionController::Verdict::kAdmit);
  EXPECT_EQ(ac.TryAdmit("q", limits), AdmissionController::Verdict::kAdmit);
  EXPECT_EQ(ac.TryAdmit("q", limits),
            AdmissionController::Verdict::kRateLimited);
  EXPECT_EQ(ac.stats().rate_limited, 3u);
  EXPECT_EQ(ac.stats().admitted, 5u);
}

TEST(AdmissionControllerTest, InFlightCeilingAndRelease) {
  AdmissionController ac;
  AdmissionLimits limits;
  limits.max_in_flight = 1;
  EXPECT_EQ(ac.TryAdmit("q", limits), AdmissionController::Verdict::kAdmit);
  EXPECT_EQ(ac.TryAdmit("q", limits),
            AdmissionController::Verdict::kTooManyInFlight);
  ac.Release("q");
  EXPECT_EQ(ac.TryAdmit("q", limits), AdmissionController::Verdict::kAdmit);
  EXPECT_EQ(ac.InFlight("q"), 1);
  // Queriers are independent.
  EXPECT_EQ(ac.TryAdmit("other", limits),
            AdmissionController::Verdict::kAdmit);
}

TEST(AdmissionControllerTest, QuerierKeyIsCaseInsensitive) {
  AdmissionController ac;
  AdmissionLimits limits;
  limits.max_in_flight = 1;
  EXPECT_EQ(ac.TryAdmit("Alice", limits), AdmissionController::Verdict::kAdmit);
  EXPECT_EQ(ac.TryAdmit("alice", limits),
            AdmissionController::Verdict::kTooManyInFlight);
}

TEST(ServerAdmissionTest, OverLimitQuerierGetsCleanRateLimitedReply) {
  auto now = std::make_shared<std::atomic<double>>(0.0);
  ServerOptions opts;
  opts.admission_clock = [now] { return now->load(); };
  ServerHarness h(opts);
  AdmissionLimits bronze;
  bronze.rate_per_sec = 1.0;
  bronze.burst = 2.0;
  h.auth().RegisterToken("tok-bronze", MakeMd("alice", "any"), bronze);

  auto c = h.Client("tok-bronze");
  auto stmt = c->Prepare("SELECT COUNT(*) FROM wifi");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(c->Execute(stmt->id).ok());
  ASSERT_TRUE(c->Execute(stmt->id).ok());
  // Third execute within the same instant: clean RATE_LIMITED reply, no
  // drop, no crash — and the connection stays fully usable.
  auto limited = c->Execute(stmt->id);
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(static_cast<WireError>(c->last_wire_error()),
            WireError::kRateLimited);
  EXPECT_TRUE(c->Stats().ok());
  // After a refill the same statement executes again.
  now->store(1.5);
  auto retry = c->Execute(stmt->id);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  ASSERT_EQ(retry->rows.size(), 1u);
  EXPECT_EQ(retry->rows[0][0], Value::Int(300));
  EXPECT_EQ(h.server().stats().rate_limited, 1u);
}

TEST(ServerAdmissionTest, BystanderUnaffectedByRateLimitedSpammer) {
  ServerOptions opts;
  ServerHarness h(opts);
  AdmissionLimits bronze;
  bronze.rate_per_sec = 5.0;
  bronze.burst = 5.0;
  h.auth().RegisterToken("tok-bronze", MakeMd("bob", "Analytics"), bronze);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> spam_attempts{0};
  std::thread spammer([&] {
    auto c = h.Client("tok-bronze");
    auto stmt = c->Prepare("SELECT COUNT(*) FROM wifi");
    if (!stmt.ok()) return;
    while (!stop.load()) {
      (void)c->Execute(stmt->id);  // mostly RATE_LIMITED
      spam_attempts.fetch_add(1);
    }
  });

  // The unlimited bystander (alice) keeps executing successfully, with
  // latency bounded well below anything a starved worker pool would show.
  auto c = h.Client("tok-alice");
  auto stmt = c->Prepare("SELECT COUNT(*) FROM wifi WHERE owner = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // Start only once the server is rate-limiting the spammer: on a loaded
  // host the bystander's queries could otherwise all finish before the
  // spammer thread completes its first attempt.
  const auto limited_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.server().stats().rate_limited < 1 &&
         std::chrono::steady_clock::now() < limited_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  double worst_ms = 0.0;
  for (int i = 0; i < 25; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto res = c->Execute(stmt->id, {Value::Int(i % 5)});
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    worst_ms = std::max(worst_ms, ms);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res->rows.size(), 1u);
    EXPECT_EQ(res->rows[0][0], Value::Int(60));
  }
  stop.store(true);
  spammer.join();
  EXPECT_GT(spam_attempts.load(), 0u);
  EXPECT_GE(h.server().stats().rate_limited, 1u);
  // Generous CI-safe bound: each query is a 600-row indexed count.
  EXPECT_LT(worst_ms, 2000.0);
}

TEST(ServerAdmissionTest, OpenCursorHoldsInFlightSlotUntilClosed) {
  ServerHarness h;
  AdmissionLimits solo;
  solo.max_in_flight = 1;
  h.auth().RegisterToken("tok-solo", MakeMd("alice", "any"), solo);

  auto c1 = h.Client("tok-solo");
  auto stmt1 = c1->Prepare("SELECT id FROM wifi");
  ASSERT_TRUE(stmt1.ok()) << stmt1.status().ToString();
  auto first = c1->Execute(stmt1->id, {}, /*chunk_rows=*/10);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->done);

  // The open cursor still occupies alice's single in-flight slot: a
  // second connection under the same querier is refused.
  auto c2 = h.Client("tok-solo");
  auto stmt2 = c2->Prepare("SELECT id FROM wifi");
  ASSERT_TRUE(stmt2.ok()) << stmt2.status().ToString();
  auto refused = c2->Execute(stmt2->id);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(static_cast<WireError>(c2->last_wire_error()),
            WireError::kTooManyInFlight);

  ASSERT_TRUE(c1->CloseCursor(first->cursor_id).ok());
  auto admitted = c2->Execute(stmt2->id);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_EQ(admitted->rows.size(), 300u);
}

TEST(ServerBackpressureTest, FetchIsClampedToMaxFetchRows) {
  ServerOptions opts;
  opts.max_fetch_rows = 7;
  ServerHarness h(opts);
  auto c = h.Client("tok-alice");
  auto stmt = c->Prepare("SELECT id FROM wifi");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // Both the EXECUTE chunk and every FETCH are clamped server-side.
  auto chunk = c->Execute(stmt->id, {}, /*chunk_rows=*/100);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  EXPECT_EQ(chunk->rows.size(), 7u);
  auto more = c->Fetch(chunk->cursor_id, 100);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_EQ(more->rows.size(), 7u);
  ASSERT_TRUE(c->CloseCursor(chunk->cursor_id).ok());
}

TEST(ServerBackpressureTest, ChunkedFetchSumsToExactTotal) {
  ServerHarness h;
  auto c = h.Client("tok-alice");
  auto stmt = c->Prepare("SELECT id, owner FROM wifi WHERE owner <= 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // In-process ground truth.
  SieveSession session(&h.mw(), MakeMd("alice", "any"));
  auto expected = session.Execute("SELECT id, owner FROM wifi WHERE owner <= 2");
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  auto chunk = c->Execute(stmt->id, {}, /*chunk_rows=*/13);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  std::vector<Row> all = chunk->rows;
  size_t outstanding_max = chunk->rows.size();
  while (!chunk->done) {
    auto next = c->Fetch(chunk->cursor_id, 13);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    // Bounded outstanding batches: the server never hands back more than
    // the requested chunk.
    EXPECT_LE(next->rows.size(), 13u);
    outstanding_max = std::max(outstanding_max, next->rows.size());
    all.insert(all.end(), next->rows.begin(), next->rows.end());
    chunk->done = next->done;
  }
  EXPECT_LE(outstanding_max, 13u);
  ASSERT_EQ(all.size(), expected->rows.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], expected->rows[i]) << "row " << i;
  }
  EXPECT_EQ(h.server().stats().open_cursors, 0u);
}

TEST(ServerAdmissionTest, CursorOpenRuleRejectsInterleavedExecute) {
  ServerHarness h;
  auto c = h.Client("tok-alice");
  auto stmt = c->Prepare("SELECT id FROM wifi");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto chunk = c->Execute(stmt->id, {}, /*chunk_rows=*/5);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  ASSERT_FALSE(chunk->done);
  // With a cursor open, PREPARE and EXECUTE are refused (CURSOR_OPEN) —
  // the protocol rule that makes self-deadlock unrepresentable.
  auto p = c->Prepare("SELECT owner FROM wifi");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(static_cast<WireError>(c->last_wire_error()),
            WireError::kCursorOpen);
  auto e = c->Execute(stmt->id);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(static_cast<WireError>(c->last_wire_error()),
            WireError::kCursorOpen);
  // STATS stays allowed (cursor lane), and draining restores normal use.
  EXPECT_TRUE(c->Stats().ok());
  ASSERT_TRUE(c->CloseCursor(chunk->cursor_id).ok());
  EXPECT_TRUE(c->Execute(stmt->id).ok());
}

}  // namespace
}  // namespace sieve::server
