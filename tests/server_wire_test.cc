// Wire-layer robustness: payload encoding round-trips, incremental frame
// extraction, malformed/truncated/oversized frames, default-deny
// authentication, random-bytes fuzzing, a query that once crashed the
// planner (a recursive CTE), and connection teardown that
// releases middleware resources (the mid-cursor disconnect case).

#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/wire.h"
#include "tests/server_test_util.h"

namespace sieve::server {
namespace {

TEST(WireEncodingTest, ValueRoundTrip) {
  std::vector<Value> values = {
      Value::Null(),          Value::Bool(true),
      Value::Bool(false),     Value::Int(-42),
      Value::Int(1) ,         Value::Double(3.25),
      Value::String(""),      Value::String("héllo wörld"),
      Value::Time(9 * 3600),  Value::Date(18345),
  };
  WireWriter w;
  for (const Value& v : values) w.PutValue(v);
  WireReader rd(w.payload());
  for (const Value& expected : values) {
    auto got = rd.ReadValue();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected);
    EXPECT_EQ(got->type(), expected.type());
  }
  EXPECT_TRUE(rd.AtEnd());
}

TEST(WireEncodingTest, ReaderRejectsTruncation) {
  WireWriter w;
  w.PutU32(7);
  w.PutString("abcdef");
  std::string payload = w.payload();
  // Every strict prefix must fail cleanly, never read out of bounds.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireReader rd(std::string_view(payload).substr(0, cut));
    auto u = rd.U32();
    if (!u.ok()) continue;
    auto s = rd.String();
    EXPECT_FALSE(s.ok()) << "prefix of " << cut << " bytes decoded fully";
  }
}

TEST(WireFramingTest, ExtractFrameByteAtATime) {
  std::string wire = EncodeFrame(MsgType::kPrepare, "SELECT 1") +
                     EncodeFrame(MsgType::kStats, "");
  std::string buf;
  std::vector<Frame> frames;
  for (char c : wire) {
    buf.push_back(c);
    Frame f;
    FrameParse p = ExtractFrame(&buf, kMaxFrameBytes, &f);
    if (p == FrameParse::kFrame) frames.push_back(std::move(f));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::kPrepare);
  EXPECT_EQ(frames[0].payload, "SELECT 1");
  EXPECT_EQ(frames[1].type, MsgType::kStats);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_TRUE(buf.empty());
}

TEST(WireFramingTest, ZeroLengthAndOversizedFrames) {
  Frame f;
  std::string zero(4, '\0');  // len == 0
  EXPECT_EQ(ExtractFrame(&zero, kMaxFrameBytes, &f), FrameParse::kMalformed);

  std::string huge;
  uint32_t len = 512;
  for (int i = 0; i < 4; ++i) huge.push_back(static_cast<char>(len >> (8 * i)));
  EXPECT_EQ(ExtractFrame(&huge, 256, &f), FrameParse::kTooLarge);
}

TEST(ServerAuthTest, CommandBeforeHelloIsRejectedAndClosed) {
  ServerHarness h;
  int fd = RawConnect(h.port());
  ASSERT_TRUE(WriteFrame(fd, MsgType::kStats, "").ok());
  auto reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MsgType::kError);
  WireReader rd(reply->payload);
  auto code = rd.U16();
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(static_cast<WireError>(*code), WireError::kAuthRequired);
  // The server closes after the error: next read sees EOF.
  auto next = ReadFrame(fd);
  EXPECT_FALSE(next.ok());
  ::close(fd);
}

TEST(ServerAuthTest, UnknownTokenIsDefaultDenied) {
  ServerHarness h;
  SieveClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", h.port()).ok());
  auto md = c.Hello("no-such-token");
  ASSERT_FALSE(md.ok());
  EXPECT_EQ(md.status().code(), StatusCode::kAccessDenied);
  EXPECT_EQ(static_cast<WireError>(c.last_wire_error()),
            WireError::kAuthFailed);
  EXPECT_GE(h.server().stats().auth_failures, 1u);
}

TEST(ServerAuthTest, RegisteredTokenWithUnknownSubjectIsDenied) {
  ServerHarness h;
  // mallory has a valid token but no policy in the corpus addresses her.
  h.auth().RegisterToken("tok-mallory", MakeMd("mallory", "any"));
  SieveClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", h.port()).ok());
  auto md = c.Hello("tok-mallory");
  ASSERT_FALSE(md.ok());
  EXPECT_EQ(md.status().code(), StatusCode::kAccessDenied);
  EXPECT_EQ(static_cast<WireError>(c.last_wire_error()),
            WireError::kAuthFailed);
}

TEST(ServerAuthTest, UnknownSubjectAdmittedWhenCheckDisabled) {
  ServerOptions opts;
  opts.require_known_subject = false;
  ServerHarness h(opts);
  h.auth().RegisterToken("tok-mallory", MakeMd("mallory", "any"));
  SieveClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", h.port()).ok());
  auto md = c.Hello("tok-mallory");
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  // She authenticates, but enforcement still default-denies her rows.
  auto stmt = c.Prepare("SELECT id FROM wifi");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto res = c.Execute(stmt->id);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->rows.empty());
}

TEST(ServerAuthTest, GroupMemberAuthenticatesThroughGroupPolicy) {
  ServerHarness h;
  // carol has no direct policy — only `students` group membership.
  auto c = h.Client("tok-carol");
  auto stmt = c->Prepare("SELECT owner FROM wifi GROUP BY owner");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto res = c->Execute(stmt->id);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][0], Value::Int(6));
}

TEST(ServerProtocolTest, BadVersionIsRejected) {
  ServerHarness h;
  int fd = RawConnect(h.port());
  WireWriter w;
  w.PutU8(99);
  w.PutString("tok-alice");
  ASSERT_TRUE(WriteFrame(fd, MsgType::kHello, w.payload()).ok());
  auto reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MsgType::kError);
  ::close(fd);
}

TEST(ServerProtocolTest, TruncatedPayloadKeepsConnectionUsable) {
  ServerHarness h;
  int fd = RawConnect(h.port());
  WireWriter hello;
  hello.PutU8(kProtocolVersion);
  hello.PutString("tok-alice");
  ASSERT_TRUE(WriteFrame(fd, MsgType::kHello, hello.payload()).ok());
  auto ok = ReadFrame(fd);
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok->type, MsgType::kHelloOk);

  // EXECUTE with a truncated payload (only 2 of 10 header bytes): a
  // payload-level error, not a framing error — the reply is MALFORMED and
  // the connection survives.
  ASSERT_TRUE(WriteFrame(fd, MsgType::kExecute, std::string(2, '\x01')).ok());
  auto err = ReadFrame(fd);
  ASSERT_TRUE(err.ok());
  ASSERT_EQ(err->type, MsgType::kError);
  WireReader rd(err->payload);
  auto code = rd.U16();
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(static_cast<WireError>(*code), WireError::kMalformed);

  ASSERT_TRUE(WriteFrame(fd, MsgType::kStats, "").ok());
  auto stats = ReadFrame(fd);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->type, MsgType::kStatsOk);
  ::close(fd);
}

TEST(ServerProtocolTest, OversizedFrameGetsErrorThenClose) {
  ServerOptions opts;
  opts.max_frame_bytes = 1024;
  ServerHarness h(opts);
  int fd = RawConnect(h.port());
  // Announce a 1 MiB frame; send only the header.
  uint32_t len = 1u << 20;
  std::string hdr;
  for (int i = 0; i < 4; ++i) hdr.push_back(static_cast<char>(len >> (8 * i)));
  RawSend(fd, hdr);
  auto reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MsgType::kError);
  WireReader rd(reply->payload);
  auto code = rd.U16();
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(static_cast<WireError>(*code), WireError::kFrameTooLarge);
  auto next = ReadFrame(fd);
  EXPECT_FALSE(next.ok());
  ::close(fd);
}

TEST(ServerProtocolTest, UnknownMessageTypeGetsMalformedReply) {
  ServerHarness h;
  auto c = h.Client("tok-alice");
  // Borrow the client's socket indirectly: raw connection instead.
  int fd = RawConnect(h.port());
  WireWriter hello;
  hello.PutU8(kProtocolVersion);
  hello.PutString("tok-alice");
  ASSERT_TRUE(WriteFrame(fd, MsgType::kHello, hello.payload()).ok());
  ASSERT_TRUE(ReadFrame(fd).ok());
  ASSERT_TRUE(WriteFrame(fd, static_cast<MsgType>(0x6f), "junk").ok());
  auto reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MsgType::kError);
  ::close(fd);
}

TEST(ServerFuzzTest, RandomBytesNeverKillTheServer) {
  ServerHarness h;
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> len_dist(1, 512);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int iter = 0; iter < 50; ++iter) {
    int fd = RawConnect(h.port());
    std::string garbage;
    int n = len_dist(rng);
    garbage.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      garbage.push_back(static_cast<char>(byte_dist(rng)));
    }
    RawSend(fd, garbage);
    ::close(fd);
  }
  // The server survives and still serves a well-behaved client.
  auto c = h.Client("tok-alice");
  auto stmt = c->Prepare("SELECT COUNT(*) FROM wifi");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto res = c->Execute(stmt->id);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][0], Value::Int(300));  // alice: owners 0..4
}

TEST(ServerFuzzTest, RecursiveCteGetsErrorReplyNotACrash) {
  // Regression: a CTE reached from its own body overflowed the planner's
  // stack, so any authenticated client could kill the server.
  ServerHarness h;
  auto c = h.Client("tok-alice");
  for (const char* sql : {
           "WITH x AS (SELECT * FROM x) SELECT * FROM x",
           "WITH a AS (SELECT * FROM b), b AS (SELECT * FROM a) "
           "SELECT * FROM wifi, a",
       }) {
    auto stmt = c->Prepare(sql);
    ASSERT_TRUE(stmt.ok()) << sql << " -> " << stmt.status().ToString();
    auto res = c->Execute(stmt->id);
    ASSERT_FALSE(res.ok()) << sql;
    EXPECT_EQ(static_cast<WireError>(c->last_wire_error()),
              WireError::kExecFailed)
        << sql;
    EXPECT_NE(res.status().message().find("recursive CTEs are unsupported"),
              std::string::npos)
        << res.status().ToString();
  }
  // The same connection still serves a well-behaved query.
  auto stmt = c->Prepare("SELECT COUNT(*) FROM wifi");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto res = c->Execute(stmt->id);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][0], Value::Int(300));  // alice: owners 0..4
}

TEST(ServerTeardownTest, MidCursorDisconnectReleasesSessionAndPin) {
  ServerHarness h;
  {
    auto c = h.Client("tok-alice");
    auto stmt = c->Prepare("SELECT id, owner FROM wifi");
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto first = c->Execute(stmt->id, {}, /*chunk_rows=*/10);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_FALSE(first->done);
    EXPECT_EQ(first->rows.size(), 10u);
    EXPECT_EQ(h.server().stats().open_cursors, 1u);
    // Abrupt disconnect with the cursor open.
    c->Close();
  }
  // The reaper must close the cursor and release its shared pin on the
  // middleware state gate; AddPolicy (exclusive) then completes. Run it
  // with a deadline so a leaked pin fails the test instead of hanging it.
  auto fut = std::async(std::launch::async, [&] {
    return h.mw().AddPolicy(h.campus().MakePolicy(7, "alice", "any")).ok();
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "cursor pin leaked: AddPolicy still blocked 10s after disconnect";
  EXPECT_TRUE(fut.get());
  // And the connection itself is gone.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (h.server().stats().active_connections != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(h.server().stats().active_connections, 0u);
  EXPECT_EQ(h.server().stats().open_cursors, 0u);
}

TEST(ServerStatsTest, StatsJsonSurfacesCacheAndAuditCounters) {
  ServerHarness h;
  auto c = h.Client("tok-alice");
  auto stmt = c->Prepare("SELECT id FROM wifi WHERE owner = 1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(c->Execute(stmt->id).ok());
  auto json = c->Stats();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("\"queries_executed\":1"), std::string::npos) << *json;
  EXPECT_NE(json->find("\"cache\""), std::string::npos);
  EXPECT_NE(json->find("\"misses\""), std::string::npos);
  EXPECT_NE(json->find("\"audit\""), std::string::npos);
  EXPECT_NE(json->find("\"dropped\""), std::string::npos);
  EXPECT_NE(json->find("\"policy_epoch\""), std::string::npos);
}

TEST(ServerLimitsTest, PreparedStatementCapIsEnforced) {
  ServerOptions opts;
  opts.max_prepared_per_conn = 2;
  ServerHarness h(opts);
  auto c = h.Client("tok-alice");
  ASSERT_TRUE(c->Prepare("SELECT id FROM wifi").ok());
  ASSERT_TRUE(c->Prepare("SELECT owner FROM wifi").ok());
  auto third = c->Prepare("SELECT wifiAP FROM wifi");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(static_cast<WireError>(c->last_wire_error()),
            WireError::kTooManyStatements);
  // Closing one makes room again.
}

TEST(ServerLimitsTest, ConnectionCapRejectsWithCleanError) {
  ServerOptions opts;
  opts.max_connections = 2;
  ServerHarness h(opts);
  auto c1 = h.Client("tok-alice");
  auto c2 = h.Client("tok-bob");
  int fd = RawConnect(h.port());
  auto reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MsgType::kError);
  WireReader rd(reply->payload);
  auto code = rd.U16();
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(static_cast<WireError>(*code), WireError::kTooManyConnections);
  ::close(fd);
  EXPECT_GE(h.server().stats().connections_rejected, 1u);
}

}  // namespace
}  // namespace sieve::server
