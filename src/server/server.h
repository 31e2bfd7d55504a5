#ifndef SIEVE_SERVER_SERVER_H_
#define SIEVE_SERVER_SERVER_H_

// Concurrent TCP front-end over SieveMiddleware: the serving layer that
// turns the in-process session API into something "heavy traffic from
// millions of users" can hit. One IO thread multiplexes every connection
// (poll + non-blocking reads + incremental frame extraction); complete
// requests are dispatched to a small bounded worker set — many more
// connections than threads — with per-connection ordering (at most one
// request of a connection is in flight at a time, so the single-threaded
// SieveSession contract holds even though consecutive requests may run
// on different workers; the middleware's SharedGate makes the cursor pin
// transferable between them).
//
// ## Two dispatch lanes (liveness under writer pressure)
//
// A cache-miss PREPARE or a stale-refresh EXECUTE takes the middleware
// state gate *exclusively*, which waits for every open cursor's shared
// pin. If all workers could block there while the FETCHes that would
// drain those cursors sat queued, the server would deadlock against
// itself. Requests are therefore split into two lanes:
//   * cursor lane  — FETCH / CLOSE_CURSOR / CLOSE_STMT / STATS and
//     protocol-error replies: none of these ever block on the state
//     gate. Worker 0 serves ONLY this lane; every other worker prefers
//     it before taking general work.
//   * general lane — HELLO / PREPARE / EXECUTE: may execute queries and
//     may block on the gate. Served by workers 1..N-1.
// With >= 2 workers (enforced), pinned cursors always drain, so every
// exclusive acquisition eventually proceeds.
//
// ## Protocol rule: one cursor per connection
//
// While a connection has an open server-side cursor, only cursor-lane
// commands are accepted (anything else gets CURSOR_OPEN). This bounds
// the server's buffering to one chunk per connection (the cursor
// backpressure story — a slow reader holds a cursor, not result rows)
// and makes the self-deadlock of "PREPARE while my own cursor pins the
// gate" unrepresentable.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/auth.h"
#include "server/wire.h"
#include "sieve/middleware.h"
#include "sieve/session.h"

namespace sieve::server {

struct ServerOptions {
  /// Listen address; the reproduction serves loopback benches/tests.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port, reported by SieveServer::port().
  uint16_t port = 0;
  /// Bounded worker set; clamped to >= 2 (worker 0 is the cursor lane).
  int num_workers = 4;
  size_t max_connections = 1024;
  /// Receive-side frame ceiling (see wire.h). Also bounds reply frames:
  /// a materialized result that would overflow it is refused with a hint
  /// to use a cursor.
  uint32_t max_frame_bytes = kMaxFrameBytes;
  /// Hard cap on rows per EXECUTE chunk / FETCH (requests clamp to it):
  /// bounds the outstanding batch a slow reader can pin.
  uint32_t max_fetch_rows = 8192;
  /// Prepared statements one connection may hold.
  size_t max_prepared_per_conn = 64;
  /// Frames queued per connection before the IO thread stops reading its
  /// socket (pipelining backpressure).
  size_t max_queued_frames = 32;
  /// Reject HELLO identities that are not subjects of the policy corpus
  /// (see IsKnownSubject). Default-deny posture.
  bool require_known_subject = true;
  /// Give up on a reply write blocked this long (slow/stuck reader) and
  /// drop the connection — only that connection: its cursor is closed and
  /// its admission slot released, everything else keeps serving. 0 = wait
  /// forever.
  double write_timeout_seconds = 30.0;
  /// Grace period Stop() grants in-flight requests and open cursors
  /// before the hard teardown (see Stop). 0 = tear down immediately.
  double drain_grace_seconds = 5.0;
  /// SO_SNDBUF applied to accepted sockets when > 0. Test knob: a tiny
  /// send buffer makes the write-timeout path reachable with small
  /// results.
  int so_sndbuf = 0;
  /// Admission limits applied when a token was registered without any.
  AdmissionLimits default_limits;
  /// Monotonic-seconds clock for the admission controller's token
  /// buckets; empty = steady_clock. Injectable so rate-limit tests are
  /// deterministic.
  std::function<double()> admission_clock;
};

class SieveServer {
 public:
  /// `middleware` and `auth` must outlive the server.
  SieveServer(SieveMiddleware* middleware, AuthRegistry* auth,
              ServerOptions options = {});
  ~SieveServer();

  SieveServer(const SieveServer&) = delete;
  SieveServer& operator=(const SieveServer&) = delete;

  /// Binds, listens and spawns the IO + worker threads.
  Status Start();

  /// Graceful drain, then stop. Phase 1 (drain): new connections and new
  /// work-starting requests (HELLO / PREPARE / EXECUTE) are refused with
  /// SERVER_SHUTDOWN while in-flight requests finish and open cursors
  /// keep serving FETCH / CLOSE_* until drained — bounded by
  /// drain_grace_seconds. Phase 2 (hard stop): whatever remains is torn
  /// down (open cursors are closed, releasing their middleware pins),
  /// all threads join, and the pending audit ring is flushed. Drain
  /// outcomes are counted in Stats (cursors_drained / cursors_aborted /
  /// drain_rejected). Idempotent.
  void Stop();

  /// Bound port (valid after Start; useful with port 0).
  uint16_t port() const { return port_; }

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;
    uint64_t auth_failures = 0;
    uint64_t frames_received = 0;
    uint64_t queries_executed = 0;
    uint64_t protocol_errors = 0;
    uint64_t rate_limited = 0;       ///< token-bucket rejections
    uint64_t in_flight_rejected = 0; ///< in-flight-ceiling rejections
    uint64_t write_timeouts = 0;     ///< connections dropped by a blocked write
    uint64_t drain_rejected = 0;     ///< requests refused during Stop() drain
    uint64_t cursors_drained = 0;    ///< cursors that finished during drain
    uint64_t cursors_aborted = 0;    ///< cursors force-closed at hard stop
    size_t active_connections = 0;
    size_t open_cursors = 0;
  };
  Stats stats() const;

  /// The JSON health document the STATS command returns (server counters
  /// + MiddlewareHealth). Exposed for benches running in-process.
  std::string StatsJson() const;

  AdmissionController& admission() { return admission_; }

 private:
  struct Request {
    Frame frame;
    /// Synthetic protocol-error request injected by the IO thread
    /// (framing-level failure): the worker replies `err` and closes.
    bool synthetic = false;
    WireError err = WireError::kMalformed;
    std::string err_msg;
  };

  struct Connection {
    int fd = -1;
    std::string inbuf;            ///< raw bytes; IO thread only
    std::deque<Request> inbox;    ///< parsed requests; guarded by server mu_
    bool busy = false;            ///< queued for or held by a worker
    bool dead = false;            ///< tear down at the next safe point
    bool stop_reading = false;    ///< framing error: ignore further input
    bool authed = false;
    AuthedIdentity ident;
    std::unique_ptr<SieveSession> session;
    std::unordered_map<uint32_t, PreparedQuery> stmts;
    uint32_t next_stmt_id = 1;
    std::unique_ptr<ResultCursor> cursor;  ///< at most one (see protocol rule)
    uint32_t cursor_id = 0;
    uint32_t next_cursor_id = 1;
    bool admitted = false;        ///< owes admission_.Release on finish
  };

  void IoLoop();
  void WorkerLoop(int worker_index);

  /// Reads whatever is available on `conn`, extracts complete frames into
  /// its inbox and schedules it. Returns false when the connection hit
  /// EOF / a fatal error and should be considered dead. IO thread only.
  bool DrainSocket(Connection* conn);

  /// Queues `conn` on the lane its head request belongs to (mu_ held).
  void ScheduleLocked(Connection* conn);
  static bool IsCursorLane(const Request& r);

  /// Processes one request outside any server lock; writes replies.
  void ProcessRequest(Connection* conn, Request req);
  void HandleHello(Connection* conn, WireReader* rd);
  void HandlePrepare(Connection* conn, WireReader* rd);
  void HandleExecute(Connection* conn, WireReader* rd);
  void HandleFetch(Connection* conn, WireReader* rd);
  void HandleCloseCursor(Connection* conn, WireReader* rd);
  void HandleCloseStmt(Connection* conn, WireReader* rd);
  void HandleStats(Connection* conn);

  /// Serves up to `want` rows from the open cursor as a kRows reply,
  /// closing the cursor (and releasing admission) once exhausted.
  void ReplyCursorChunk(Connection* conn, uint32_t want);
  /// Closes the connection's cursor and releases its admission slot.
  void FinishCursor(Connection* conn, bool abandon);

  void SendError(Connection* conn, WireError code, const std::string& msg);
  void SendFrame(Connection* conn, MsgType type, const std::string& payload);
  /// Marks `conn` dead and shuts its socket down so the IO thread reaps it.
  void KillConnection(Connection* conn);

  /// Destroys a connection object (cursor, statements, session, fd,
  /// admission slot). Caller must have removed it from conns_ already.
  void DestroyConnection(std::unique_ptr<Connection> conn);

  void WakeIo();

  SieveMiddleware* mw_;
  AuthRegistry* auth_;
  ServerOptions options_;
  AdmissionController admission_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  bool stopping_ = false;        ///< hard stop: threads exit (phase 2)
  bool stop_requested_ = false;  ///< Stop() entered (idempotency latch)
  bool started_ = false;
  /// Drain phase flags, readable without mu_ from the IO and worker
  /// threads' hot paths. draining_: refuse work-starting requests and new
  /// connections; hard_stop_: remaining cursors count as aborted.
  std::atomic<bool> draining_{false};
  std::atomic<bool> hard_stop_{false};
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;  // by fd
  std::deque<Connection*> cursor_lane_;
  std::deque<Connection*> general_lane_;
  int workers_exited_ = 0;

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> auth_failures_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> write_timeouts_{0};
  std::atomic<uint64_t> drain_rejected_{0};
  std::atomic<uint64_t> cursors_drained_{0};
  std::atomic<uint64_t> cursors_aborted_{0};
  /// Connections holding a cursor. Workers store and release
  /// Connection::cursor without mu_, so stats() and Stop() read this count
  /// instead of the connections' cursor fields.
  std::atomic<size_t> open_cursors_{0};
};

}  // namespace sieve::server

#endif  // SIEVE_SERVER_SERVER_H_
