#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace sieve::server {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// kRows payload: cursor_id, done, schema, row block.
std::string EncodeRowsPayload(uint32_t cursor_id, bool done,
                              const Schema& schema,
                              const std::vector<Row>& rows) {
  WireWriter w;
  w.PutU32(cursor_id);
  w.PutU8(done ? 1 : 0);
  const auto& cols = schema.columns();
  w.PutU16(static_cast<uint16_t>(cols.size()));
  for (const ColumnDef& c : cols) {
    w.PutString(c.name);
    w.PutU8(static_cast<uint8_t>(c.type));
  }
  w.PutU32(static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) {
    for (const Value& v : row) w.PutValue(v);
  }
  return w.TakePayload();
}

void AppendJsonKV(std::string* out, const char* key, uint64_t v, bool last) {
  out->append("\"").append(key).append("\":");
  out->append(std::to_string(v));
  if (!last) out->push_back(',');
}

/// Wire error class for a failed execution: a deadline / timeout overrun
/// is a clean, retryable DEADLINE_EXCEEDED (the connection and its
/// admission slot stay usable); everything else is EXEC_FAILED.
WireError ExecWireError(const Status& s) {
  return s.code() == StatusCode::kTimeout ? WireError::kDeadlineExceeded
                                          : WireError::kExecFailed;
}

}  // namespace

SieveServer::SieveServer(SieveMiddleware* middleware, AuthRegistry* auth,
                         ServerOptions options)
    : mw_(middleware),
      auth_(auth),
      options_(std::move(options)),
      admission_(options_.admission_clock) {
  options_.num_workers = std::max(2, options_.num_workers);
  if (options_.max_frame_bytes == 0) options_.max_frame_bytes = kMaxFrameBytes;
  if (options_.max_fetch_rows == 0) options_.max_fetch_rows = 8192;
  if (options_.max_queued_frames == 0) options_.max_queued_frames = 1;
}

SieveServer::~SieveServer() { Stop(); }

Status SieveServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::ExecutionError("server already started");
  }
  // Operator-facing chaos hook: a malformed SIEVE_FAULT_SPEC fails Start
  // loudly instead of silently running without the requested faults.
  SIEVE_RETURN_IF_ERROR(FaultInjector::Instance().LoadFromEnv());

  // Non-blocking listener: the accept loop drains until EAGAIN.
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::ExecutionError(
        StrFormat("socket failed: %s", strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrFormat("invalid listen address '%s' (IPv4 only)",
                  options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Status::ExecutionError(
        StrFormat("bind to %s:%u failed: %s", options_.host.c_str(),
                  static_cast<unsigned>(options_.port), strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) != 0) {
    Status s = Status::ExecutionError(
        StrFormat("listen failed: %s", strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    Status s = Status::ExecutionError(
        StrFormat("pipe2 failed: %s", strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  io_thread_ = std::thread([this] { IoLoop(); });
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return Status::OK();
}

void SieveServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_requested_) return;
    stop_requested_ = true;
  }

  // Phase 1 — drain. New connections and work-starting requests (HELLO /
  // PREPARE / EXECUTE) are refused with SERVER_SHUTDOWN; requests already
  // queued or running finish, and open cursors keep serving the cursor
  // lane. Wait (bounded by the grace period) until no connection holds
  // work: lanes empty, nobody busy, inboxes empty, cursors closed.
  draining_.store(true, std::memory_order_release);
  WakeIo();
  const double grace = options_.drain_grace_seconds;
  const double grace_deadline = grace > 0.0 ? NowSeconds() + grace : 0.0;
  while (grace > 0.0 && NowSeconds() < grace_deadline) {
    bool idle = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      idle = cursor_lane_.empty() && general_lane_.empty() &&
             open_cursors_.load() == 0;
      if (idle) {
        for (auto& [fd, c] : conns_) {
          if (c->busy || !c->inbox.empty()) {
            idle = false;
            break;
          }
        }
      }
    }
    if (idle) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Phase 2 — hard stop: whatever survived the grace period is torn down.
  hard_stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  WakeIo();
  if (io_thread_.joinable()) io_thread_.join();

  // Workers exit as soon as they finish their current request — except a
  // worker blocked inside a gate-exclusive acquisition (cache-miss
  // PREPARE / stale refresh) waiting on cursor pins that nobody will
  // drain anymore. Assist: abandon every idle connection's cursor (the
  // blocked worker's own connection cannot hold one — protocol rule), so
  // the writer unblocks and the worker exits.
  for (;;) {
    std::vector<std::unique_ptr<ResultCursor>> orphans;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (workers_exited_ == static_cast<int>(workers_.size())) break;
      for (Connection* c : cursor_lane_) c->busy = false;
      for (Connection* c : general_lane_) c->busy = false;
      cursor_lane_.clear();
      general_lane_.clear();
      for (auto& [fd, c] : conns_) {
        if (c->busy || !c->cursor) continue;
        orphans.push_back(std::move(c->cursor));
        c->cursor_id = 0;
        open_cursors_.fetch_sub(1);
        cursors_aborted_.fetch_add(1, std::memory_order_relaxed);
        if (c->admitted) {
          admission_.Release(c->ident.md.querier);
          c->admitted = false;
        }
      }
    }
    work_cv_.notify_all();
    for (auto& cur : orphans) cur->Close();
    orphans.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }

  // Single-threaded from here: tear down every surviving connection
  // (closing cursors releases their middleware pins).
  std::vector<std::unique_ptr<Connection>> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, c] : conns_) doomed.push_back(std::move(c));
    conns_.clear();
    cursor_lane_.clear();
    general_lane_.clear();
  }
  for (auto& c : doomed) DestroyConnection(std::move(c));

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  // Every cursor is closed now, so the exclusive state gate is free:
  // materialize the enforcement records of the final requests instead of
  // dropping them with the server (failures stay counted in
  // MiddlewareHealth::audit_unflushed).
  [[maybe_unused]] Status flushed = mw_->FlushAuditLog();
}

SieveServer::Stats SieveServer::stats() const {
  Stats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_rejected = rejected_.load(std::memory_order_relaxed);
  s.auth_failures = auth_failures_.load(std::memory_order_relaxed);
  s.frames_received = frames_.load(std::memory_order_relaxed);
  s.queries_executed = queries_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  AdmissionController::Stats a = admission_.stats();
  s.rate_limited = a.rate_limited;
  s.in_flight_rejected = a.in_flight_rejected;
  s.write_timeouts = write_timeouts_.load(std::memory_order_relaxed);
  s.drain_rejected = drain_rejected_.load(std::memory_order_relaxed);
  s.cursors_drained = cursors_drained_.load(std::memory_order_relaxed);
  s.cursors_aborted = cursors_aborted_.load(std::memory_order_relaxed);
  s.open_cursors = open_cursors_.load();
  std::lock_guard<std::mutex> lock(mu_);
  s.active_connections = conns_.size();
  return s;
}

std::string SieveServer::StatsJson() const {
  Stats s = stats();
  MiddlewareHealth h = mw_->Health();
  std::string j = "{\"server\":{";
  AppendJsonKV(&j, "active_connections", s.active_connections, false);
  AppendJsonKV(&j, "open_cursors", s.open_cursors, false);
  AppendJsonKV(&j, "connections_accepted", s.connections_accepted, false);
  AppendJsonKV(&j, "connections_rejected", s.connections_rejected, false);
  AppendJsonKV(&j, "auth_failures", s.auth_failures, false);
  AppendJsonKV(&j, "frames_received", s.frames_received, false);
  AppendJsonKV(&j, "queries_executed", s.queries_executed, false);
  AppendJsonKV(&j, "protocol_errors", s.protocol_errors, false);
  AppendJsonKV(&j, "rate_limited", s.rate_limited, false);
  AppendJsonKV(&j, "in_flight_rejected", s.in_flight_rejected, false);
  AppendJsonKV(&j, "write_timeouts", s.write_timeouts, false);
  AppendJsonKV(&j, "drain_rejected", s.drain_rejected, false);
  AppendJsonKV(&j, "cursors_drained", s.cursors_drained, false);
  AppendJsonKV(&j, "cursors_aborted", s.cursors_aborted, true);
  j += "},\"cache\":{";
  AppendJsonKV(&j, "hits", h.cache.hits, false);
  AppendJsonKV(&j, "misses", h.cache.misses, false);
  AppendJsonKV(&j, "invalidations", h.cache.invalidations, false);
  AppendJsonKV(&j, "evictions", h.cache.evictions, true);
  j += "},\"audit\":{";
  AppendJsonKV(&j, "pending", h.audit_pending, false);
  AppendJsonKV(&j, "dropped", h.audit_dropped, false);
  AppendJsonKV(&j, "unflushed", h.audit_unflushed, false);
  AppendJsonKV(&j, "total_appended", static_cast<uint64_t>(h.audit_total),
               false);
  AppendJsonKV(&j, "truncated", h.audit_truncated, true);
  j += "},";
  AppendJsonKV(&j, "policy_epoch", h.policy_epoch, true);
  j += "}";
  return j;
}

// ---------------------------------------------------------------------------
// IO thread
// ---------------------------------------------------------------------------

void SieveServer::WakeIo() {
  char b = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

void SieveServer::IoLoop() {
  std::vector<pollfd> pfds;
  std::vector<Connection*> pconns;  // parallel to pfds[2..]
  for (;;) {
    pfds.clear();
    pconns.clear();
    std::vector<std::unique_ptr<Connection>> reaped;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      // Reap connections nobody holds anymore.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->second->dead && !it->second->busy) {
          reaped.push_back(std::move(it->second));
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      pfds.push_back({wake_pipe_[0], POLLIN, 0});
      // Always poll the listener: over-capacity connects are accepted and
      // immediately rejected with kTooManyConnections rather than left to
      // rot in the backlog.
      pfds.push_back({listen_fd_, POLLIN, 0});
      for (auto& [fd, c] : conns_) {
        if (c->dead) continue;  // busy worker still holds it; skip polling
        short events = 0;
        if (!c->stop_reading && c->inbox.size() < options_.max_queued_frames) {
          events = POLLIN;
        }
        pfds.push_back({fd, events, 0});
        pconns.push_back(c.get());
      }
    }
    for (auto& c : reaped) DestroyConnection(std::move(c));
    reaped.clear();

    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return;  // unrecoverable poll failure
    }

    if (pfds[0].revents != 0) {
      char buf[256];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }

    for (size_t i = 2; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Connection* conn = pconns[i - 2];
      if (!DrainSocket(conn)) {
        std::lock_guard<std::mutex> lock(mu_);
        conn->dead = true;  // reaped at the top of the next iteration
      }
    }

    // Accept last so a just-closed fd can't be confused with a reused one
    // within the same iteration.
    if (pfds[1].revents != 0) {
      for (;;) {
        int fd = ::accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EINTR) continue;
          break;  // EAGAIN or transient accept failure
        }
        if (SIEVE_FAULT_POINT("server.accept.fail")) {
          // Simulated transient accept-path failure (fd exhaustion,
          // aborted handshake): the connection is dropped on the floor.
          rejected_.fetch_add(1, std::memory_order_relaxed);
          ::close(fd);
          continue;
        }
        WireError refuse = WireError::kMalformed;
        const char* refuse_msg = nullptr;
        if (draining_.load(std::memory_order_acquire)) {
          refuse = WireError::kServerShutdown;
          refuse_msg = "server is shutting down";
        } else {
          std::lock_guard<std::mutex> lock(mu_);
          if (conns_.size() >= options_.max_connections) {
            refuse = WireError::kTooManyConnections;
            refuse_msg = "server at connection capacity";
          }
        }
        if (refuse_msg != nullptr) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          WireWriter w;
          w.PutU16(static_cast<uint16_t>(refuse));
          w.PutString(refuse_msg);
          std::string frame = EncodeFrame(MsgType::kError, w.payload());
          // Best-effort courtesy reply; the socket buffer is empty.
          [[maybe_unused]] ssize_t n =
              ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
          ::close(fd);
          continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (options_.so_sndbuf > 0) {
          ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                       sizeof(options_.so_sndbuf));
        }
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        accepted_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu_);
        conns_.emplace(fd, std::move(conn));
      }
    }
  }
}

bool SieveServer::DrainSocket(Connection* conn) {
  // Read whatever is buffered (bounded per pass so one firehose client
  // cannot starve the poll loop).
  constexpr size_t kMaxBytesPerPass = 256 * 1024;
  char buf[16 * 1024];
  size_t taken = 0;
  bool eof = false;
  while (taken < kMaxBytesPerPass) {
    ssize_t n;
    if (SIEVE_FAULT_POINT("server.io.disconnect")) {
      n = 0;  // peer vanished mid-frame
    } else if (SIEVE_FAULT_POINT("server.io.read_eintr")) {
      n = -1;
      errno = EINTR;  // interrupted syscall; the retry path must absorb it
    } else {
      // A short read clamps the request to one byte: frames arrive one
      // byte at a time and must reassemble across passes.
      size_t want =
          SIEVE_FAULT_POINT("server.io.short_read") ? 1 : sizeof(buf);
      n = ::recv(conn->fd, buf, want, 0);
    }
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      taken += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // hard socket error: same teardown as EOF
    break;
  }

  std::vector<Request> parsed;
  if (!conn->stop_reading) {
    for (;;) {
      Frame f;
      FrameParse p = ExtractFrame(&conn->inbuf, options_.max_frame_bytes, &f);
      if (p == FrameParse::kFrame) {
        frames_.fetch_add(1, std::memory_order_relaxed);
        Request r;
        r.frame = std::move(f);
        parsed.push_back(std::move(r));
        continue;
      }
      if (p == FrameParse::kNeedMore) break;
      // Framing-level failure: the byte stream is unrecoverable. Queue a
      // synthetic error so a worker replies in-order, and stop reading.
      Request r;
      r.synthetic = true;
      r.err = p == FrameParse::kTooLarge ? WireError::kFrameTooLarge
                                         : WireError::kMalformed;
      r.err_msg = p == FrameParse::kTooLarge
                      ? StrFormat("frame exceeds limit of %u bytes",
                                  options_.max_frame_bytes)
                      : "zero-length frame";
      parsed.push_back(std::move(r));
      conn->stop_reading = true;
      ::shutdown(conn->fd, SHUT_RD);
      break;
    }
  }

  if (!parsed.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Request& r : parsed) conn->inbox.push_back(std::move(r));
    if (!conn->busy && !conn->dead) ScheduleLocked(conn);
  }
  return !eof;
}

// ---------------------------------------------------------------------------
// Worker scheduling
// ---------------------------------------------------------------------------

bool SieveServer::IsCursorLane(const Request& r) {
  if (r.synthetic) return true;  // error reply + close: never touches the gate
  switch (r.frame.type) {
    case MsgType::kFetch:
    case MsgType::kCloseCursor:
    case MsgType::kCloseStmt:
    case MsgType::kStats:
      return true;
    default:
      return false;
  }
}

void SieveServer::ScheduleLocked(Connection* conn) {
  if (conn->busy || conn->inbox.empty()) return;
  conn->busy = true;
  if (IsCursorLane(conn->inbox.front())) {
    cursor_lane_.push_back(conn);
  } else {
    general_lane_.push_back(conn);
  }
  // notify_all: worker 0 refuses general work, so notify_one could wake
  // the one worker that cannot take the queued request.
  work_cv_.notify_all();
}

void SieveServer::WorkerLoop(int worker_index) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] {
      return stopping_ || !cursor_lane_.empty() ||
             (worker_index != 0 && !general_lane_.empty());
    });
    if (stopping_) break;
    Connection* conn = nullptr;
    if (!cursor_lane_.empty()) {
      conn = cursor_lane_.front();
      cursor_lane_.pop_front();
    } else if (worker_index != 0 && !general_lane_.empty()) {
      conn = general_lane_.front();
      general_lane_.pop_front();
    }
    if (conn == nullptr) continue;
    if (conn->dead || conn->inbox.empty()) {
      conn->busy = false;
      lk.unlock();
      WakeIo();  // let the IO thread reap it
      lk.lock();
      continue;
    }
    Request req = std::move(conn->inbox.front());
    conn->inbox.pop_front();
    lk.unlock();
    if (SIEVE_FAULT_POINT("server.worker.stall")) {
      // Scheduling jitter: shakes out request-ordering assumptions.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ProcessRequest(conn, std::move(req));
    lk.lock();
    conn->busy = false;
    if (!conn->dead && !conn->inbox.empty()) ScheduleLocked(conn);
    lk.unlock();
    WakeIo();  // re-arm reading (inbox drained below cap) or reap
    lk.lock();
  }
  ++workers_exited_;
}

// ---------------------------------------------------------------------------
// Request processing (no server lock held)
// ---------------------------------------------------------------------------

void SieveServer::ProcessRequest(Connection* conn, Request req) {
  if (req.synthetic) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, req.err, req.err_msg);
    KillConnection(conn);
    return;
  }
  const MsgType type = req.frame.type;
  // Drain gate: once Stop() is underway, no new work starts — but the
  // cursor lane (FETCH / CLOSE_* / STATS) keeps serving so open cursors
  // can finish within the grace period.
  if (draining_.load(std::memory_order_acquire) &&
      (type == MsgType::kHello || type == MsgType::kPrepare ||
       type == MsgType::kExecute)) {
    drain_rejected_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kServerShutdown,
              "server is shutting down; no new work accepted");
    return;
  }
  if (!conn->authed && type != MsgType::kHello) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kAuthRequired,
              "authenticate with HELLO first");
    KillConnection(conn);
    return;
  }
  // Protocol rule: an open cursor admits only cursor-lane commands, so a
  // connection can never wedge itself (or a worker) behind its own pin.
  if (conn->cursor && type != MsgType::kFetch &&
      type != MsgType::kCloseCursor && type != MsgType::kCloseStmt &&
      type != MsgType::kStats) {
    SendError(conn, WireError::kCursorOpen,
              "drain or close the open cursor first");
    return;
  }
  WireReader rd(req.frame.payload);
  switch (type) {
    case MsgType::kHello:
      HandleHello(conn, &rd);
      return;
    case MsgType::kPrepare:
      HandlePrepare(conn, &rd);
      return;
    case MsgType::kExecute:
      HandleExecute(conn, &rd);
      return;
    case MsgType::kFetch:
      HandleFetch(conn, &rd);
      return;
    case MsgType::kCloseCursor:
      HandleCloseCursor(conn, &rd);
      return;
    case MsgType::kCloseStmt:
      HandleCloseStmt(conn, &rd);
      return;
    case MsgType::kStats:
      HandleStats(conn);
      return;
    default:
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, WireError::kMalformed,
                StrFormat("unknown message type %u",
                          static_cast<unsigned>(type)));
      return;
  }
}

void SieveServer::HandleHello(Connection* conn, WireReader* rd) {
  if (conn->authed) {
    SendError(conn, WireError::kMalformed, "already authenticated");
    return;
  }
  auto version = rd->U8();
  auto token = rd->String();
  if (!version.ok() || !token.ok() || !rd->AtEnd()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kMalformed, "bad HELLO payload");
    KillConnection(conn);
    return;
  }
  if (*version != kProtocolVersion) {
    SendError(conn, WireError::kMalformed,
              StrFormat("unsupported protocol version %u",
                        static_cast<unsigned>(*version)));
    KillConnection(conn);
    return;
  }
  Result<AuthedIdentity> ident = auth_->Authenticate(*token);
  if (!ident.ok()) {
    auth_failures_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kAuthFailed, ident.status().message());
    KillConnection(conn);
    return;
  }
  if (options_.require_known_subject && !mw_->IsKnownSubject(ident->md)) {
    // Same deliberately unspecific message as an unknown token.
    auth_failures_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kAuthFailed, "authentication failed");
    KillConnection(conn);
    return;
  }
  conn->authed = true;
  conn->ident = std::move(*ident);
  if (conn->ident.limits.unlimited()) {
    conn->ident.limits = options_.default_limits;
  }
  conn->session = std::make_unique<SieveSession>(mw_, conn->ident.md);
  WireWriter w;
  w.PutString(conn->ident.md.querier);
  w.PutString(conn->ident.md.purpose);
  SendFrame(conn, MsgType::kHelloOk, w.payload());
}

void SieveServer::HandlePrepare(Connection* conn, WireReader* rd) {
  auto sql = rd->String();
  if (!sql.ok() || !rd->AtEnd()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kMalformed, "bad PREPARE payload");
    return;
  }
  if (conn->stmts.size() >= options_.max_prepared_per_conn) {
    SendError(conn, WireError::kTooManyStatements,
              StrFormat("connection holds %zu prepared statements (limit)",
                        conn->stmts.size()));
    return;
  }
  Result<PreparedQuery> pq = conn->session->Prepare(*sql);
  if (!pq.ok()) {
    SendError(conn, WireError::kPrepareFailed, pq.status().message());
    return;
  }
  uint32_t id = conn->next_stmt_id++;
  uint16_t nparams = static_cast<uint16_t>(pq->parameter_count());
  conn->stmts.emplace(id, std::move(*pq));
  WireWriter w;
  w.PutU32(id);
  w.PutU16(nparams);
  SendFrame(conn, MsgType::kPrepared, w.payload());
}

void SieveServer::HandleExecute(Connection* conn, WireReader* rd) {
  auto stmt_id = rd->U32();
  auto chunk_rows = rd->U32();
  auto nparams = rd->U16();
  if (!stmt_id.ok() || !chunk_rows.ok() || !nparams.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kMalformed, "bad EXECUTE payload");
    return;
  }
  std::vector<Value> params;
  params.reserve(*nparams);
  for (uint16_t i = 0; i < *nparams; ++i) {
    Result<Value> v = rd->ReadValue();
    if (!v.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, WireError::kMalformed, v.status().message());
      return;
    }
    params.push_back(std::move(*v));
  }
  // Optional trailing per-request deadline (0 = none). Clients predating
  // the field simply omit it.
  uint32_t deadline_ms = 0;
  if (!rd->AtEnd()) {
    auto dl = rd->U32();
    if (!dl.ok() || !rd->AtEnd()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, WireError::kMalformed,
                "trailing bytes after parameters");
      return;
    }
    deadline_ms = *dl;
  }
  auto it = conn->stmts.find(*stmt_id);
  if (it == conn->stmts.end()) {
    SendError(conn, WireError::kBadStatement,
              StrFormat("unknown statement id %u", *stmt_id));
    return;
  }

  switch (admission_.TryAdmit(conn->ident.md.querier, conn->ident.limits)) {
    case AdmissionController::Verdict::kRateLimited:
      SendError(conn, WireError::kRateLimited,
                "per-querier rate limit exceeded; retry later");
      return;
    case AdmissionController::Verdict::kTooManyInFlight:
      SendError(conn, WireError::kTooManyInFlight,
                "per-querier in-flight limit reached");
      return;
    case AdmissionController::Verdict::kAdmit:
      break;
  }
  conn->admitted = true;

  const double deadline_seconds = deadline_ms / 1000.0;
  if (*chunk_rows == 0) {
    // Materialized execution: admission covers just the execution.
    Result<ResultSet> rs = it->second.Execute(params, deadline_seconds);
    admission_.Release(conn->ident.md.querier);
    conn->admitted = false;
    if (!rs.ok()) {
      SendError(conn, ExecWireError(rs.status()), rs.status().message());
      return;
    }
    std::string payload = EncodeRowsPayload(0, true, rs->schema, rs->rows);
    if (payload.size() + 1 > options_.max_frame_bytes) {
      SendError(conn, WireError::kExecFailed,
                "result exceeds the frame limit; execute with chunk_rows > 0");
      return;
    }
    queries_.fetch_add(1, std::memory_order_relaxed);
    SendFrame(conn, MsgType::kRows, payload);
    return;
  }

  // Cursor execution: the admission slot is held until the cursor is
  // drained or closed (it pins middleware state and per-connection
  // buffering the whole time).
  Result<ResultCursor> cur = it->second.OpenCursor(params, deadline_seconds);
  if (!cur.ok()) {
    admission_.Release(conn->ident.md.querier);
    conn->admitted = false;
    SendError(conn, ExecWireError(cur.status()), cur.status().message());
    return;
  }
  conn->cursor = std::make_unique<ResultCursor>(std::move(*cur));
  open_cursors_.fetch_add(1);
  conn->cursor_id = conn->next_cursor_id++;
  queries_.fetch_add(1, std::memory_order_relaxed);
  ReplyCursorChunk(conn, *chunk_rows);
}

void SieveServer::HandleFetch(Connection* conn, WireReader* rd) {
  auto cursor_id = rd->U32();
  auto max_rows = rd->U32();
  if (!cursor_id.ok() || !max_rows.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kMalformed, "bad FETCH payload");
    return;
  }
  // Optional trailing per-chunk deadline (0 = none).
  uint32_t deadline_ms = 0;
  if (!rd->AtEnd()) {
    auto dl = rd->U32();
    if (!dl.ok() || !rd->AtEnd()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, WireError::kMalformed, "bad FETCH payload");
      return;
    }
    deadline_ms = *dl;
  }
  if (!conn->cursor || *cursor_id != conn->cursor_id) {
    SendError(conn, WireError::kBadCursor,
              StrFormat("no open cursor with id %u", *cursor_id));
    return;
  }
  if (deadline_ms > 0) {
    conn->cursor->TightenDeadline(deadline_ms / 1000.0);
  }
  ReplyCursorChunk(conn, *max_rows);
}

void SieveServer::ReplyCursorChunk(Connection* conn, uint32_t want) {
  want = std::min(std::max(want, 1u), options_.max_fetch_rows);
  std::vector<Row> rows;
  while (rows.size() < want && !conn->cursor->exhausted()) {
    Result<bool> more =
        conn->cursor->Next(&rows, want - static_cast<uint32_t>(rows.size()));
    if (!more.ok()) {
      WireError code = ExecWireError(more.status());
      std::string msg(more.status().message());
      FinishCursor(conn, /*abandon=*/true);
      SendError(conn, code, msg);
      return;
    }
    if (!*more) break;
  }
  bool done = conn->cursor->exhausted();
  std::string payload = EncodeRowsPayload(conn->cursor_id, done,
                                          conn->cursor->schema(), rows);
  if (payload.size() + 1 > options_.max_frame_bytes) {
    // The pulled rows cannot be pushed back; the stream is unrecoverable.
    FinishCursor(conn, /*abandon=*/true);
    SendError(conn, WireError::kExecFailed,
              "chunk exceeds the frame limit; fetch fewer rows at a time");
    return;
  }
  if (done) FinishCursor(conn, /*abandon=*/false);
  SendFrame(conn, MsgType::kRows, payload);
}

void SieveServer::FinishCursor(Connection* conn, bool abandon) {
  if (conn->cursor) {
    // Uncount the cursor before closing it: closing releases its epoch
    // pin, and a writer that pin held may read STATS as soon as it runs.
    open_cursors_.fetch_sub(1);
    if (abandon) conn->cursor->Close();
    conn->cursor.reset();
    // Drain bookkeeping: cursors that close while Stop() waits count as
    // drained; those still alive at the hard stop count as aborted.
    if (hard_stop_.load(std::memory_order_acquire)) {
      cursors_aborted_.fetch_add(1, std::memory_order_relaxed);
    } else if (draining_.load(std::memory_order_acquire)) {
      cursors_drained_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  conn->cursor_id = 0;
  if (conn->admitted) {
    admission_.Release(conn->ident.md.querier);
    conn->admitted = false;
  }
}

void SieveServer::HandleCloseCursor(Connection* conn, WireReader* rd) {
  auto cursor_id = rd->U32();
  if (!cursor_id.ok() || !rd->AtEnd()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kMalformed, "bad CLOSE_CURSOR payload");
    return;
  }
  if (!conn->cursor || *cursor_id != conn->cursor_id) {
    SendError(conn, WireError::kBadCursor,
              StrFormat("no open cursor with id %u", *cursor_id));
    return;
  }
  FinishCursor(conn, /*abandon=*/true);
  SendFrame(conn, MsgType::kOk, {});
}

void SieveServer::HandleCloseStmt(Connection* conn, WireReader* rd) {
  auto stmt_id = rd->U32();
  if (!stmt_id.ok() || !rd->AtEnd()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kMalformed, "bad CLOSE_STMT payload");
    return;
  }
  if (conn->stmts.erase(*stmt_id) == 0) {
    SendError(conn, WireError::kBadStatement,
              StrFormat("unknown statement id %u", *stmt_id));
    return;
  }
  SendFrame(conn, MsgType::kOk, {});
}

void SieveServer::HandleStats(Connection* conn) {
  WireWriter w;
  w.PutString(StatsJson());
  SendFrame(conn, MsgType::kStatsOk, w.payload());
}

// ---------------------------------------------------------------------------
// Replies and teardown
// ---------------------------------------------------------------------------

void SieveServer::SendError(Connection* conn, WireError code,
                            const std::string& msg) {
  WireWriter w;
  w.PutU16(static_cast<uint16_t>(code));
  w.PutString(msg);
  SendFrame(conn, MsgType::kError, w.payload());
}

void SieveServer::SendFrame(Connection* conn, MsgType type,
                            const std::string& payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn->dead) return;
  }
  std::string frame = EncodeFrame(type, payload);
  const double deadline =
      options_.write_timeout_seconds > 0
          ? NowSeconds() + options_.write_timeout_seconds
          : 0.0;
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n;
    if (SIEVE_FAULT_POINT("server.io.write_error")) {
      n = -1;
      errno = EPIPE;  // peer reset mid-reply
    } else {
      // A short write clamps to one byte: the partial-write loop must
      // finish the frame across many sends.
      size_t len = SIEVE_FAULT_POINT("server.io.write_short")
                       ? 1
                       : frame.size() - off;
      n = ::send(conn->fd, frame.data() + off, len, MSG_NOSIGNAL);
    }
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Slow reader: wait for the socket to drain, bounded by the write
      // timeout (a stuck reader must not pin a worker forever). Only this
      // connection is torn down — its cursor closes and its admission
      // slot frees immediately, rather than waiting for the reaper.
      if (deadline > 0.0 && NowSeconds() >= deadline) {
        write_timeouts_.fetch_add(1, std::memory_order_relaxed);
        FinishCursor(conn, /*abandon=*/true);
        KillConnection(conn);
        return;
      }
      pollfd p{conn->fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
      continue;
    }
    FinishCursor(conn, /*abandon=*/true);  // EPIPE / ECONNRESET / ...
    KillConnection(conn);
    return;
  }
}

void SieveServer::KillConnection(Connection* conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn->dead) return;
    conn->dead = true;
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  WakeIo();
}

void SieveServer::DestroyConnection(std::unique_ptr<Connection> conn) {
  FinishCursor(conn.get(), /*abandon=*/true);  // releases the epoch pin
  conn->stmts.clear();
  conn->session.reset();
  if (conn->fd >= 0) ::close(conn->fd);
}

}  // namespace sieve::server
