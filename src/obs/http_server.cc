#include "obs/http_server.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <system_error>

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#define SURVEYOR_HAVE_EPOLL 1
#endif

#include "util/logging.h"

namespace surveyor {
namespace obs {

namespace {

using Clock = std::chrono::steady_clock;

std::string_view ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "200 OK";
    case 400:
      return "400 Bad Request";
    case 404:
      return "404 Not Found";
    case 405:
      return "405 Method Not Allowed";
    case 408:
      return "408 Request Timeout";
    case 409:
      return "409 Conflict";
    case 413:
      return "413 Payload Too Large";
    case 429:
      return "429 Too Many Requests";
    case 431:
      return "431 Request Header Fields Too Large";
    case 501:
      return "501 Not Implemented";
    case 503:
      return "503 Service Unavailable";
    default:
      return "500 Internal Server Error";
  }
}

/// Appends a handler response's wire bytes to `out` (a connection's
/// reused output buffer). HEAD keeps the Content-Length of the body it
/// suppresses (RFC 9110 §9.3.2).
void AppendResponse(const HttpResponse& response, bool keep_alive, bool head,
                    std::string* out) {
  char length[24];
  const auto length_end =
      std::to_chars(length, length + sizeof(length), response.body.size())
          .ptr;
  out->reserve(out->size() + response.body.size() + 160);
  out->append("HTTP/1.1 ");
  out->append(ReasonPhrase(response.status));
  out->append("\r\nContent-Type: ");
  out->append(response.content_type);
  out->append("\r\nContent-Length: ");
  out->append(length, static_cast<size_t>(length_end - length));
  for (const auto& [name, value] : response.headers) {
    out->append("\r\n");
    out->append(name);
    out->append(": ");
    out->append(value);
  }
  out->append(keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                         : "\r\nConnection: close\r\n\r\n");
  if (!head) out->append(response.body);
}

/// Wire bytes for a transport-level plain-text response (429 shed, 431
/// oversized head, 503 at capacity, ...), built without touching the
/// application handler.
std::string SimpleResponseBytes(int status, std::string_view body,
                                bool keep_alive,
                                std::string_view extra_header = {}) {
  HttpResponse response;
  response.status = status;
  response.body = std::string(body);
  if (!extra_header.empty()) {
    const size_t colon = extra_header.find(':');
    response.headers.emplace_back(
        std::string(extra_header.substr(0, colon)),
        std::string(extra_header.substr(colon + 2)));
  }
  std::string out;
  AppendResponse(response, keep_alive, /*head=*/false, &out);
  return out;
}

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiLower(a[i]) != AsciiLower(b[i])) return false;
  }
  return true;
}

bool ContainsToken(std::string_view header_value, std::string_view token) {
  // Connection/Expect values are comma-separated token lists; a substring
  // scan over lowercase copies is enough for the two tokens we care about.
  while (!header_value.empty()) {
    const size_t comma = header_value.find(',');
    std::string_view item = header_value.substr(0, comma);
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t')) {
      item.remove_prefix(1);
    }
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t')) {
      item.remove_suffix(1);
    }
    if (EqualsIgnoreCase(item, token)) return true;
    header_value = comma == std::string_view::npos
                       ? std::string_view()
                       : header_value.substr(comma + 1);
  }
  return false;
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

enum class ParseOutcome { kNeedMore, kRequest, kError };

/// A parsed request; the views point into the buffer it was parsed from.
struct ParsedRequest {
  std::string_view method;
  std::string_view target;
  std::string_view body;
  bool keep_alive = true;
  bool expect_continue = false;
  /// Head parsed fine, body still streaming in — drives 100-continue and
  /// lets the idle sweep distinguish "mid-request" from "between
  /// requests".
  bool head_complete = false;
  /// Bytes of the input buffer this request consumed (kRequest only).
  size_t consumed = 0;
  int error_status = 0;
  std::string_view error_message;
};

ParseOutcome ParseError(ParsedRequest* out, int status,
                        std::string_view message) {
  out->error_status = status;
  out->error_message = message;
  return ParseOutcome::kError;
}

/// Incremental HTTP/1.x request parser over the connection's input
/// buffer. Never blocks: either a full request is buffered (kRequest,
/// with `consumed` to erase), more bytes are needed (kNeedMore), or the
/// bytes can never become a request (kError with a status to send
/// before closing).
ParseOutcome ParseOne(std::string_view in, size_t max_header_bytes,
                      size_t max_body_bytes, ParsedRequest* out) {
  // Find the end of the head; tolerate bare-LF line endings. A bare-LF
  // terminator ends the head only if it starts before the CRLF one, so
  // only the bytes before that are searched for it, never the body.
  size_t head_end = std::string_view::npos;
  size_t body_start = 0;
  const size_t crlf = in.find("\r\n\r\n");
  const size_t lf = in.substr(0, crlf).find("\n\n");
  if (crlf != std::string_view::npos &&
      (lf == std::string_view::npos || crlf < lf)) {
    head_end = crlf;
    body_start = crlf + 4;
  } else if (lf != std::string_view::npos) {
    head_end = lf;
    body_start = lf + 2;
  }
  if (head_end == std::string_view::npos) {
    if (in.size() > max_header_bytes) {
      return ParseError(out, 431, "request head too large\n");
    }
    return ParseOutcome::kNeedMore;
  }
  if (body_start > max_header_bytes) {
    return ParseError(out, 431, "request head too large\n");
  }

  const std::string_view head = in.substr(0, head_end);
  const size_t line_end = head.find('\n');
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.remove_suffix(1);
  }
  const size_t method_end = request_line.find(' ');
  const size_t target_end =
      method_end == std::string_view::npos
          ? std::string_view::npos
          : request_line.find(' ', method_end + 1);
  if (method_end == std::string_view::npos ||
      target_end == std::string_view::npos || method_end == 0 ||
      target_end == method_end + 1) {
    return ParseError(out, 400, "malformed request line\n");
  }
  const std::string_view method = request_line.substr(0, method_end);
  const std::string_view target =
      request_line.substr(method_end + 1, target_end - method_end - 1);
  const std::string_view version = request_line.substr(target_end + 1);
  if (version.substr(0, 5) != "HTTP/") {
    return ParseError(out, 400, "malformed request line\n");
  }
  // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; the Connection
  // header overrides either way.
  bool keep_alive = version == "HTTP/1.1";

  size_t content_length = 0;
  bool expect_continue = false;
  std::string_view rest = line_end == std::string_view::npos
                              ? std::string_view()
                              : head.substr(line_end + 1);
  while (!rest.empty()) {
    const size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return ParseError(out, 400, "malformed header line\n");
    }
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = TrimOws(line.substr(colon + 1));
    if (EqualsIgnoreCase(name, "content-length")) {
      if (value.empty()) return ParseError(out, 400, "bad content-length\n");
      content_length = 0;
      for (const char c : value) {
        if (c < '0' || c > '9') {
          return ParseError(out, 400, "bad content-length\n");
        }
        if (content_length > (max_body_bytes + 9) / 10 * 10) {
          return ParseError(out, 413, "request body too large\n");
        }
        content_length = content_length * 10 + static_cast<size_t>(c - '0');
      }
      if (content_length > max_body_bytes) {
        return ParseError(out, 413, "request body too large\n");
      }
    } else if (EqualsIgnoreCase(name, "connection")) {
      if (ContainsToken(value, "close")) {
        keep_alive = false;
      } else if (ContainsToken(value, "keep-alive")) {
        keep_alive = true;
      }
    } else if (EqualsIgnoreCase(name, "transfer-encoding")) {
      return ParseError(out, 501, "transfer-encoding not supported\n");
    } else if (EqualsIgnoreCase(name, "expect")) {
      if (ContainsToken(value, "100-continue")) expect_continue = true;
    }
  }

  out->head_complete = true;
  out->expect_continue = expect_continue;
  if (in.size() < body_start + content_length) return ParseOutcome::kNeedMore;

  out->method = method;
  out->target = target;
  out->body = in.substr(body_start, content_length);
  out->keep_alive = keep_alive;
  out->consumed = body_start + content_length;
  return ParseOutcome::kRequest;
}

}  // namespace

#ifdef SURVEYOR_HAVE_EPOLL

namespace {

/// How often some serving thread walks the connections for idle ones; also
/// the longest an idle thread blocks in epoll_wait while no peer is busy.
constexpr std::chrono::milliseconds kSweepInterval(500);

/// The stall guard: how long a thread may spend on one event before an
/// idle peer takes the ready events of its loop, and so the longest an
/// idle thread blocks while a peer is busy.
constexpr std::chrono::milliseconds kStallBound(1);

}  // namespace

// ---------------------------------------------------------------------------
// Serving threads
// ---------------------------------------------------------------------------

void HttpServer::ServeLoop(Loop* self) {
  const bool sweep = options_.idle_timeout_seconds > 0;
  const int idle_ms = sweep ? static_cast<int>(kSweepInterval.count()) : -1;
  for (;;) {
    epoll_event event{};
    const int n =
        ::epoll_wait(self->epoll_fd, &event, 1, WaitMs(self, idle_ms));
    self->waits_long.store(false, std::memory_order_relaxed);
    if (n < 0 && errno != EINTR) return;
    const Clock::rep now = Clock::now().time_since_epoch().count();
    if (sweep) {
      Clock::rep due = next_sweep_.load(std::memory_order_relaxed);
      if (now >= due &&
          next_sweep_.compare_exchange_strong(
              due, now + Clock::duration(kSweepInterval).count(),
              std::memory_order_relaxed)) {
        SweepIdle();
      }
    }
    if (n == 0 && !ServeStalledPeers(self)) return;
    if (n > 0 && !Dispatch(self, event.data.ptr, event.events, now)) return;
  }
}

bool HttpServer::Dispatch(Loop* self, void* tag, uint32_t events,
                          Clock::rep now) {
  if (tag == &wake_fd_) return false;  // Stop(): never drained
  if (tag == &nudge_fd_) return true;  // the next wait looks at the peers
  // Sequentially consistent, with the loads and store it pairs with in
  // WaitMs and NudgeBeforeHandler: of a thread turning busy and one
  // about to block past the bound, at least one sees the other.
  self->busy_since.store(now, std::memory_order_seq_cst);
  if (tag == &listen_fd_) {
    AcceptAll(self);
  } else {
    OnEvent(self, static_cast<Connection*>(tag), events);
  }
  self->busy_since.store(0, std::memory_order_relaxed);
  return true;
}

int HttpServer::WaitMs(Loop* self, int idle_ms) const {
  // Announced before looking: a peer turning busy either is seen here or
  // sees the announcement (Dispatch, NudgeBeforeHandler).
  self->waits_long.store(true, std::memory_order_seq_cst);
  for (const auto& peer : loops_) {
    if (peer.get() != self &&
        peer->busy_since.load(std::memory_order_seq_cst) != 0) {
      self->waits_long.store(false, std::memory_order_relaxed);
      return static_cast<int>(kStallBound.count());
    }
  }
  return idle_ms;
}

void HttpServer::NudgeBeforeHandler(const Loop* self,
                                    const Connection* conn) const {
  // Only connections homed here, other than `conn`, can wait on this
  // thread; with one connection per loop this is the whole cost.
  const size_t others = conn->home == self ? 1 : 0;
  if (self->connections.load(std::memory_order_relaxed) <= others) return;
  for (const auto& peer : loops_) {
    if (peer.get() != self &&
        peer->waits_long.load(std::memory_order_seq_cst)) {
      const uint64_t one = 1;
      ssize_t ignored = ::write(nudge_fd_, &one, sizeof(one));
      (void)ignored;
      return;
    }
  }
}

bool HttpServer::ServeStalledPeers(Loop* self) {
  for (const auto& peer : loops_) {
    if (peer.get() == self) continue;
    for (;;) {
      const Clock::rep now = Clock::now().time_since_epoch().count();
      const Clock::rep since =
          peer->busy_since.load(std::memory_order_relaxed);
      if (since == 0 || now - since < Clock::duration(kStallBound).count()) {
        break;
      }
      // One-shot arming makes the taker of an event its only owner, from
      // whichever set it was taken; what it re-arms goes back home.
      epoll_event event{};
      if (::epoll_wait(peer->epoll_fd, &event, 1, 0) != 1) break;
      if (!Dispatch(self, event.data.ptr, event.events, now)) return false;
    }
  }
  return true;
}

HttpServer::Loop* HttpServer::Place(Loop* self) {
  Loop* home = self;
  size_t fewest = self->connections.load(std::memory_order_relaxed);
  for (const auto& loop : loops_) {
    const size_t open = loop->connections.load(std::memory_order_relaxed);
    if (open < fewest) {
      home = loop.get();
      fewest = open;
    }
  }
  home->connections.fetch_add(1, std::memory_order_relaxed);
  return home;
}

void HttpServer::AcceptAll(Loop* self) {
  // Serialized once; every over-capacity connection gets the same bytes.
  static const std::string at_capacity = SimpleResponseBytes(
      503, "server at connection capacity\n", /*keep_alive=*/false,
      "Retry-After: 1");
  // Edge-triggered accept: drain the backlog completely, the notification
  // will not repeat for connections already queued.
  for (;;) {
    const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN, shut down by Stop(), or an error the next edge retries
    }
    const size_t open =
        connections_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (open > options_.max_connections) {
      // Over the cap: answer 503 inline and hang up.
      rejected_connections_total_->Increment();
      ssize_t ignored = ::send(client, at_capacity.data(),
                               at_capacity.size(), MSG_NOSIGNAL);
      (void)ignored;
      ::close(client);
      ReleaseConnection();
      continue;
    }
    connections_gauge_->Set(static_cast<double>(open));
    accepted_total_->Increment();
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto owned = std::make_unique<Connection>();
    Connection* conn = owned.get();
    {
      // Registered before it is armed, so its first owner can always
      // unregister it.
      MutexLock lock(registry_mutex_);
      registry_.emplace(conn, std::move(owned));
    }
    bool armed = false;
    {
      MutexLock lock(conn->mutex);
      conn->fd = client;
      conn->home = Place(self);
      conn->last_activity = Clock::now();
      armed = Arm(conn, EPOLL_CTL_ADD);
      if (!armed) Close(conn);
    }
    if (!armed) Forget(conn);
  }
}

void HttpServer::OnEvent(const Loop* self, Connection* conn,
                         uint32_t events) {
  bool dequeued = false;
  while (conn != nullptr) {
    Connection* next = nullptr;
    bool closed = false;
    {
      MutexLock lock(conn->mutex);
      if (!dequeued && (events & (EPOLLERR | EPOLLHUP)) != 0) {
        // Nothing can be written any more; no handler runs for it.
        Close(conn);
        closed = true;
      } else {
        closed = Serve(self, conn, dequeued, &next);
      }
    }
    if (closed) Forget(conn);
    // The slot of this thread's last handler passed to `next`, whose
    // request waited in the FIFO; serve it here, without a wakeup.
    conn = next;
    dequeued = true;
  }
}

bool HttpServer::Serve(const Loop* self, Connection* conn, bool dequeued,
                       Connection** next) {
  bool run = dequeued;  // conn's request holds a slot and runs first
  bool holding_slot = false;
  bool alive = true;
  if (dequeued) {
    conn->queued = false;
  } else {
    conn->armed = false;
    if (conn->timed_out && !conn->close_after_write) {
      // The sweep found it idle. A partial request held this long is a
      // slow loris: name the timeout before hanging up.
      if (conn->in.empty() || conn->out_pos < conn->out.size()) {
        Close(conn);
        return true;
      }
      conn->out = SimpleResponseBytes(408, "request timeout\n",
                                      /*keep_alive=*/false);
      conn->close_after_write = true;
    }
    alive = Flush(conn);
    if (alive && conn->out.empty() && !conn->close_after_write &&
        !conn->peer_closed) {
      Read(conn);
    }
  }

  // Serve buffered requests in order, one at a time, until one waits for
  // bytes, for a handler slot, or for its predecessor's response to drain.
  while (alive) {
    if (run) {
      run = false;
      holding_slot = true;
      NudgeBeforeHandler(self, conn);
      const HttpResponse response =
          handler_(conn->method, conn->target, conn->body);
      const bool keep_alive =
          conn->keep_alive && !draining_.load(std::memory_order_relaxed);
      // Requests are only parsed once `out` has drained, so the response
      // goes into the empty buffer, reusing its capacity.
      AppendResponse(response, keep_alive, conn->method == "HEAD",
                     &conn->out);
      conn->in.erase(0, conn->consumed);  // the request views die here
      conn->method = conn->target = conn->body = {};
      if (!keep_alive) conn->close_after_write = true;
      conn->last_activity = Clock::now();
      alive = Flush(conn);
      continue;
    }
    if (conn->close_after_write || conn->out_pos < conn->out.size()) break;
    if (draining_.load(std::memory_order_relaxed)) {
      if (!conn->in.empty()) {
        conn->out = SimpleResponseBytes(503, "shutting down\n",
                                        /*keep_alive=*/false);
        conn->close_after_write = true;
        alive = Flush(conn);
      }
      break;
    }
    ParsedRequest request;
    const ParseOutcome outcome =
        ParseOne(conn->in, options_.max_header_bytes,
                 options_.max_body_bytes, &request);
    if (outcome == ParseOutcome::kNeedMore) {
      if (request.head_complete && request.expect_continue &&
          !conn->sent_continue) {
        conn->sent_continue = true;
        conn->out = "HTTP/1.1 100 Continue\r\n\r\n";
        alive = Flush(conn);
      }
      break;
    }
    if (outcome == ParseOutcome::kError) {
      parse_errors_total_->Increment();
      conn->out = SimpleResponseBytes(request.error_status,
                                      request.error_message,
                                      /*keep_alive=*/false);
      conn->close_after_write = true;
      alive = Flush(conn);
      break;
    }
    requests_total_->Increment();
    if (conn->home != self) stolen_total_->Increment();
    conn->sent_continue = false;
    conn->method = request.method;
    conn->target = request.target;
    conn->body = request.body;
    conn->consumed = request.consumed;
    conn->keep_alive = request.keep_alive;
    const Admission admission = Admit(conn, holding_slot, next);
    if (admission == Admission::kQueued) {
      // A finishing handler takes it from the FIFO; any slot this thread
      // held went to the FIFO head in `*next`.
      conn->queued = true;
      return false;
    }
    if (admission == Admission::kRun) {
      run = true;
      continue;
    }
    shed_total_->Increment();
    conn->in.erase(0, conn->consumed);
    conn->method = conn->target = conn->body = {};
    conn->out = SimpleResponseBytes(429, "overloaded, backing off helps\n",
                                    /*keep_alive=*/true, "Retry-After: 1");
    alive = Flush(conn);  // the next pipelined request may still be admitted
  }

  if (holding_slot) *next = ReleaseSlot();
  const bool flushed = conn->out_pos >= conn->out.size();
  // Nothing left to say, or no one left to say it to: once a peer has
  // hung up, what `in` still holds is a request that cannot complete.
  if (!alive ||
      (flushed && (conn->close_after_write || conn->peer_closed)) ||
      !Arm(conn, EPOLL_CTL_MOD)) {
    Close(conn);
    return true;
  }
  return false;
}

HttpServer::Admission HttpServer::Admit(Connection* conn, bool holding_slot,
                                        Connection** next) {
  MutexLock lock(admit_mutex_);
  if (waiting_.empty() &&
      (holding_slot || running_ < options_.handler_threads)) {
    if (!holding_slot) ++running_;
    return Admission::kRun;
  }
  if (waiting_.size() >= options_.queue_high_water) return Admission::kShed;
  waiting_.push_back(conn);
  if (holding_slot) {
    *next = waiting_.front();
    waiting_.pop_front();
  }
  queue_depth_gauge_->Set(static_cast<double>(waiting_.size()));
  return Admission::kQueued;
}

HttpServer::Connection* HttpServer::ReleaseSlot() {
  MutexLock lock(admit_mutex_);
  if (waiting_.empty()) {
    --running_;
    return nullptr;
  }
  Connection* head = waiting_.front();
  waiting_.pop_front();
  queue_depth_gauge_->Set(static_cast<double>(waiting_.size()));
  return head;
}

// ---------------------------------------------------------------------------
// Connection I/O
// ---------------------------------------------------------------------------

void HttpServer::Read(Connection* conn) {
  char buffer[4096];
  while (conn->in.size() < options_.max_header_bytes +
                               options_.max_body_bytes + 1) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->in.append(buffer, static_cast<size_t>(n));
      conn->last_activity = Clock::now();
      // A short read drained the socket; more bytes re-arm the event.
      if (static_cast<size_t>(n) < sizeof(buffer)) return;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // EOF or hard error: no more requests will arrive, but a response
    // may still be deliverable on the half-open socket.
    conn->peer_closed = true;
    return;
  }
}

bool HttpServer::Flush(Connection* conn) {
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_pos,
               conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      conn->last_activity = Clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  conn->out.clear();
  conn->out_pos = 0;
  return true;
}

bool HttpServer::Arm(Connection* conn, int op) {
  const bool writing = conn->out_pos < conn->out.size();
  if (writing != conn->unflushed) {
    conn->unflushed = writing;
    unflushed_.fetch_add(writing ? 1 : -1, std::memory_order_acq_rel);
  }
  // Reads wait while a response drains: a client that pipelines without
  // reading cannot grow `out` without bound.
  epoll_event event{};
  event.events = (writing ? EPOLLOUT : EPOLLIN) | EPOLLONESHOT;
  event.data.ptr = conn;
  conn->armed = true;
  // From here another thread may take the event; it waits on conn->mutex
  // until this owner is done.
  return ::epoll_ctl(conn->home->epoll_fd, op, conn->fd, &event) == 0;
}

void HttpServer::Close(Connection* conn) {
  if (conn->unflushed) {
    conn->unflushed = false;
    unflushed_.fetch_sub(1, std::memory_order_acq_rel);
  }
  conn->armed = false;
  conn->home->connections.fetch_sub(1, std::memory_order_relaxed);
  ReleaseConnection();
  ::close(conn->fd);  // also drops it from its loop
  conn->fd = -1;
}

void HttpServer::Forget(Connection* conn) {
  MutexLock lock(registry_mutex_);
  registry_.erase(conn);
}

void HttpServer::SweepIdle() {
  const Clock::time_point now = Clock::now();
  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.idle_timeout_seconds));
  MutexLock lock(registry_mutex_);
  for (const auto& entry : registry_) {
    Connection* conn = entry.second.get();
    if (!conn->mutex.TryLock()) continue;  // its owner is serving it
    if (conn->armed && !conn->timed_out &&
        now - conn->last_activity > timeout) {
      // Only the owner closes a connection and frees it: a thread may
      // already hold this connection's event. Shutting the socket down
      // makes epoll report it, and that owner closes it (408 first for a
      // partial request). A stalled writer needs its write side shut too.
      conn->timed_out = true;
      idle_timeouts_total_->Increment();
      ::shutdown(conn->fd,
                 conn->out_pos < conn->out.size() ? SHUT_RDWR : SHUT_RD);
    }
    conn->mutex.Unlock();
  }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void HttpServer::ReleaseConnection() {
  const size_t open =
      connections_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  connections_gauge_->Set(static_cast<double>(open));
}

void HttpServer::CloseFds() {
  for (const auto& loop : loops_) {
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
  }
  loops_.clear();
  for (int* fd : {&listen_fd_, &wake_fd_, &nudge_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

Status HttpServer::Start() {
  if (!loops_.empty()) {
    return Status::FailedPrecondition("http server already started");
  }
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("http port out of range");
  }
  options_.handler_threads = std::max(1, options_.handler_threads);
  options_.max_connections = std::max<size_t>(1, options_.max_connections);
  options_.queue_high_water = std::max<size_t>(1, options_.queue_high_water);

  if (metrics_ == nullptr) {
    if (options_.metrics != nullptr) {
      metrics_ = options_.metrics;
    } else {
      owned_metrics_ = std::make_unique<MetricRegistry>();
      metrics_ = owned_metrics_.get();
    }
    accepted_total_ = metrics_->GetCounter("surveyor_http_accepted_total");
    rejected_connections_total_ =
        metrics_->GetCounter("surveyor_http_rejected_connections_total");
    requests_total_ = metrics_->GetCounter("surveyor_http_requests_total");
    shed_total_ = metrics_->GetCounter("surveyor_http_shed_total");
    parse_errors_total_ =
        metrics_->GetCounter("surveyor_http_parse_errors_total");
    idle_timeouts_total_ =
        metrics_->GetCounter("surveyor_http_idle_timeouts_total");
    stolen_total_ = metrics_->GetCounter("surveyor_http_stolen_total");
    connections_gauge_ = metrics_->GetGauge("surveyor_http_connections");
    queue_depth_gauge_ = metrics_->GetGauge("surveyor_http_queue_depth");
    metrics_->SetHelp("surveyor_http_accepted_total",
                      "Connections accepted by the listener");
    metrics_->SetHelp("surveyor_http_rejected_connections_total",
                      "Connections refused at the --max-connections cap");
    metrics_->SetHelp("surveyor_http_requests_total",
                      "HTTP requests parsed off connections");
    metrics_->SetHelp("surveyor_http_shed_total",
                      "Requests shed with 429 past the queue high-water mark");
    metrics_->SetHelp("surveyor_http_parse_errors_total",
                      "Connections dropped for malformed/oversized requests");
    metrics_->SetHelp("surveyor_http_idle_timeouts_total",
                      "Connections closed by the idle-timeout sweep");
    metrics_->SetHelp("surveyor_http_stolen_total",
                      "Requests read by a thread other than their "
                      "connection's home");
    metrics_->SetHelp("surveyor_http_connections",
                      "Open connections across all workers");
    metrics_->SetHelp("surveyor_http_queue_depth",
                      "Requests waiting in the bounded handler queue");
  }

  const auto fail = [this](const char* what) {
    const std::string error = std::system_category().message(errno);
    CloseFds();
    return Status::Internal(std::string(what) + ": " + error);
  };
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket()");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseFds();
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string error = std::system_category().message(errno);
    CloseFds();
    return Status::Internal("bind(" + options_.bind_address + ":" +
                            std::to_string(options_.port) + "): " + error);
  }
  if (::listen(listen_fd_, /*backlog=*/128) != 0) return fail("listen()");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail("eventfd()");
  nudge_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (nudge_fd_ < 0) return fail("eventfd()");
  // One thread more than handler slots: a thread is always free to
  // accept, read and shed, whatever the handlers are doing.
  const int threads = options_.handler_threads + 1;
  for (int i = 0; i < threads; ++i) {
    Loop* loop = loops_.emplace_back(std::make_unique<Loop>()).get();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) return fail("epoll_create1()");
    // Tagged by the address of the member holding each fd. An edge of the
    // listening socket or of the nudge wakes one idle thread; the
    // listener's drains accept4.
    epoll_event event{};
    event.events = EPOLLIN | EPOLLET | EPOLLEXCLUSIVE;
    event.data.ptr = &listen_fd_;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &event) != 0) {
      return fail("epoll_ctl(listen)");
    }
    event.data.ptr = &nudge_fd_;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, nudge_fd_, &event) != 0) {
      return fail("epoll_ctl(nudge)");
    }
    event.events = EPOLLIN;
    event.data.ptr = &wake_fd_;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, wake_fd_, &event) != 0) {
      return fail("epoll_ctl(wake)");
    }
  }

  draining_.store(false);
  unflushed_.store(0);
  connections_.store(0);
  next_sweep_.store(0);
  connections_gauge_->Set(0);
  queue_depth_gauge_->Set(0);
  threads_.reserve(loops_.size());
  for (const auto& loop : loops_) {
    threads_.emplace_back([this, self = loop.get()] { ServeLoop(self); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (loops_.empty()) return;
  // 1. Stop admitting: new connections are refused, newly parsed
  //    requests answer 503.
  draining_.store(true, std::memory_order_release);
  for (const auto& loop : loops_) {
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
  ::shutdown(listen_fd_, SHUT_RDWR);

  // 2. Drain: wait (bounded) for queued and executing requests to write
  //    their responses, then up to a second for sockets to take what is
  //    still buffered. A non-empty FIFO implies a busy slot, so no slot
  //    busy means nothing queued either.
  const auto wait = [](Clock::duration budget, const auto& done) {
    const Clock::time_point deadline = Clock::now() + budget;
    while (!done() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const auto drain_budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::max(0.0, options_.drain_seconds)));
  wait(drain_budget, [this] {
    MutexLock lock(admit_mutex_);
    return running_ == 0;
  });
  wait(std::chrono::seconds(1),
       [this] { return unflushed_.load(std::memory_order_acquire) == 0; });

  // 3. Wake every thread for good (the eventfd stays readable), then
  //    close the connections left.
  const uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  {
    MutexLock lock(registry_mutex_);
    for (const auto& entry : registry_) {
      Connection* conn = entry.second.get();
      MutexLock conn_lock(conn->mutex);
      if (conn->fd >= 0) ::close(conn->fd);
    }
    registry_.clear();
  }
  {
    MutexLock lock(admit_mutex_);
    waiting_.clear();
    running_ = 0;
  }
  CloseFds();
  connections_.store(0);
  connections_gauge_->Set(0);
  queue_depth_gauge_->Set(0);
}

#else  // !SURVEYOR_HAVE_EPOLL

Status HttpServer::Start() {
  return Status::Unimplemented("http server needs Linux epoll");
}

void HttpServer::Stop() {}

#endif  // SURVEYOR_HAVE_EPOLL

HttpServer::HttpServer(HttpHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(std::move(options)) {
  SURVEYOR_CHECK(handler_ != nullptr);
}

HttpServer::~HttpServer() { Stop(); }

int64_t HttpServer::shed_count() const {
  return shed_total_ == nullptr ? 0 : shed_total_->Value();
}

}  // namespace obs
}  // namespace surveyor
