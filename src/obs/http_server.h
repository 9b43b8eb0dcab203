#ifndef SURVEYOR_OBS_HTTP_SERVER_H_
#define SURVEYOR_OBS_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace surveyor {
namespace obs {

/// One materialized HTTP response. `headers` carries endpoint-specific
/// extras (e.g. Retry-After) on top of the Content-Type / Content-Length
/// / Connection headers the transport always writes. `content_type` is a
/// view, so it must outlive the response: a string literal.
struct HttpResponse {
  int status = 200;
  std::string_view content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Application request handler. `target` is the full request target
/// (path + query string), `body` the request body ("" for GET). A handler
/// runs on the thread that read its request, from entry to return; up to
/// `handler_threads` run concurrently, so a handler must be thread-safe
/// with respect to the state it touches.
using HttpHandler = std::function<HttpResponse(
    std::string_view method, std::string_view target, std::string_view body)>;

/// Configuration of the epoll serving tier (DESIGN.md §15).
struct HttpServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (port() reports the
  /// one actually bound).
  int port = 0;
  std::string bind_address = "127.0.0.1";
  /// Handlers allowed to run at once. The server runs one more thread
  /// than this, so a thread is always free to accept, read and shed even
  /// when every handler is slow (/profilez holds a multi-second window).
  int handler_threads = 4;
  /// Accepted-connection cap (--max-connections); connections over it are
  /// answered 503 and closed.
  size_t max_connections = 512;
  /// Admission control (--queue-high-water): a parsed request arriving
  /// while this many are already waiting for a handler slot is shed with
  /// 429 + Retry-After instead of being queued.
  size_t queue_high_water = 128;
  /// Keep-alive connections idle longer than this are closed; a
  /// connection holding a partial request this long (slow loris) is
  /// answered 408 and closed. <= 0 disables the sweep.
  double idle_timeout_seconds = 30.0;
  /// Request head (request line + headers) larger than this is rejected
  /// with 431.
  size_t max_header_bytes = 8192;
  /// Request body larger than this is rejected with 413.
  size_t max_body_bytes = 1 << 20;
  /// Graceful-shutdown budget: Stop() waits up to this long for queued
  /// and executing requests to finish and flush before closing sockets.
  double drain_seconds = 5.0;
  /// Registry for the transport metrics (connection gauge, queue depth,
  /// shed count, ...). May be null: the server then keeps a private
  /// registry and the counters are simply not scrapeable.
  MetricRegistry* metrics = nullptr;
};

/// Dependency-free epoll-based HTTP/1.1 server — the serving tier under
/// the admin plane and the /v1 query API:
///
///   - `handler_threads + 1` identical threads, each blocking on an epoll
///     set of its own (a loop) that holds the listening socket and the
///     connections homed there. A connection's home is the loop with the
///     fewest open connections when it is accepted, so the thread that
///     answered its last request is the one woken for its next. A thread
///     takes one event at a time; connections are armed EPOLLONESHOT, so
///     the thread that receives a connection's event owns it until it
///     re-arms it in its home loop, and reads, parses, runs the handler,
///     and writes the response itself — a request never changes thread;
///   - a stall guard: a thread with nothing to do takes the ready events
///     of a loop whose thread has spent a fixed bound (1 ms) on one
///     event, so a slow handler delays the other connections homed on its
///     thread by about that bound, not by the handler's whole run;
///   - keep-alive with an idle-timeout sweep, write back-pressure through
///     EPOLLOUT, pipelined requests answered in order;
///   - admission control: at most `handler_threads` handlers run at once;
///     a request that finds no free slot waits in a FIFO of at most
///     `queue_high_water` that finishing handlers drain, and past that it
///     is shed with 429 + Retry-After (the connection stays alive), so
///     overload degrades into fast, explicit rejections;
///   - graceful shutdown: Stop() stops accepting, drains queued and
///     in-flight requests, flushes responses, then closes.
///
/// Protocol errors are explicit, never hangs: oversized head 431,
/// oversized body 413, malformed request line 400, chunked encoding 501,
/// slow-loris partial request 408 at the idle timeout.
class HttpServer {
 public:
  /// `handler` answers every request; it must stay valid until Stop().
  HttpServer(HttpHandler handler, HttpServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the serving threads. Fails with
  /// InvalidArgument/Internal when the socket cannot be bound;
  /// Unimplemented off Linux (no epoll).
  Status Start();

  /// Graceful shutdown; idempotent. See class comment.
  void Stop();

  /// The port actually bound (useful with options.port == 0); 0 before
  /// Start().
  int port() const { return port_; }

  /// Live connection count (the connection gauge).
  size_t open_connections() const {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Requests shed with 429 by admission control so far.
  int64_t shed_count() const;

 private:
  /// One serving thread's epoll set. Aligned to a cache line: every
  /// thread reads every loop's `busy_since` before it blocks.
  struct alignas(64) Loop {
    int epoll_fd = -1;
    /// Open connections homed here.
    std::atomic<size_t> connections{0};
    /// When this loop's thread took the event it is serving (steady_clock
    /// ticks); 0 while it waits.
    std::atomic<std::chrono::steady_clock::rep> busy_since{0};
    /// Its thread blocks past the stall bound: no peer was busy when it
    /// looked. A peer that turns busy with connections to strand nudges it.
    std::atomic<bool> waits_long{false};
  };

  /// One accepted socket. Its owner — the thread that took the
  /// connection's epoll event or its FIFO entry — holds `mutex` until it
  /// re-arms or closes the connection; the idle sweep only try-locks it.
  struct Connection {
    Mutex mutex;
    int fd SURVEYOR_GUARDED_BY(mutex) = -1;
    /// The loop it is armed in; set once, at accept.
    Loop* home SURVEYOR_GUARDED_BY(mutex) = nullptr;
    /// Raw bytes read, not yet consumed by the parser.
    std::string in SURVEYOR_GUARDED_BY(mutex);
    /// Response bytes not yet written; `out_pos` is the write cursor so
    /// flushed prefixes are not re-sent.
    std::string out SURVEYOR_GUARDED_BY(mutex);
    size_t out_pos SURVEYOR_GUARDED_BY(mutex) = 0;
    /// The parsed request about to run or waiting in the FIFO: views into
    /// `in`, which nobody reads into before the request has run.
    std::string_view method SURVEYOR_GUARDED_BY(mutex);
    std::string_view target SURVEYOR_GUARDED_BY(mutex);
    std::string_view body SURVEYOR_GUARDED_BY(mutex);
    size_t consumed SURVEYOR_GUARDED_BY(mutex) = 0;
    bool keep_alive SURVEYOR_GUARDED_BY(mutex) = true;
    bool queued SURVEYOR_GUARDED_BY(mutex) = false;
    /// Parked in epoll with no owner: what the idle sweep may mark.
    bool armed SURVEYOR_GUARDED_BY(mutex) = false;
    /// Marked by the idle sweep, which also shut the socket down so the
    /// owner gets an event and closes it.
    bool timed_out SURVEYOR_GUARDED_BY(mutex) = false;
    /// Counted in HttpServer::unflushed_.
    bool unflushed SURVEYOR_GUARDED_BY(mutex) = false;
    bool close_after_write SURVEYOR_GUARDED_BY(mutex) = false;
    bool peer_closed SURVEYOR_GUARDED_BY(mutex) = false;
    bool sent_continue SURVEYOR_GUARDED_BY(mutex) = false;
    std::chrono::steady_clock::time_point last_activity
        SURVEYOR_GUARDED_BY(mutex);
  };
  /// What Admit() decided for a parsed request.
  enum class Admission { kRun, kQueued, kShed };

  /// The serving thread of `self`: waits on its loop, and takes over the
  /// ready events of stalled peers while it has nothing else to do.
  void ServeLoop(Loop* self);
  /// Serves one event taken from `self`'s loop or a stalled peer's;
  /// false for the wake event, which ends the thread.
  bool Dispatch(Loop* self, void* tag, uint32_t events,
                std::chrono::steady_clock::rep now);
  /// How long `self` may block: the stall bound while a peer is busy,
  /// else `idle_ms`, announced in `waits_long`.
  int WaitMs(Loop* self, int idle_ms) const;
  /// Before `self`'s thread runs a handler for `conn`: if other
  /// connections homed on `self` could wait on it and a peer blocks past
  /// the stall bound, wakes an idle thread to watch.
  void NudgeBeforeHandler(const Loop* self, const Connection* conn) const
      SURVEYOR_REQUIRES(conn->mutex);
  /// Serves the ready events of every peer stalled for the bound; false
  /// once the wake event was among them.
  bool ServeStalledPeers(Loop* self);
  void AcceptAll(Loop* self);
  /// The loop with the fewest open connections, `self` on a tie; counts
  /// the new connection there.
  Loop* Place(Loop* self);
  /// Reads, parses and serves `conn` after its epoll event, then serves
  /// the connections whose queued requests this thread's finished
  /// handlers took over.
  void OnEvent(const Loop* self, Connection* conn, uint32_t events);
  /// Serves `conn` under its lock on `self`'s thread; returns true when
  /// it must be freed. `dequeued`: `conn` comes off the FIFO with a
  /// handler slot, to run its waiting request first. `*next` receives a
  /// queued connection the slot passed to.
  bool Serve(const Loop* self, Connection* conn, bool dequeued,
             Connection** next) SURVEYOR_REQUIRES(conn->mutex);
  /// Takes a handler slot for `conn`'s parsed request, or queues or sheds
  /// it. `holding_slot`: this thread still holds the slot of the handler
  /// it just ran; queueing `conn` then hands that slot to the FIFO head,
  /// returned in `*next`.
  Admission Admit(Connection* conn, bool holding_slot, Connection** next)
      SURVEYOR_EXCLUDES(admit_mutex_);
  /// Gives up a handler slot: to the FIFO head, which is returned and must
  /// be served by the caller, or back to the pool (nullptr).
  Connection* ReleaseSlot() SURVEYOR_EXCLUDES(admit_mutex_);
  /// Reads what the socket holds, up to the buffered-input cap.
  void Read(Connection* conn) SURVEYOR_REQUIRES(conn->mutex);
  /// Writes pending output; false when the socket failed.
  bool Flush(Connection* conn) SURVEYOR_REQUIRES(conn->mutex);
  /// Parks the connection in its home loop, one-shot, for what it waits
  /// on next: its output to drain, else its next request.
  bool Arm(Connection* conn, int op) SURVEYOR_REQUIRES(conn->mutex);
  void Close(Connection* conn) SURVEYOR_REQUIRES(conn->mutex);
  void SweepIdle() SURVEYOR_EXCLUDES(registry_mutex_);
  void CloseFds();
  /// Unregisters and frees a connection its owner closed.
  void Forget(Connection* conn) SURVEYOR_EXCLUDES(registry_mutex_);
  /// Drops the open-connection count and gauge by one (a connection
  /// closed or was refused at the cap).
  void ReleaseConnection();

  HttpHandler handler_;
  HttpServerOptions options_;
  /// Owned fallback when options_.metrics is null.
  std::unique_ptr<MetricRegistry> owned_metrics_;
  MetricRegistry* metrics_ = nullptr;

  Counter* accepted_total_ = nullptr;
  Counter* rejected_connections_total_ = nullptr;
  Counter* requests_total_ = nullptr;
  Counter* shed_total_ = nullptr;
  Counter* parse_errors_total_ = nullptr;
  Counter* idle_timeouts_total_ = nullptr;
  Counter* stolen_total_ = nullptr;
  Gauge* connections_gauge_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;

  /// Every open connection; the idle sweep walks it, Stop() frees what is
  /// left. A connection is unlinked only by the thread that closed it.
  Mutex registry_mutex_;
  std::unordered_map<const Connection*, std::unique_ptr<Connection>>
      registry_ SURVEYOR_GUARDED_BY(registry_mutex_);

  /// Admission control: handlers running (or slots held between two
  /// pipelined requests) and the FIFO of connections whose parsed request
  /// waits for a slot. A non-empty FIFO implies every slot is taken, so
  /// the next handler to finish always picks its head up.
  Mutex admit_mutex_;
  int running_ SURVEYOR_GUARDED_BY(admit_mutex_) = 0;
  std::deque<Connection*> waiting_ SURVEYOR_GUARDED_BY(admit_mutex_);

  /// One per serving thread, `handler_threads + 1`; empty when stopped.
  std::vector<std::unique_ptr<Loop>> loops_;
  int listen_fd_ = -1;
  /// Never drained once written: level-triggered and in every loop, it
  /// wakes every thread for shutdown.
  int wake_fd_ = -1;
  /// Never read: edge-triggered and exclusive in every loop, each write
  /// wakes one idle thread (NudgeBeforeHandler).
  int nudge_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> draining_{false};
  /// Connections parked with response bytes the socket has not taken
  /// yet — what Stop() flushes before closing.
  std::atomic<int64_t> unflushed_{0};
  std::atomic<size_t> connections_{0};
  /// When the next idle sweep is due (steady_clock ticks).
  std::atomic<std::chrono::steady_clock::rep> next_sweep_{0};
  std::vector<std::thread> threads_;
};

}  // namespace obs
}  // namespace surveyor

#endif  // SURVEYOR_OBS_HTTP_SERVER_H_
