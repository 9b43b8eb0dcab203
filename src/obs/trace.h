#ifndef SURVEYOR_OBS_TRACE_H_
#define SURVEYOR_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace surveyor {
namespace obs {

namespace internal {
struct RequestContext;
}  // namespace internal

/// One completed tracing span. Times are relative to the tracer epoch
/// (the last Clear()), so a run report is self-contained.
struct TraceSpan {
  uint64_t id = 0;
  /// 0 for a root span.
  uint64_t parent_id = 0;
  std::string name;
  /// Small per-process thread index (CurrentThreadIndex()).
  uint32_t thread_index = 0;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// A span that has started but not yet ended — the live call stack the
/// admin server's /statusz shows per thread while a run is in flight.
struct ActiveSpan {
  uint64_t id = 0;
  uint64_t parent_id = 0;
  std::string name;
  uint32_t thread_index = 0;
  /// Seconds since the tracer epoch at which the span started.
  double start_seconds = 0.0;
};

/// Bounded in-memory span buffer. Disabled by default: a SURVEYOR_SPAN in
/// a hot loop costs one relaxed atomic load until tracing is switched on.
/// Spans above the capacity are dropped and counted, never reallocated —
/// tracing a web-scale run must not grow memory without bound.
class Tracer {
 public:
  /// The process-wide tracer used by SURVEYOR_SPAN.
  static Tracer& Global();

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Maximum buffered spans (default 16384); takes effect immediately.
  void SetCapacity(size_t capacity) SURVEYOR_EXCLUDES(mutex_);

  /// Drops all buffered spans, resets ids, the drop counter and the epoch.
  void Clear() SURVEYOR_EXCLUDES(mutex_);

  /// Copies the buffered spans, ordered by start time (ties by id), so
  /// parents precede their children.
  std::vector<TraceSpan> Snapshot() const SURVEYOR_EXCLUDES(mutex_);

  /// Spans discarded because the buffer was full since the last Clear().
  int64_t dropped_spans() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Spans currently live (started, not ended), ordered by thread index
  /// then start time — per-thread entries read as innermost-last stacks.
  std::vector<ActiveSpan> ActiveSpans() const SURVEYOR_EXCLUDES(mutex_);

  // --- Used by ScopedSpan; not part of the public surface. ---
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(TraceSpan span) SURVEYOR_EXCLUDES(mutex_);
  void RegisterActive(ActiveSpan span) SURVEYOR_EXCLUDES(mutex_);
  void UnregisterActive(uint64_t id) SURVEYOR_EXCLUDES(mutex_);
  std::chrono::steady_clock::time_point epoch() const
      SURVEYOR_EXCLUDES(mutex_);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<int64_t> dropped_{0};
  mutable Mutex mutex_;
  size_t capacity_ SURVEYOR_GUARDED_BY(mutex_) = 16384;
  std::vector<TraceSpan> spans_ SURVEYOR_GUARDED_BY(mutex_);
  /// Live spans keyed by id; bounded by the number of concurrently open
  /// scopes, which is O(threads × nesting depth).
  std::vector<ActiveSpan> active_ SURVEYOR_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point epoch_ SURVEYOR_GUARDED_BY(mutex_) =
      std::chrono::steady_clock::now();
};

/// The innermost live span id on this thread (0 when none). Capture it on
/// the submitting thread and pass it to ScopedSpan on a worker thread to
/// keep parent linkage across thread boundaries.
uint64_t CurrentSpanId();

/// RAII span: records wall time, thread index and parent linkage into the
/// global tracer — or, while an armed RequestScope is live on this thread,
/// into that request's local span buffer: ids count from 1 within the
/// trace, the parent is the request's innermost open span, and nothing is
/// locked, allocated or written outside the request (start times relative
/// to the request start). When neither is active the constructor is one
/// thread-local read plus one atomic load and nothing else runs. `name`
/// is viewed, not copied: it must outlive the span (a literal does).
class ScopedSpan {
 public:
  /// Parent is the innermost live span of the current thread.
  explicit ScopedSpan(std::string_view name);
  /// Explicit parent, for spans that start on a different thread than the
  /// logical parent (e.g. extraction shards under the "extract" span).
  /// A request span ignores it: its parent is the request's open span.
  ScopedSpan(std::string_view name, uint64_t parent_id);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early (idempotent); the destructor becomes a no-op.
  void End();

  /// Seconds since construction (after End(): the final duration).
  /// 0 when the span is not recording (tracing disabled at construction).
  double ElapsedSeconds() const;

  /// This span's id (0 when not recording).
  uint64_t id() const { return id_; }

 private:
  void Start(std::string_view name, uint64_t parent_id);

  bool recording_ = false;
  bool restore_parent_ = false;
  /// The request this span belongs to; nullptr for global-tracer spans.
  internal::RequestContext* request_ = nullptr;
  uint64_t id_ = 0;
  uint64_t saved_parent_ = 0;
  uint64_t parent_id_for_record_ = 0;
  double final_seconds_ = 0.0;
  std::string_view name_;
  std::chrono::steady_clock::time_point start_;
};

/// Scoped tracing session: clears the global tracer, enables it, and
/// restores the previous enabled state on destruction. One pipeline run =
/// one session; concurrent sessions interleave into the same buffer.
class TraceSession {
 public:
  explicit TraceSession(Tracer& tracer = Tracer::Global());
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  std::vector<TraceSpan> Snapshot() const { return tracer_->Snapshot(); }
  int64_t dropped_spans() const { return tracer_->dropped_spans(); }

 private:
  Tracer* tracer_;
  bool previous_enabled_;
};

}  // namespace obs
}  // namespace surveyor

#define SURVEYOR_SPAN_CONCAT_INNER(a, b) a##b
#define SURVEYOR_SPAN_CONCAT(a, b) SURVEYOR_SPAN_CONCAT_INNER(a, b)

/// Declares an RAII tracing span covering the rest of the scope:
///   SURVEYOR_SPAN("extract.shard");
#define SURVEYOR_SPAN(name) \
  ::surveyor::obs::ScopedSpan SURVEYOR_SPAN_CONCAT(_surveyor_span_, \
                                                   __LINE__)(name)

#endif  // SURVEYOR_OBS_TRACE_H_
