#ifndef SURVEYOR_OBS_REQUEST_TRACE_H_
#define SURVEYOR_OBS_REQUEST_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace surveyor {
namespace obs {

class AccessLog;

/// Per-request counters bumped by the serving layer while a RequestScope
/// is live on the thread (CurrentRequestStats()). They end up on the
/// access-log entry and the kept trace, so a slow request explains itself:
/// did it retry a snapshot read after a transient failure?
struct RequestStats {
  int64_t retries = 0;
};

/// One closed span of a retained request trace. Times are relative to the
/// request start; ids count from 1 within the trace, and parent_id 0
/// marks the root.
struct TraceSpan {
  uint64_t id = 0;
  uint64_t parent_id = 0;
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// One completed, retained request trace: the request envelope plus the
/// span tree collected underneath it. Span start times are relative to the
/// request start, so a trace is self-contained.
struct RequestTrace {
  uint64_t trace_id = 0;
  /// Head-sampled at admission (SampleDecision).
  bool sampled = false;
  /// Exceeded the slow-query threshold (tail capture).
  bool slow = false;
  std::string method;
  /// Request target (path + query), truncated to a bounded length.
  std::string target;
  int status = 0;
  size_t response_bytes = 0;
  /// Wall-clock request start (unix seconds), for display only.
  double start_unix_seconds = 0.0;
  double duration_seconds = 0.0;
  /// Spans not recorded because the per-trace cap was hit.
  int64_t dropped_spans = 0;
  RequestStats stats;
  std::vector<TraceSpan> spans;
};

struct RequestTracerOptions {
  /// Head-sampling rate in [0, 1]: the fraction of requests whose trace is
  /// retained regardless of latency. 0 disables head sampling.
  double sample_rate = 0.01;
  /// Requests slower than this are retained even when not head-sampled
  /// (tail capture). <= 0 disables tail capture.
  double slow_threshold_seconds = 0.25;
  /// Retained traces kept in the ring (oldest overwritten).
  size_t ring_capacity = 64;
  /// Spans recorded per trace before further spans are counted as dropped.
  size_t max_spans_per_trace = 128;
};

class RequestTracer;

namespace internal {

/// Longest method and request target kept on traces and access-log
/// entries; hostile request lines must not balloon the rings.
inline constexpr size_t kMaxMethodBytes = 32;
inline constexpr size_t kMaxTargetBytes = 256;

/// Spans a request records without allocating; one that opens more keeps
/// the rest (up to the per-trace cap) on the heap.
inline constexpr size_t kInlineSpans = 16;

/// One closed span of a request as recorded: `name` is a view of the span
/// name's literal (the root span's is a view of the request line), and
/// ids count from 1 within the trace.
struct SpanRecord {
  std::string_view name;
  uint32_t id = 0;
  uint32_t parent_id = 0;
  std::chrono::steady_clock::time_point start;
  double duration_seconds = 0.0;
};

/// Thread-local state of the request currently being served. Bridge
/// between RequestScope (owner) and ScopedSpan (trace.cc records the
/// spans of an armed request here). Nothing in it allocates for a
/// request that opens at most kInlineSpans spans; the strings of a
/// RequestTrace are built only when the tracer keeps it.
/// Internal: use RequestScope / CurrentRequestStats() /
/// CurrentSampledTraceId().
struct RequestContext {
  RequestContext(RequestTracer* request_tracer, AccessLog* log,
                 std::string_view method_text, std::string_view target_text);
  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  /// Keeps a closed span, or counts it dropped once max_spans are kept.
  void RecordSpan(const SpanRecord& span);

  /// The retained form of this request: strings copied, span times
  /// relative to the request start.
  RequestTrace ToTrace(double duration_seconds, bool slow) const;

  RequestTracer* tracer = nullptr;
  AccessLog* access_log = nullptr;
  /// Collect spans (tracer armed at admission).
  bool recording = false;
  size_t max_spans = 0;
  double slow_threshold_seconds = 0.0;
  std::chrono::steady_clock::time_point start;
  /// Wall-clock request start (unix seconds), for display only.
  double start_unix_seconds = 0.0;
  uint64_t trace_id = 0;
  /// Head-sampled at admission (or forced).
  bool sampled = false;
  int status = 0;
  size_t response_bytes = 0;
  RequestStats stats;

  /// "METHOD TARGET", each bounded; the views below point into it.
  char line[kMaxMethodBytes + 1 + kMaxTargetBytes];
  std::string_view method;
  std::string_view target;
  /// "METHOD /path": the root span's name.
  std::string_view root_name;

  /// The request-local span stack: the innermost open span (0 at the
  /// root) and the last id handed out.
  uint32_t current_span = 0;
  uint32_t last_span_id = 0;
  /// Closed spans in closing order: the first kInlineSpans in place, the
  /// rest in `more_spans`.
  std::array<SpanRecord, kInlineSpans> spans;
  std::vector<SpanRecord> more_spans;
  size_t num_spans = 0;
  /// Spans not recorded because the per-trace cap was hit.
  int64_t dropped_spans = 0;
};

/// The active request context of this thread; nullptr outside a request.
RequestContext* CurrentRequestContext();

}  // namespace internal

/// Assigns trace ids, makes the keep/drop decision and owns the bounded
/// ring of retained request traces served by /tracez. Thread-safe; one
/// instance per admin server.
class RequestTracer {
 public:
  explicit RequestTracer(RequestTracerOptions options = {});
  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  const RequestTracerOptions& options() const { return options_; }

  /// Whether request spans are collected at all: with head sampling off
  /// and tail capture off there is nobody to keep a trace, so scopes skip
  /// span collection entirely and the per-request cost is a few atomics.
  bool armed() const {
    return options_.sample_rate > 0.0 ||
           options_.slow_threshold_seconds > 0.0;
  }

  /// Deterministic head-sampling decision: hashes the trace id (splitmix64
  /// finalizer) into [0, 1) and compares against `rate`. Rate <= 0 never
  /// samples, rate >= 1 always does; sequential ids decorrelate.
  static bool SampleDecision(uint64_t trace_id, double rate);

  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Retains one finished trace in the ring (called by ~RequestScope for
  /// sampled or slow requests), overwriting the oldest when full.
  void Keep(RequestTrace trace) SURVEYOR_EXCLUDES(mutex_);

  /// The retained traces, newest first.
  std::vector<RequestTrace> Snapshot() const SURVEYOR_EXCLUDES(mutex_);

  /// Drops all retained traces (counters keep running).
  void Clear() SURVEYOR_EXCLUDES(mutex_);

  // Lifetime counters, maintained by RequestScope.
  void CountRequest(bool sampled, bool slow);
  int64_t requests_started() const {
    return started_.load(std::memory_order_relaxed);
  }
  int64_t requests_sampled() const {
    return sampled_.load(std::memory_order_relaxed);
  }
  int64_t requests_slow() const {
    return slow_.load(std::memory_order_relaxed);
  }
  int64_t traces_kept() const {
    return kept_.load(std::memory_order_relaxed);
  }
  /// Retained traces overwritten by newer ones.
  int64_t traces_evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

  /// Appends Prometheus exposition for the tracer counters
  /// (surveyor_trace_requests_total etc.).
  void AppendPrometheusText(std::string* out) const;

 private:
  RequestTracerOptions options_;
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<int64_t> started_{0};
  std::atomic<int64_t> sampled_{0};
  std::atomic<int64_t> slow_{0};
  std::atomic<int64_t> kept_{0};
  std::atomic<int64_t> evicted_{0};
  mutable Mutex mutex_;
  /// Ring of retained traces; once full, `next_slot_` is the oldest entry
  /// and is overwritten next.
  std::vector<RequestTrace> ring_ SURVEYOR_GUARDED_BY(mutex_);
  size_t next_slot_ SURVEYOR_GUARDED_BY(mutex_) = 0;
};

/// RAII request scope: assigns a trace id, installs the thread-local
/// request context (so SURVEYOR_SPANs underneath attach to this request),
/// opens the root span "METHOD /path", and on destruction makes the
/// keep/drop decision and appends one access-log entry. The method and
/// target are copied (bounded) into the scope, so the caller's strings
/// need not outlive it. The handler fills in status / response bytes /
/// endpoint via the setters. Must be destroyed on the thread that created
/// it.
class RequestScope {
 public:
  /// `tracer` must outlive the scope; `access_log` may be null (no entry
  /// is appended then).
  RequestScope(RequestTracer* tracer, AccessLog* access_log,
               std::string_view method, std::string_view target);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  void set_status(int status) { context_.status = status; }
  void set_response_bytes(size_t bytes) { context_.response_bytes = bytes; }
  /// Normalized endpoint name for the per-endpoint counters ("/metrics",
  /// a registered handler prefix, "other"); it must outlive the scope.
  /// Defaults to the request path.
  void set_endpoint(std::string_view endpoint) { endpoint_ = endpoint; }

  uint64_t trace_id() const { return context_.trace_id; }
  bool sampled() const { return context_.sampled; }

 private:
  /// Installs/restores the thread-local context; declared before the root
  /// span so the span construction already sees the context installed.
  struct ContextInstaller {
    explicit ContextInstaller(internal::RequestContext* context);
    ~ContextInstaller();
    internal::RequestContext* previous;
  };

  internal::RequestContext context_;
  ContextInstaller installer_;
  ScopedSpan root_span_;
  std::string_view endpoint_;
};

/// The stats of the request being served on this thread; nullptr when no
/// RequestScope is live. Serving code bumps these unconditionally — the
/// null check is the entire disarmed cost.
RequestStats* CurrentRequestStats();

/// Trace id of the current request (0 when no RequestScope is live).
uint64_t CurrentTraceId();

/// Marks the current request as sampled regardless of the head-sampling
/// decision, so its trace is retained on /tracez. For rare,
/// operator-significant requests (a /v1/admin/reload generation swap)
/// whose trace should never be lost to a 1% sampling rate. No-op outside
/// a request.
void ForceSampleCurrentRequest();

/// Trace id of the current request if it was head-sampled, else 0. Metric
/// exemplars use this so every exemplar on /metrics resolves to a trace
/// that /tracez actually retained.
uint64_t CurrentSampledTraceId();

/// Fixed-width lower-case hex rendering of a trace id ("00d7..."), the
/// form /tracez and exemplars use.
std::string TraceIdHex(uint64_t trace_id);

}  // namespace obs
}  // namespace surveyor

#endif  // SURVEYOR_OBS_REQUEST_TRACE_H_
