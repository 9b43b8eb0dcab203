#include "obs/request_trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/access_log.h"

namespace surveyor {
namespace obs {

namespace internal {
namespace {

/// The request being served on this thread. A handler runs on one thread
/// from entry to return, so thread-local is the whole propagation
/// mechanism — no cross-thread handoff exists on this path.
thread_local RequestContext* tls_request_context = nullptr;

}  // namespace

RequestContext* CurrentRequestContext() { return tls_request_context; }

}  // namespace internal

namespace {

/// Longest request target retained on traces and access-log entries; a
/// hostile query string must not balloon the rings.
constexpr size_t kMaxTargetBytes = 256;

double UnixSecondsNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string_view PathOnly(std::string_view target) {
  const size_t query = target.find('?');
  return query == std::string_view::npos ? target : target.substr(0, query);
}

}  // namespace

RequestTracer::RequestTracer(RequestTracerOptions options)
    : options_(options) {
  MutexLock lock(mutex_);
  ring_.reserve(options_.ring_capacity);
}

bool RequestTracer::SampleDecision(uint64_t trace_id, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // splitmix64 finalizer: sequential trace ids decorrelate into a uniform
  // 64-bit hash, so the decision is deterministic per id yet the sampled
  // fraction converges to `rate`.
  uint64_t x = trace_id + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  // Top 53 bits -> [0, 1) with full double precision.
  return static_cast<double>(x >> 11) * 0x1.0p-53 < rate;
}

void RequestTracer::Keep(RequestTrace trace) {
  MutexLock lock(mutex_);
  if (options_.ring_capacity == 0) return;
  kept_.fetch_add(1, std::memory_order_relaxed);
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(std::move(trace));
    return;
  }
  ring_[next_slot_] = std::move(trace);
  next_slot_ = (next_slot_ + 1) % options_.ring_capacity;
  evicted_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<RequestTrace> RequestTracer::Snapshot() const {
  MutexLock lock(mutex_);
  std::vector<RequestTrace> traces;
  traces.reserve(ring_.size());
  // Newest first: the slot before next_slot_ holds the latest insert once
  // the ring has wrapped; before that, inserts are in push_back order.
  const size_t n = ring_.size();
  const size_t newest =
      n < options_.ring_capacity ? n : next_slot_ + options_.ring_capacity;
  for (size_t i = 0; i < n; ++i) {
    traces.push_back(ring_[(newest - 1 - i + n) % n]);
  }
  return traces;
}

void RequestTracer::Clear() {
  MutexLock lock(mutex_);
  ring_.clear();
  next_slot_ = 0;
}

void RequestTracer::CountRequest(bool sampled, bool slow) {
  started_.fetch_add(1, std::memory_order_relaxed);
  if (sampled) sampled_.fetch_add(1, std::memory_order_relaxed);
  if (slow) slow_.fetch_add(1, std::memory_order_relaxed);
}

void RequestTracer::AppendPrometheusText(std::string* out) const {
  const struct {
    const char* name;
    const char* help;
    int64_t value;
  } series[] = {
      {"surveyor_trace_requests_total",
       "Requests seen by the request tracer.", requests_started()},
      {"surveyor_trace_requests_sampled_total",
       "Requests retained by head sampling.", requests_sampled()},
      {"surveyor_trace_requests_slow_total",
       "Requests retained by the slow-query threshold.", requests_slow()},
      {"surveyor_traces_kept_total", "Traces retained in the /tracez ring.",
       traces_kept()},
      {"surveyor_traces_evicted_total",
       "Retained traces overwritten by newer ones.", traces_evicted()},
  };
  for (const auto& s : series) {
    *out += "# HELP " + std::string(s.name) + " " + s.help + "\n";
    *out += "# TYPE " + std::string(s.name) + " counter\n";
    *out += std::string(s.name) + " " + std::to_string(s.value) + "\n";
  }
}

namespace {

std::string RootSpanName(std::string_view method, std::string_view target) {
  std::string_view path = PathOnly(target);
  if (path.size() > kMaxTargetBytes) path = path.substr(0, kMaxTargetBytes);
  std::string name;
  name.reserve(method.size() + 1 + path.size());
  name.append(method);
  name.push_back(' ');
  name.append(path);
  return name;
}

internal::RequestContext MakeContext(RequestTracer* tracer,
                                     AccessLog* access_log,
                                     std::string_view method,
                                     std::string_view target) {
  internal::RequestContext context;
  context.tracer = tracer;
  context.access_log = access_log;
  context.start = std::chrono::steady_clock::now();
  context.trace.method.assign(method);
  context.trace.target.assign(target.substr(
      0, std::min<size_t>(target.size(), kMaxTargetBytes)));
  context.trace.start_unix_seconds = UnixSecondsNow();
  if (tracer != nullptr) {
    context.trace.trace_id = tracer->NextTraceId();
    context.trace.sampled = RequestTracer::SampleDecision(
        context.trace.trace_id, tracer->options().sample_rate);
    context.recording = tracer->armed();
    context.max_spans = tracer->options().max_spans_per_trace;
    context.slow_threshold_seconds =
        tracer->options().slow_threshold_seconds;
    if (context.recording) {
      context.trace.spans.reserve(
          std::min<size_t>(context.max_spans, 16));
    }
  }
  return context;
}

}  // namespace

RequestScope::ContextInstaller::ContextInstaller(
    internal::RequestContext* context)
    : previous(internal::tls_request_context) {
  internal::tls_request_context = context;
}

RequestScope::ContextInstaller::~ContextInstaller() {
  internal::tls_request_context = previous;
}

RequestScope::RequestScope(RequestTracer* tracer, AccessLog* access_log,
                           std::string_view method, std::string_view target)
    : context_(MakeContext(tracer, access_log, method, target)),
      installer_(&context_),
      root_span_(RootSpanName(method, target)),
      endpoint_(PathOnly(context_.trace.target)) {}

RequestScope::~RequestScope() {
  // Close the root span while the context is still installed, so it lands
  // in the request-local buffer like every child span.
  root_span_.End();
  RequestTrace& trace = context_.trace;
  trace.duration_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               context_.start)
                               .count();
  trace.slow = context_.slow_threshold_seconds > 0.0 &&
               trace.duration_seconds >= context_.slow_threshold_seconds;
  if (context_.access_log != nullptr) {
    AccessLogEntry entry;
    entry.unix_seconds = trace.start_unix_seconds;
    entry.method = trace.method;
    entry.target = trace.target;
    entry.endpoint = endpoint_;
    entry.status = trace.status;
    entry.response_bytes = trace.response_bytes;
    entry.latency_seconds = trace.duration_seconds;
    entry.trace_id = trace.trace_id;
    entry.sampled = trace.sampled || trace.slow;
    entry.slow = trace.slow;
    entry.stats = trace.stats;
    context_.access_log->Append(std::move(entry));
  }
  if (context_.tracer != nullptr) {
    context_.tracer->CountRequest(trace.sampled, trace.slow);
    if (trace.sampled || trace.slow) {
      context_.tracer->Keep(std::move(trace));
    }
  }
}

RequestStats* CurrentRequestStats() {
  internal::RequestContext* context = internal::CurrentRequestContext();
  return context == nullptr ? nullptr : &context->trace.stats;
}

uint64_t CurrentTraceId() {
  internal::RequestContext* context = internal::CurrentRequestContext();
  return context == nullptr ? 0 : context->trace.trace_id;
}

void ForceSampleCurrentRequest() {
  internal::RequestContext* context = internal::CurrentRequestContext();
  if (context != nullptr) context->trace.sampled = true;
}

uint64_t CurrentSampledTraceId() {
  internal::RequestContext* context = internal::CurrentRequestContext();
  if (context == nullptr || !context->trace.sampled) return 0;
  return context->trace.trace_id;
}

std::string TraceIdHex(uint64_t trace_id) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return std::string(buffer, 16);
}

}  // namespace obs
}  // namespace surveyor
