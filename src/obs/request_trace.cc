#include "obs/request_trace.h"

#include <cstdio>
#include <cstring>

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

namespace internal {

RequestContext::RequestContext(RequestTracer* request_tracer,
                               AccessLog* log, std::string_view method_text,
                               std::string_view target_text)
    : tracer(request_tracer),
      access_log(log),
      start(std::chrono::steady_clock::now()),
      start_unix_seconds(UnixSecondsNow()) {
  method_text = method_text.substr(0, kMaxMethodBytes);
  target_text = target_text.substr(0, kMaxTargetBytes);
  std::memcpy(line, method_text.data(), method_text.size());
  line[method_text.size()] = ' ';
  std::memcpy(line + method_text.size() + 1, target_text.data(),
              target_text.size());
  method = std::string_view(line, method_text.size());
  target = std::string_view(line + method_text.size() + 1, target_text.size());
  root_name = std::string_view(
      line, method_text.size() + 1 + PathOnly(target_text).size());
  if (tracer != nullptr) {
    trace_id = tracer->NextTraceId();
    sampled =
        RequestTracer::SampleDecision(trace_id, tracer->options().sample_rate);
    recording = tracer->armed();
    max_spans = tracer->options().max_spans_per_trace;
    slow_threshold_seconds = tracer->options().slow_threshold_seconds;
  }
}

void RequestContext::RecordSpan(const SpanRecord& span) {
  if (num_spans >= max_spans) {
    ++dropped_spans;
    return;
  }
  if (num_spans < spans.size()) {
    spans[num_spans] = span;
  } else {
    more_spans.push_back(span);
  }
  ++num_spans;
}

RequestTrace RequestContext::ToTrace(double duration_seconds,
                                     bool slow) const {
  RequestTrace trace;
  trace.trace_id = trace_id;
  trace.sampled = sampled;
  trace.slow = slow;
  trace.method.assign(method);
  trace.target.assign(target);
  trace.status = status;
  trace.response_bytes = response_bytes;
  trace.start_unix_seconds = start_unix_seconds;
  trace.duration_seconds = duration_seconds;
  trace.dropped_spans = dropped_spans;
  trace.stats = stats;
  trace.spans.reserve(num_spans);
  for (size_t i = 0; i < num_spans; ++i) {
    const SpanRecord& record =
        i < spans.size() ? spans[i] : more_spans[i - spans.size()];
    TraceSpan& span = trace.spans.emplace_back();
    span.id = record.id;
    span.parent_id = record.parent_id;
    span.name.assign(record.name);
    span.start_seconds =
        std::chrono::duration<double>(record.start - start).count();
    span.duration_seconds = record.duration_seconds;
  }
  return trace;
}

}  // namespace internal

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
    : context_(tracer, access_log, method, target),
      installer_(&context_),
      root_span_(context_.root_name),
      endpoint_(PathOnly(context_.target)) {}

RequestScope::~RequestScope() {
  // Close the root span while the context is still installed, so it lands
  // in the request-local buffer like every child span.
  root_span_.End();
  const double duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    context_.start)
          .count();
  const bool slow = context_.slow_threshold_seconds > 0.0 &&
                    duration_seconds >= context_.slow_threshold_seconds;
  if (context_.access_log != nullptr) {
    AccessLogRequest entry;
    entry.unix_seconds = context_.start_unix_seconds;
    entry.method = context_.method;
    entry.target = context_.target;
    entry.endpoint = endpoint_;
    entry.status = context_.status;
    entry.response_bytes = context_.response_bytes;
    entry.latency_seconds = duration_seconds;
    entry.trace_id = context_.trace_id;
    entry.sampled = context_.sampled || slow;
    entry.slow = slow;
    entry.stats = context_.stats;
    context_.access_log->Append(entry);
  }
  if (context_.tracer != nullptr) {
    context_.tracer->CountRequest(context_.sampled, slow);
    if (context_.sampled || slow) {
      context_.tracer->Keep(context_.ToTrace(duration_seconds, slow));
    }
  }
}

RequestStats* CurrentRequestStats() {
  internal::RequestContext* context = internal::CurrentRequestContext();
  return context == nullptr ? nullptr : &context->stats;
}

uint64_t CurrentTraceId() {
  internal::RequestContext* context = internal::CurrentRequestContext();
  return context == nullptr ? 0 : context->trace_id;
}

void ForceSampleCurrentRequest() {
  internal::RequestContext* context = internal::CurrentRequestContext();
  if (context != nullptr) context->sampled = true;
}

uint64_t CurrentSampledTraceId() {
  internal::RequestContext* context = internal::CurrentRequestContext();
  if (context == nullptr || !context->sampled) return 0;
  return context->trace_id;
}

std::string TraceIdHex(uint64_t trace_id) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return std::string(buffer, 16);
}

}  // namespace obs
}  // namespace surveyor
