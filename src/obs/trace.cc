#include "obs/trace.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace surveyor {
namespace obs {
namespace {

/// Innermost live span on this thread; 0 at top level.
thread_local uint64_t tls_current_span = 0;

double SecondsSince(std::chrono::steady_clock::time_point from,
                    std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetCapacity(size_t capacity) {
  MutexLock lock(mutex_);
  capacity_ = capacity;
  if (spans_.size() > capacity_) spans_.resize(capacity_);
}

void Tracer::Clear() {
  MutexLock lock(mutex_);
  spans_.clear();
  active_.clear();
  next_id_.store(1, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
}

std::chrono::steady_clock::time_point Tracer::epoch() const {
  MutexLock lock(mutex_);
  return epoch_;
}

void Tracer::Record(TraceSpan span) {
  MutexLock lock(mutex_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(std::move(span));
}

void Tracer::RegisterActive(ActiveSpan span) {
  MutexLock lock(mutex_);
  active_.push_back(std::move(span));
}

void Tracer::UnregisterActive(uint64_t id) {
  MutexLock lock(mutex_);
  for (size_t i = 0; i < active_.size(); ++i) {
    if (active_[i].id != id) continue;
    active_.erase(active_.begin() + static_cast<ptrdiff_t>(i));
    return;
  }
}

std::vector<ActiveSpan> Tracer::ActiveSpans() const {
  std::vector<ActiveSpan> active;
  {
    MutexLock lock(mutex_);
    active = active_;
  }
  std::sort(active.begin(), active.end(),
            [](const ActiveSpan& a, const ActiveSpan& b) {
              if (a.thread_index != b.thread_index) {
                return a.thread_index < b.thread_index;
              }
              return a.start_seconds < b.start_seconds;
            });
  return active;
}

std::vector<TraceSpan> Tracer::Snapshot() const {
  std::vector<TraceSpan> spans;
  {
    MutexLock lock(mutex_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.start_seconds != b.start_seconds) {
                return a.start_seconds < b.start_seconds;
              }
              return a.id < b.id;
            });
  return spans;
}

uint64_t CurrentSpanId() { return tls_current_span; }

void ScopedSpan::Start(std::string_view name, uint64_t parent_id) {
  internal::RequestContext* request = internal::CurrentRequestContext();
  if (request != nullptr && request->recording) {
    // Request spans stay request-local: recorded into the scope's buffer
    // on End(), with request-local ids, no ActiveSpan registration and
    // no global-tracer contention on the serving path.
    recording_ = true;
    request_ = request;
    name_ = name;
    id_ = ++request->last_span_id;
    parent_id_for_record_ = request->current_span;
    request->current_span = static_cast<uint32_t>(id_);
    start_ = std::chrono::steady_clock::now();
    return;
  }
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  recording_ = true;
  restore_parent_ = true;
  id_ = tracer.NextId();
  saved_parent_ = tls_current_span;
  tls_current_span = id_;
  name_ = name;
  // Stash the parent in the saved slot only for linkage; the span record
  // carries the explicit parent.
  parent_id_for_record_ = parent_id;
  start_ = std::chrono::steady_clock::now();
  ActiveSpan active;
  active.id = id_;
  active.parent_id = parent_id;
  active.name = std::string(name_);
  active.thread_index = CurrentThreadIndex();
  active.start_seconds = SecondsSince(tracer.epoch(), start_);
  tracer.RegisterActive(std::move(active));
}

ScopedSpan::ScopedSpan(std::string_view name) {
  Start(name, tls_current_span);
}

ScopedSpan::ScopedSpan(std::string_view name, uint64_t parent_id) {
  Start(name, parent_id);
}

void ScopedSpan::End() {
  if (restore_parent_) {
    tls_current_span = saved_parent_;
    restore_parent_ = false;
  }
  if (!recording_) return;
  recording_ = false;
  const auto now = std::chrono::steady_clock::now();
  final_seconds_ = SecondsSince(start_, now);
  if (request_ != nullptr) {
    internal::RequestContext* request = request_;
    request_ = nullptr;
    // Record only while the owning RequestScope is still installed on
    // this thread; a span that outlives its request has nowhere to go.
    if (internal::CurrentRequestContext() != request) return;
    request->current_span = static_cast<uint32_t>(parent_id_for_record_);
    request->RecordSpan({name_, static_cast<uint32_t>(id_),
                         static_cast<uint32_t>(parent_id_for_record_), start_,
                         final_seconds_});
    return;
  }
  Tracer& tracer = Tracer::Global();
  tracer.UnregisterActive(id_);
  TraceSpan span;
  span.id = id_;
  span.parent_id = parent_id_for_record_;
  span.name = std::string(name_);
  span.thread_index = CurrentThreadIndex();
  span.start_seconds = SecondsSince(tracer.epoch(), start_);
  span.duration_seconds = final_seconds_;
  tracer.Record(std::move(span));
}

ScopedSpan::~ScopedSpan() { End(); }

double ScopedSpan::ElapsedSeconds() const {
  if (recording_) {
    return SecondsSince(start_, std::chrono::steady_clock::now());
  }
  return final_seconds_;
}

TraceSession::TraceSession(Tracer& tracer)
    : tracer_(&tracer), previous_enabled_(tracer.enabled()) {
  tracer_->Clear();
  tracer_->SetEnabled(true);
}

TraceSession::~TraceSession() { tracer_->SetEnabled(previous_enabled_); }

}  // namespace obs
}  // namespace surveyor
