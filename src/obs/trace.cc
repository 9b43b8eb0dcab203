#include "obs/trace.h"

#include "obs/request_trace.h"

namespace surveyor {
namespace obs {

ScopedSpan::ScopedSpan(std::string_view name) {
  internal::RequestContext* request = internal::CurrentRequestContext();
  if (request == nullptr || !request->recording) return;
  request_ = request;
  name_ = name;
  id_ = ++request->last_span_id;
  parent_id_ = request->current_span;
  request->current_span = id_;
  start_ = std::chrono::steady_clock::now();
}

void ScopedSpan::End() {
  if (request_ == nullptr) return;
  internal::RequestContext* request = request_;
  request_ = nullptr;
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  // Record only while the owning RequestScope is still installed on this
  // thread; a span that outlives its request has nowhere to go.
  if (internal::CurrentRequestContext() != request) return;
  request->current_span = parent_id_;
  request->RecordSpan({name_, id_, parent_id_, start_, seconds});
}

}  // namespace obs
}  // namespace surveyor
