#ifndef SURVEYOR_OBS_TRACE_H_
#define SURVEYOR_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string_view>

namespace surveyor {
namespace obs {

namespace internal {
struct RequestContext;
}  // namespace internal

/// RAII request span. While an armed RequestScope is live on this thread
/// it records into that request's local span buffer: ids count from 1
/// within the trace, the parent is the request's innermost open span, and
/// nothing is locked, allocated or written outside the request (start
/// times relative to the request start). Outside a request the
/// constructor is one thread-local read and the span records nothing.
/// `name` is viewed, not copied: it must outlive the span (a literal
/// does).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early (idempotent); the destructor becomes a no-op.
  void End();

 private:
  /// The request this span records into; nullptr when not recording.
  internal::RequestContext* request_ = nullptr;
  uint32_t id_ = 0;
  uint32_t parent_id_ = 0;
  std::string_view name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace surveyor

#define SURVEYOR_SPAN_CONCAT_INNER(a, b) a##b
#define SURVEYOR_SPAN_CONCAT(a, b) SURVEYOR_SPAN_CONCAT_INNER(a, b)

/// Declares an RAII request span covering the rest of the scope:
///   SURVEYOR_SPAN("query_service.point");
#define SURVEYOR_SPAN(name) \
  ::surveyor::obs::ScopedSpan SURVEYOR_SPAN_CONCAT(_surveyor_span_, \
                                                   __LINE__)(name)

#endif  // SURVEYOR_OBS_TRACE_H_
