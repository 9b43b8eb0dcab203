#ifndef SURVEYOR_OBS_ACCESS_LOG_H_
#define SURVEYOR_OBS_ACCESS_LOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/request_trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace surveyor {
namespace obs {

/// One completed request as the access log saw it. Written by
/// ~RequestScope for every request (sampled or not), so /requestz shows
/// the full recent traffic while /tracez only shows retained traces.
/// `String` is std::string for the entries the log keeps and hands out
/// (AccessLogEntry), std::string_view for the request Append copies from
/// (AccessLogRequest).
template <typename String>
struct BasicAccessLogEntry {
  /// Monotonically increasing across the log's lifetime; gaps mean the
  /// ring evicted entries in between. Assigned by Append.
  int64_t sequence = 0;
  /// Wall-clock completion time (unix seconds), for display only.
  double unix_seconds = 0.0;
  String method;
  /// Request target (path + query), truncated to a bounded length.
  String target;
  /// Normalized endpoint the per-endpoint counters aggregate under.
  String endpoint;
  int status = 0;
  size_t response_bytes = 0;
  double latency_seconds = 0.0;
  uint64_t trace_id = 0;
  /// Whether /tracez retained the trace (head-sampled or slow).
  bool sampled = false;
  bool slow = false;
  RequestStats stats;
};
using AccessLogEntry = BasicAccessLogEntry<std::string>;
using AccessLogRequest = BasicAccessLogEntry<std::string_view>;

/// Bounded structured access log plus per-endpoint request/error counters
/// for the admin plane and the /v1 API it serves. Thread-safe: every
/// request appends under one mutex, so an append is kept short — it
/// copies three short strings into a ring slot whose strings keep their
/// capacity, and finds its endpoint counter without building a key, so a
/// warm log appends without allocating.
class AccessLog {
 public:
  explicit AccessLog(size_t capacity = kDefaultCapacity);
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Appends one request (assigning its sequence number), overwriting the
  /// oldest entry when full, and bumps the endpoint counters. The
  /// request's views are copied before Append returns.
  void Append(const AccessLogRequest& request) SURVEYOR_EXCLUDES(mutex_);

  /// The buffered entries, oldest first.
  std::vector<AccessLogEntry> Snapshot() const SURVEYOR_EXCLUDES(mutex_);

  /// The `n` buffered entries with the highest latency, slowest first
  /// (ties broken newest first).
  std::vector<AccessLogEntry> SlowestN(size_t n) const
      SURVEYOR_EXCLUDES(mutex_);

  /// Requests appended across the log's lifetime (including evicted).
  int64_t total_requests() const SURVEYOR_EXCLUDES(mutex_);

  /// (endpoint, requests, errors) sorted by endpoint. An error is any
  /// response with status >= 400.
  struct EndpointCounts {
    std::string endpoint;
    int64_t requests = 0;
    int64_t errors = 0;
  };
  std::vector<EndpointCounts> ByEndpoint() const SURVEYOR_EXCLUDES(mutex_);

  /// Drops all entries and resets counters and sequence numbers.
  void Clear() SURVEYOR_EXCLUDES(mutex_);

  /// Appends Prometheus exposition for the per-endpoint counters:
  ///   surveyor_admin_requests_total{endpoint="/metrics"} 12
  ///   surveyor_admin_request_errors_total{endpoint="/metrics"} 0
  void AppendPrometheusText(std::string* out) const
      SURVEYOR_EXCLUDES(mutex_);

  static constexpr size_t kDefaultCapacity = 512;
  /// Distinct endpoints tracked before new ones fold into "other" — the
  /// counter map must not grow without bound on 404 scans.
  static constexpr size_t kMaxEndpoints = 64;

 private:
  struct Counts {
    int64_t requests = 0;
    int64_t errors = 0;
  };

  const size_t capacity_;
  mutable Mutex mutex_;
  /// Ring of entries; once full, `next_slot_` is the oldest and is
  /// overwritten next.
  std::vector<AccessLogEntry> entries_ SURVEYOR_GUARDED_BY(mutex_);
  size_t next_slot_ SURVEYOR_GUARDED_BY(mutex_) = 0;
  int64_t next_sequence_ SURVEYOR_GUARDED_BY(mutex_) = 0;
  std::map<std::string, Counts, std::less<>> by_endpoint_
      SURVEYOR_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace surveyor

#endif  // SURVEYOR_OBS_ACCESS_LOG_H_
