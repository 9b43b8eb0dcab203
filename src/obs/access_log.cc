#include "obs/access_log.h"

#include <algorithm>

#include "obs/metrics.h"

namespace surveyor {
namespace obs {

AccessLog::AccessLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  MutexLock lock(mutex_);
  entries_.reserve(std::min<size_t>(capacity_, kDefaultCapacity));
}

void AccessLog::Append(const AccessLogRequest& request) {
  MutexLock lock(mutex_);
  // Counter-map growth is bounded: beyond kMaxEndpoints distinct
  // endpoints, new ones aggregate under "other" (a 404 scan must not grow
  // memory without bound).
  std::string_view key = request.endpoint.empty() ? "other" : request.endpoint;
  auto it = by_endpoint_.find(key);
  if (it == by_endpoint_.end() && by_endpoint_.size() >= kMaxEndpoints) {
    key = "other";
    it = by_endpoint_.find(key);
  }
  if (it == by_endpoint_.end()) {
    it = by_endpoint_.emplace(std::string(key), Counts{}).first;
  }
  it->second.requests += 1;
  if (request.status >= 400) it->second.errors += 1;

  AccessLogEntry* slot;
  if (entries_.size() < capacity_) {
    slot = &entries_.emplace_back();
  } else {
    slot = &entries_[next_slot_];
    next_slot_ = (next_slot_ + 1) % capacity_;
  }
  // assign() reuses the capacity the slot's strings grew for the entry
  // they held before.
  slot->sequence = next_sequence_++;
  slot->unix_seconds = request.unix_seconds;
  slot->method.assign(request.method);
  slot->target.assign(request.target);
  slot->endpoint.assign(request.endpoint);
  slot->status = request.status;
  slot->response_bytes = request.response_bytes;
  slot->latency_seconds = request.latency_seconds;
  slot->trace_id = request.trace_id;
  slot->sampled = request.sampled;
  slot->slow = request.slow;
  slot->stats = request.stats;
}

std::vector<AccessLogEntry> AccessLog::Snapshot() const {
  MutexLock lock(mutex_);
  std::vector<AccessLogEntry> entries;
  entries.reserve(entries_.size());
  // Oldest first: once the ring has wrapped, next_slot_ is the oldest.
  const size_t n = entries_.size();
  const size_t oldest = n < capacity_ ? 0 : next_slot_;
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(entries_[(oldest + i) % n]);
  }
  return entries;
}

std::vector<AccessLogEntry> AccessLog::SlowestN(size_t n) const {
  std::vector<AccessLogEntry> entries = Snapshot();
  std::sort(entries.begin(), entries.end(),
            [](const AccessLogEntry& a, const AccessLogEntry& b) {
              if (a.latency_seconds != b.latency_seconds) {
                return a.latency_seconds > b.latency_seconds;
              }
              return a.sequence > b.sequence;
            });
  if (entries.size() > n) entries.resize(n);
  return entries;
}

int64_t AccessLog::total_requests() const {
  MutexLock lock(mutex_);
  return next_sequence_;
}

std::vector<AccessLog::EndpointCounts> AccessLog::ByEndpoint() const {
  MutexLock lock(mutex_);
  std::vector<EndpointCounts> counts;
  counts.reserve(by_endpoint_.size());
  for (const auto& [endpoint, c] : by_endpoint_) {
    counts.push_back({endpoint, c.requests, c.errors});
  }
  return counts;
}

void AccessLog::Clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  next_slot_ = 0;
  next_sequence_ = 0;
  by_endpoint_.clear();
}

void AccessLog::AppendPrometheusText(std::string* out) const {
  const std::vector<EndpointCounts> counts = ByEndpoint();
  if (counts.empty()) return;
  *out +=
      "# HELP surveyor_admin_requests_total Admin-plane requests handled, "
      "by endpoint.\n";
  *out += "# TYPE surveyor_admin_requests_total counter\n";
  for (const EndpointCounts& c : counts) {
    *out += "surveyor_admin_requests_total{endpoint=\"" +
            EscapeLabelValue(c.endpoint) + "\"} " +
            std::to_string(c.requests) + "\n";
  }
  *out +=
      "# HELP surveyor_admin_request_errors_total Admin-plane responses "
      "with status >= 400, by endpoint.\n";
  *out += "# TYPE surveyor_admin_request_errors_total counter\n";
  for (const EndpointCounts& c : counts) {
    *out += "surveyor_admin_request_errors_total{endpoint=\"" +
            EscapeLabelValue(c.endpoint) + "\"} " +
            std::to_string(c.errors) + "\n";
  }
}

}  // namespace obs
}  // namespace surveyor
