#include "obs/access_log.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace surveyor {
namespace obs {
namespace {

/// A request whose strings view `endpoint`: the caller's argument lives
/// until the Append around the call returns.
AccessLogRequest MakeEntry(std::string_view endpoint, int status,
                           double latency_seconds) {
  AccessLogRequest entry;
  entry.method = "GET";
  entry.target = endpoint;
  entry.endpoint = endpoint;
  entry.status = status;
  entry.latency_seconds = latency_seconds;
  return entry;
}

TEST(AccessLogTest, AssignsSequencesOldestFirst) {
  AccessLog log(8);
  log.Append(MakeEntry("/a", 200, 0.001));
  log.Append(MakeEntry("/b", 200, 0.002));
  log.Append(MakeEntry("/c", 404, 0.003));

  const std::vector<AccessLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].endpoint, "/a");
  EXPECT_EQ(entries[1].endpoint, "/b");
  EXPECT_EQ(entries[2].endpoint, "/c");
  EXPECT_EQ(entries[0].sequence, 0);
  EXPECT_EQ(entries[1].sequence, 1);
  EXPECT_EQ(entries[2].sequence, 2);
  EXPECT_EQ(log.total_requests(), 3);
}

TEST(AccessLogTest, RingEvictsOldest) {
  AccessLog log(3);
  for (int i = 0; i < 7; ++i) {
    log.Append(MakeEntry("/n" + std::to_string(i), 200, 0.001));
  }
  const std::vector<AccessLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].endpoint, "/n4");
  EXPECT_EQ(entries[1].endpoint, "/n5");
  EXPECT_EQ(entries[2].endpoint, "/n6");
  EXPECT_EQ(entries[0].sequence, 4);
  // Counters survive eviction.
  EXPECT_EQ(log.total_requests(), 7);
  const std::vector<AccessLog::EndpointCounts> counts = log.ByEndpoint();
  int64_t total = 0;
  for (const AccessLog::EndpointCounts& count : counts) {
    total += count.requests;
  }
  EXPECT_EQ(total, 7);
}

TEST(AccessLogTest, SlowestNOrdersByLatency) {
  AccessLog log(8);
  log.Append(MakeEntry("/fast", 200, 0.001));
  log.Append(MakeEntry("/slowest", 200, 0.9));
  log.Append(MakeEntry("/medium", 200, 0.05));
  log.Append(MakeEntry("/slow", 200, 0.5));

  const std::vector<AccessLogEntry> slowest = log.SlowestN(3);
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].endpoint, "/slowest");
  EXPECT_EQ(slowest[1].endpoint, "/slow");
  EXPECT_EQ(slowest[2].endpoint, "/medium");

  // n larger than the buffer returns everything.
  EXPECT_EQ(log.SlowestN(100).size(), 4u);
}

TEST(AccessLogTest, SlowestNBreaksTiesNewestFirst) {
  AccessLog log(8);
  log.Append(MakeEntry("/old", 200, 0.1));
  log.Append(MakeEntry("/new", 200, 0.1));
  const std::vector<AccessLogEntry> slowest = log.SlowestN(2);
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].endpoint, "/new");
  EXPECT_EQ(slowest[1].endpoint, "/old");
}

TEST(AccessLogTest, CountsErrorsPerEndpoint) {
  AccessLog log(8);
  log.Append(MakeEntry("/query", 200, 0.001));
  log.Append(MakeEntry("/query", 404, 0.001));
  log.Append(MakeEntry("/query", 500, 0.001));
  log.Append(MakeEntry("/metrics", 200, 0.001));
  // 3xx is not an error.
  log.Append(MakeEntry("/metrics", 304, 0.001));

  const std::vector<AccessLog::EndpointCounts> counts = log.ByEndpoint();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].endpoint, "/metrics");
  EXPECT_EQ(counts[0].requests, 2);
  EXPECT_EQ(counts[0].errors, 0);
  EXPECT_EQ(counts[1].endpoint, "/query");
  EXPECT_EQ(counts[1].requests, 3);
  EXPECT_EQ(counts[1].errors, 2);
}

TEST(AccessLogTest, FoldsUnboundedEndpointsIntoOther) {
  AccessLog log(4);
  for (size_t i = 0; i < AccessLog::kMaxEndpoints + 10; ++i) {
    log.Append(MakeEntry("/scan" + std::to_string(i), 404, 0.001));
  }
  const std::vector<AccessLog::EndpointCounts> counts = log.ByEndpoint();
  // kMaxEndpoints distinct keys plus the "other" bucket.
  ASSERT_EQ(counts.size(), AccessLog::kMaxEndpoints + 1);
  int64_t other_requests = 0;
  for (const AccessLog::EndpointCounts& count : counts) {
    if (count.endpoint == "other") other_requests = count.requests;
  }
  EXPECT_EQ(other_requests, 10);
}

TEST(AccessLogTest, EmptyEndpointCountsAsOther) {
  AccessLog log(4);
  log.Append(MakeEntry("", 200, 0.001));
  const std::vector<AccessLog::EndpointCounts> counts = log.ByEndpoint();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].endpoint, "other");
}

TEST(AccessLogTest, ClearResetsEverything) {
  AccessLog log(4);
  log.Append(MakeEntry("/a", 500, 0.001));
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_TRUE(log.ByEndpoint().empty());
  EXPECT_EQ(log.total_requests(), 0);
  log.Append(MakeEntry("/b", 200, 0.001));
  EXPECT_EQ(log.Snapshot()[0].sequence, 0);
}

TEST(AccessLogTest, PrometheusTextListsEndpointCounters) {
  AccessLog log(4);
  log.Append(MakeEntry("/query", 200, 0.001));
  log.Append(MakeEntry("/query", 500, 0.001));
  std::string text;
  log.AppendPrometheusText(&text);
  EXPECT_NE(text.find("# TYPE surveyor_admin_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("surveyor_admin_requests_total{endpoint=\"/query\"} 2"),
            std::string::npos);
  EXPECT_NE(
      text.find("surveyor_admin_request_errors_total{endpoint=\"/query\"} 1"),
      std::string::npos);
}

TEST(AccessLogTest, PrometheusTextEmptyWhenNoTraffic) {
  AccessLog log(4);
  std::string text;
  log.AppendPrometheusText(&text);
  EXPECT_TRUE(text.empty());
}

}  // namespace
}  // namespace obs
}  // namespace surveyor
