#include "obs/admin_server.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define SURVEYOR_TEST_HAVE_SOCKETS 1
#endif

#include "gtest/gtest.h"
#include "obs/log_ring.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/stage.h"

namespace surveyor {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Socketless dispatch tests via Handle().

TEST(AdminServerHandleTest, HealthzAlwaysOk) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr);
  const AdminResponse response = server.Handle("GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

TEST(AdminServerHandleTest, HealthzReportsDegradedButStays200) {
  MetricRegistry registry;
  StageTracker stage;
  AdminServer server(&registry, &stage, nullptr);
  EXPECT_EQ(server.Handle("GET", "/healthz").body, "ok\n");

  // Degraded is informational: the process is still healthy, so liveness
  // probes must not restart it.
  stage.SetDegraded(true);
  AdminResponse response = server.Handle("GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "degraded\n");

  stage.SetDegraded(false);
  EXPECT_EQ(server.Handle("GET", "/healthz").body, "ok\n");
}

TEST(AdminServerHandleTest, StatuszCarriesTheDegradedFlag) {
  MetricRegistry registry;
  StageTracker stage;
  AdminServer server(&registry, &stage, nullptr);
  EXPECT_NE(server.Handle("GET", "/statusz").body.find("\"degraded\":false"),
            std::string::npos);
  stage.SetDegraded(true);
  EXPECT_NE(server.Handle("GET", "/statusz").body.find("\"degraded\":true"),
            std::string::npos);
}

TEST(AdminServerHandleTest, ReadyzFollowsStageMachine) {
  MetricRegistry registry;
  StageTracker stage;
  AdminServer server(&registry, &stage, nullptr);

  AdminResponse response = server.Handle("GET", "/readyz");
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.body, "starting\n");

  stage.SetStage(PipelineStage::kExtracting);
  EXPECT_EQ(server.Handle("GET", "/readyz").status, 503);
  EXPECT_EQ(server.Handle("GET", "/readyz").body, "extracting\n");

  stage.SetStage(PipelineStage::kFitting);
  EXPECT_EQ(server.Handle("GET", "/readyz").status, 503);

  stage.SetStage(PipelineStage::kServing);
  response = server.Handle("GET", "/readyz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "serving\n");

  stage.SetStage(PipelineStage::kDone);
  EXPECT_EQ(server.Handle("GET", "/readyz").status, 200);
}

TEST(AdminServerHandleTest, ReadyzWithoutTrackerReportsOk) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr);
  EXPECT_EQ(server.Handle("GET", "/readyz").status, 200);
}

TEST(AdminServerHandleTest, MetricsServesRegistryAndLogCounters) {
  MetricRegistry registry;
  registry.GetCounter("surveyor_extraction_documents_total")->Increment(7);
  LogRing ring;
  ring.Append(LogSeverity::kWarning, "careful");
  AdminServer server(&registry, nullptr, &ring);

  const AdminResponse response = server.Handle("GET", "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(response.body.find("surveyor_extraction_documents_total 7"),
            std::string::npos);
  EXPECT_NE(
      response.body.find("surveyor_log_messages_total{severity=\"warning\"} 1"),
      std::string::npos);
}

TEST(AdminServerHandleTest, MetricsJsonIsServed) {
  MetricRegistry registry;
  registry.GetCounter("surveyor_x_total")->Increment(3);
  AdminServer server(&registry, nullptr, nullptr);
  const AdminResponse response = server.Handle("GET", "/metrics.json");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"surveyor_x_total\""), std::string::npos);
}

TEST(AdminServerHandleTest, StatuszReportsStageSeconds) {
  MetricRegistry registry;
  StageTracker stage;
  stage.SetStage(PipelineStage::kExtracting);
  AdminServer server(&registry, &stage, nullptr);

  const AdminResponse response = server.Handle("GET", "/statusz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"stage\":\"extracting\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"stage_seconds\""), std::string::npos);
  // The stage is the live view of a run; no span list repeats it.
  EXPECT_EQ(response.body.find("active_spans"), std::string::npos);
}

TEST(AdminServerHandleTest, LogzServesNewestLines) {
  MetricRegistry registry;
  LogRing ring(128);
  for (int i = 0; i < 20; ++i) {
    ring.Append(LogSeverity::kInfo, "line " + std::to_string(i));
  }
  AdminServerOptions options;
  options.max_log_lines = 5;
  AdminServer server(&registry, nullptr, &ring, options);
  const AdminResponse response = server.Handle("GET", "/logz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.find("line 14"), std::string::npos);
  EXPECT_NE(response.body.find("line 15"), std::string::npos);
  EXPECT_NE(response.body.find("line 19"), std::string::npos);
}

TEST(AdminServerHandleTest, UnknownPathIs404AndBadMethodIs405) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr);
  EXPECT_EQ(server.Handle("GET", "/nope").status, 404);
  EXPECT_EQ(server.Handle("POST", "/metrics").status, 405);
  EXPECT_EQ(server.Handle("GET", "/").status, 200);
  // An unknown path is a 404 in the error envelope whatever the method;
  // 405 is only for the read-only built-in pages.
  const AdminResponse unknown = server.Handle("POST", "/nope");
  EXPECT_EQ(unknown.status, 404);
  EXPECT_EQ(unknown.content_type, "application/json");
  EXPECT_NE(unknown.body.find("{\"error\":{\"code\":\"not_found\""),
            std::string::npos)
      << unknown.body;
  // Query strings are ignored for routing.
  EXPECT_EQ(server.Handle("GET", "/healthz?verbose=1").status, 200);
}

// ---------------------------------------------------------------------------
// Request tracing: /tracez, /requestz, per-endpoint counters.

AdminServerOptions AlwaysTraceOptions() {
  AdminServerOptions options;
  options.trace_sample_rate = 1.0;
  options.slow_query_ms = 0.0;
  return options;
}

TEST(AdminServerTracezTest, ServesRetainedTracesAsJson) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr, AlwaysTraceOptions());
  EXPECT_EQ(server.Handle("GET", "/healthz").status, 200);

  const AdminResponse response = server.Handle("GET", "/tracez");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"requests_started\":1"), std::string::npos);
  EXPECT_NE(response.body.find("\"requests_sampled\":1"), std::string::npos);
  EXPECT_NE(response.body.find("\"target\":\"/healthz\""), std::string::npos);
  EXPECT_NE(response.body.find("\"sampled\":true"), std::string::npos);
  EXPECT_NE(response.body.find("\"status\":200"), std::string::npos);
  // The root span "GET /healthz" is in the span tree.
  EXPECT_NE(response.body.find("\"name\":\"GET /healthz\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"children\":["), std::string::npos);
}

TEST(AdminServerTracezTest, TextFormatRendersSpanTree) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr, AlwaysTraceOptions());
  EXPECT_EQ(server.Handle("GET", "/metrics").status, 200);

  const AdminResponse response =
      server.Handle("GET", "/tracez?format=text");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("trace "), std::string::npos);
  EXPECT_NE(response.body.find("GET /metrics status=200"),
            std::string::npos);
  EXPECT_NE(response.body.find(" sampled"), std::string::npos);
  EXPECT_NE(response.body.find("  GET /metrics "), std::string::npos);
}

TEST(AdminServerTracezTest, EmptyRingSaysSo) {
  MetricRegistry registry;
  AdminServerOptions options;
  options.trace_sample_rate = 0.0;
  options.slow_query_ms = 0.0;
  AdminServer server(&registry, nullptr, nullptr, options);
  EXPECT_EQ(server.Handle("GET", "/healthz").status, 200);
  EXPECT_EQ(server.Handle("GET", "/tracez?format=text").body,
            "no traces retained yet\n");
}

TEST(AdminServerTracezTest, SlowQueryTailCaptureWithoutSampling) {
  MetricRegistry registry;
  AdminServerOptions options;
  options.trace_sample_rate = 0.0;
  options.slow_query_ms = 1e-6;  // everything is "slow"
  AdminServer server(&registry, nullptr, nullptr, options);
  EXPECT_EQ(server.Handle("GET", "/healthz").status, 200);
  const AdminResponse response = server.Handle("GET", "/tracez");
  EXPECT_NE(response.body.find("\"slow\":true"), std::string::npos);
  EXPECT_NE(response.body.find("\"sampled\":false"), std::string::npos);
}

TEST(AdminServerRequestzTest, LogsEveryRequestNewestFirst) {
  MetricRegistry registry;
  // Sampling fully off: the access log still sees everything.
  AdminServerOptions options;
  options.trace_sample_rate = 0.0;
  options.slow_query_ms = 0.0;
  AdminServer server(&registry, nullptr, nullptr, options);
  EXPECT_EQ(server.Handle("GET", "/healthz").status, 200);
  EXPECT_EQ(server.Handle("GET", "/nope").status, 404);

  const AdminResponse response = server.Handle("GET", "/requestz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  // Newest first: /nope (the 404) before /healthz. /requestz itself is
  // logged only on completion, so it is absent from its own response.
  const size_t nope = response.body.find("\"target\":\"/nope\"");
  const size_t healthz = response.body.find("\"target\":\"/healthz\"");
  ASSERT_NE(nope, std::string::npos);
  ASSERT_NE(healthz, std::string::npos);
  EXPECT_LT(nope, healthz);
  EXPECT_NE(response.body.find("\"status\":404"), std::string::npos);
  EXPECT_NE(response.body.find("\"total_requests\":2"), std::string::npos);
}

TEST(AdminServerRequestzTest, SlowestNAndTextFormat) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr, AlwaysTraceOptions());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(server.Handle("GET", "/healthz").status, 200);
  }
  AdminResponse response = server.Handle("GET", "/requestz?slowest=2");
  // Exactly 2 entries, slowest first.
  size_t count = 0;
  for (size_t pos = response.body.find("\"sequence\"");
       pos != std::string::npos;
       pos = response.body.find("\"sequence\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);

  response = server.Handle("GET", "/requestz?format=text&n=3");
  EXPECT_NE(response.body.find("GET /healthz status=200"),
            std::string::npos);
  EXPECT_NE(response.body.find(" trace="), std::string::npos);
}

TEST(AdminServerRequestzTest, RequestzLimitParameter) {
  MetricRegistry registry;
  AdminServerOptions options;
  options.trace_sample_rate = 0.0;
  options.slow_query_ms = 0.0;
  AdminServer server(&registry, nullptr, nullptr, options);
  for (int i = 0; i < 6; ++i) server.Handle("GET", "/healthz");
  const AdminResponse response = server.Handle("GET", "/requestz?n=2");
  size_t count = 0;
  for (size_t pos = response.body.find("\"sequence\"");
       pos != std::string::npos;
       pos = response.body.find("\"sequence\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_NE(response.body.find("\"total_requests\":6"), std::string::npos);
}

TEST(AdminServerMetricsTest, ExposesPerEndpointAndTracerCounters) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr, AlwaysTraceOptions());
  server.Handle("GET", "/healthz");
  server.Handle("GET", "/healthz");
  server.Handle("GET", "/missing");  // 404 -> error under "other"

  const AdminResponse response = server.Handle("GET", "/metrics");
  EXPECT_NE(response.body.find(
                "surveyor_admin_requests_total{endpoint=\"/healthz\"} 2"),
            std::string::npos);
  EXPECT_NE(response.body.find(
                "surveyor_admin_requests_total{endpoint=\"other\"} 1"),
            std::string::npos);
  EXPECT_NE(
      response.body.find(
          "surveyor_admin_request_errors_total{endpoint=\"other\"} 1"),
      std::string::npos);
  EXPECT_NE(response.body.find("surveyor_trace_requests_total 3"),
            std::string::npos);
  EXPECT_NE(response.body.find("surveyor_trace_requests_sampled_total 3"),
            std::string::npos);
  EXPECT_NE(response.body.find("surveyor_traces_kept_total 3"),
            std::string::npos);
}

TEST(AdminServerMetricsTest, RegisteredHandlerCountsUnderItsPrefix) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr, AlwaysTraceOptions());
  server.AddHandler("/query", [](std::string_view, std::string_view,
                                 std::string_view) {
    AdminResponse response;
    response.body = "result\n";
    return response;
  });
  server.Handle("GET", "/query?entity=berlin");
  server.Handle("GET", "/query?entity=paris");

  const AdminResponse response = server.Handle("GET", "/metrics");
  EXPECT_NE(response.body.find(
                "surveyor_admin_requests_total{endpoint=\"/query\"} 2"),
            std::string::npos);
}

TEST(AdminServerTracezTest, DisabledAccessLogStillTraces) {
  MetricRegistry registry;
  AdminServerOptions options = AlwaysTraceOptions();
  options.access_log_capacity = 0;
  AdminServer server(&registry, nullptr, nullptr, options);
  server.Handle("GET", "/healthz");
  EXPECT_NE(server.Handle("GET", "/tracez").body.find("\"target\":\"/healthz\""),
            std::string::npos);
  // /requestz is empty (the log is disabled), but serves cleanly.
  EXPECT_EQ(server.Handle("GET", "/requestz?format=text").body,
            "no requests logged yet\n");
}

// ---------------------------------------------------------------------------
// Build info (/statusz) and the profiler endpoint (/profilez).

TEST(AdminServerBuildInfoTest, StatuszLeadsWithBuildInfo) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr);
  const std::string body = server.Handle("GET", "/statusz").body;
  for (const char* key : {"\"build_info\"", "\"git_sha\"", "\"compiler\"",
                          "\"build_type\"", "\"sanitizer\""}) {
    EXPECT_NE(body.find(key), std::string::npos) << key << " missing: " << body;
  }
}

TEST(AdminServerProfilezTest, RejectsBadSeconds) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr);
  for (const char* target :
       {"/profilez?seconds=0", "/profilez?seconds=-1", "/profilez?seconds=31",
        "/profilez?seconds=abc"}) {
    const AdminResponse response = server.Handle("GET", target);
    EXPECT_EQ(response.status, 400) << target;
    EXPECT_NE(response.body.find("seconds"), std::string::npos) << target;
  }
}

TEST(AdminServerProfilezTest, RejectsUnknownFormat) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr);
  const AdminResponse response =
      server.Handle("GET", "/profilez?seconds=0.1&format=xml");
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(response.body, "format must be folded or json\n");
}

TEST(AdminServerProfilezTest, ServesAWindowOr501WhenUnsupported) {
  MetricRegistry registry;
  AdminServerOptions options;
  options.profiler_metrics = &registry;
  AdminServer server(&registry, nullptr, nullptr, options);
  const AdminResponse response =
      server.Handle("GET", "/profilez?seconds=0.2");
  if (!Profiler::SupportedOnThisBuild()) {
    EXPECT_EQ(response.status, 501);
    return;
  }
  ASSERT_EQ(response.status, 200) << response.body;
  // Folded output (possibly the "# no samples" placeholder if the process
  // was idle for the whole window): every line is "stack count" or a
  // comment, never empty.
  EXPECT_FALSE(response.body.empty());
  EXPECT_EQ(response.body.back(), '\n');

  const AdminResponse json =
      server.Handle("GET", "/profilez?seconds=0.2&format=json");
  ASSERT_EQ(json.status, 200) << json.body;
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_NE(json.body.find("\"build_info\""), std::string::npos);
  EXPECT_NE(json.body.find("\"stage_attribution\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Real-socket tests.

#ifdef SURVEYOR_TEST_HAVE_SOCKETS

/// Minimal blocking HTTP GET against 127.0.0.1:port; returns the full
/// response (head + body) or "" on connection failure.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[2048];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(AdminServerSocketTest, ScrapesMetricsWhileWorkersIncrement) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("surveyor_extraction_statements_total");
  AdminServer server(&registry, nullptr, nullptr);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // Hammer the counter from workers while scraping over a real socket —
  // the situation the admin plane exists for. Each worker's work is
  // bounded: four unbounded spinners could starve the server thread on a
  // loaded machine until a scrape timed out.
  constexpr int kIncrementsPerWorker = 250000;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([counter] {
      for (int i = 0; i < kIncrementsPerWorker; ++i) counter->Increment();
    });
  }
  // The last scrape must see a positive value.
  while (counter->Value() == 0) std::this_thread::yield();
  std::string last;
  for (int i = 0; i < 10; ++i) {
    last = HttpGet(server.port(), "/metrics");
    ASSERT_FALSE(last.empty());
    EXPECT_NE(last.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(last.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(last.find("# TYPE surveyor_extraction_statements_total counter"),
              std::string::npos);
  }
  for (std::thread& worker : workers) worker.join();

  // The scraped value is a well-formed integer on its own sample line.
  const size_t pos = last.rfind("surveyor_extraction_statements_total ");
  ASSERT_NE(pos, std::string::npos);
  const long long scraped = std::stoll(
      last.substr(pos + std::string("surveyor_extraction_statements_total ")
                            .size()));
  EXPECT_GT(scraped, 0);
  EXPECT_LE(scraped, counter->Value());
  server.Stop();
}

TEST(AdminServerSocketTest, HealthzAndReadyzOverSocket) {
  MetricRegistry registry;
  StageTracker stage;
  AdminServer server(&registry, &stage, nullptr);
  ASSERT_TRUE(server.Start().ok());

  EXPECT_NE(HttpGet(server.port(), "/healthz").find("HTTP/1.1 200 OK"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/readyz").find("HTTP/1.1 503"),
            std::string::npos);
  stage.SetStage(PipelineStage::kDone);
  EXPECT_NE(HttpGet(server.port(), "/readyz").find("HTTP/1.1 200 OK"),
            std::string::npos);
  server.Stop();
}

TEST(AdminServerSocketTest, StopIsIdempotentAndRestartable) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr);
  ASSERT_TRUE(server.Start().ok());
  const int first_port = server.port();
  EXPECT_FALSE(server.Start().ok());  // already running
  server.Stop();
  server.Stop();  // idempotent
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(HttpGet(server.port(), "/healthz").find("200 OK") !=
              std::string::npos);
  server.Stop();
  (void)first_port;
}

TEST(AdminServerSocketTest, MalformedRequestDoesNotWedgeTheServer) {
  MetricRegistry registry;
  AdminServer server(&registry, nullptr, nullptr);
  ASSERT_TRUE(server.Start().ok());

  // A client that connects and immediately disconnects.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ::close(fd);
  }
  // The next well-formed request still succeeds.
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("200 OK"),
            std::string::npos);
  server.Stop();
}

TEST(AdminServerSocketTest, ScrapesTracezAndRequestzMidLoad) {
  MetricRegistry registry;
  AdminServerOptions options;
  options.trace_sample_rate = 1.0;
  options.slow_query_ms = 0.0;
  AdminServer server(&registry, nullptr, nullptr, options);
  ASSERT_TRUE(server.Start().ok());

  // Load generators hammer /healthz over real sockets while we scrape the
  // tracing endpoints — the exact situation /tracez exists for.
  std::atomic<bool> stop{false};
  const int port = server.port();
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([port, &stop] {
      while (!stop.load()) {
        if (HttpGet(port, "/healthz").empty()) break;
      }
    });
  }

  bool saw_trace = false;
  bool saw_request = false;
  for (int i = 0; i < 20 && !(saw_trace && saw_request); ++i) {
    const std::string tracez = HttpGet(port, "/tracez");
    EXPECT_NE(tracez.find("HTTP/1.1 200 OK"), std::string::npos);
    if (tracez.find("\"sampled\":true") != std::string::npos) {
      saw_trace = true;
    }
    const std::string requestz = HttpGet(port, "/requestz");
    EXPECT_NE(requestz.find("HTTP/1.1 200 OK"), std::string::npos);
    if (requestz.find("\"target\":\"/healthz\"") != std::string::npos) {
      saw_request = true;
    }
  }
  stop.store(true);
  for (std::thread& client : clients) client.join();
  server.Stop();

  EXPECT_TRUE(saw_trace);
  EXPECT_TRUE(saw_request);
  EXPECT_GT(server.request_tracer().requests_sampled(), 0);
  EXPECT_GT(server.access_log().total_requests(), 0);
}

#endif  // SURVEYOR_TEST_HAVE_SOCKETS

}  // namespace
}  // namespace obs
}  // namespace surveyor
