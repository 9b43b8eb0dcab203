#include "serving/query_service.h"

#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define SURVEYOR_TEST_HAVE_SOCKETS 1
#endif

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "gtest/gtest.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/stage.h"
#include "serving/opinion_index.h"
#include "serving/snapshot.h"
#include "surveyor/api.h"
#include "util/fault.h"

namespace surveyor {
namespace serving {
namespace {

SnapshotOpinion MakeOpinion(const std::string& entity, const std::string& type,
                            const std::string& property, double posterior,
                            Polarity polarity) {
  SnapshotOpinion opinion;
  opinion.entity = entity;
  opinion.type = type;
  opinion.property = property;
  opinion.posterior = posterior;
  opinion.polarity = polarity;
  return opinion;
}

/// Fixture with a loaded index and a service that is already "ready".
/// Environment-armed chaos faults (the CI chaos job) are disarmed for the
/// fixture's scope — tests that want a fault arm their own ScopedFaults.
class QueryServiceTest : public testing::Test {
 protected:
  QueryServiceTest() {
    SnapshotWriter writer;
    EXPECT_TRUE(writer
                    .Add(MakeOpinion("kitten", "animal", "cute", 0.97,
                                     Polarity::kPositive))
                    .ok());
    EXPECT_TRUE(writer
                    .Add(MakeOpinion("koala", "animal", "cute", 0.91,
                                     Polarity::kPositive))
                    .ok());
    EXPECT_TRUE(writer
                    .Add(MakeOpinion("spider", "animal", "scary", 0.95,
                                     Polarity::kPositive))
                    .ok());
    path_ = testing::TempDir() + "/query_service.surv";
    EXPECT_TRUE(writer.WriteToFile(path_).ok());
    EXPECT_TRUE(index_.Load(path_).ok());
    stage_.SetStage(obs::PipelineStage::kServing);
  }

  ScopedFaults disarm_{""};
  std::string path_;
  OpinionIndex index_;
  obs::StageTracker stage_;
  obs::MetricRegistry metrics_;
};

TEST_F(QueryServiceTest, PointQueryReturnsJson) {
  QueryService service(&index_, &stage_, &metrics_);
  const obs::AdminResponse response =
      service.Handle("GET", "/v1/query?entity=kitten&property=cute", "");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"entity\":\"kitten\""), std::string::npos);
  EXPECT_NE(response.body.find("\"polarity\":\"+\""), std::string::npos);
  EXPECT_NE(response.body.find("\"posterior\":0.97"), std::string::npos);
}

TEST_F(QueryServiceTest, MissIs404WithJsonError) {
  QueryService service(&index_, &stage_, &metrics_);
  const obs::AdminResponse response =
      service.Handle("GET", "/v1/query?entity=kitten&property=haunted", "");
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("\"error\""), std::string::npos);
}

TEST_F(QueryServiceTest, NotReadyIs503) {
  obs::StageTracker cold;  // still kStarting
  QueryService service(&index_, &cold, &metrics_);
  const obs::AdminResponse response =
      service.Handle("GET", "/v1/query?entity=kitten&property=cute", "");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("starting"), std::string::npos);

  cold.SetStage(obs::PipelineStage::kServing);
  EXPECT_EQ(
      service.Handle("GET", "/v1/query?entity=kitten&property=cute", "").status,
      200);
}

TEST_F(QueryServiceTest, TypeScanAndPrefixScan) {
  QueryService service(&index_, &stage_, &metrics_);
  obs::AdminResponse response =
      service.Handle("GET", "/v1/query?type=animal&property=cute", "");
  EXPECT_EQ(response.status, 200);
  // Strongest first: kitten (0.97) before koala (0.91); spider's opinion
  // is on a different property.
  const size_t kitten = response.body.find("kitten");
  const size_t koala = response.body.find("koala");
  ASSERT_NE(kitten, std::string::npos);
  ASSERT_NE(koala, std::string::npos);
  EXPECT_LT(kitten, koala);
  EXPECT_EQ(response.body.find("spider"), std::string::npos);

  response = service.Handle("GET", "/v1/query?prefix=k", "");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"entities\":[\"kitten\",\"koala\"]"),
            std::string::npos);

  // limit= caps results.
  response = service.Handle(
      "GET", "/v1/query?type=animal&property=cute&limit=1", "");
  EXPECT_NE(response.body.find("kitten"), std::string::npos);
  EXPECT_EQ(response.body.find("koala"), std::string::npos);
}

TEST_F(QueryServiceTest, UrlEncodingIsDecoded) {
  QueryService service(&index_, &stage_, &metrics_);
  const obs::AdminResponse response =
      service.Handle("GET", "/v1/query?entity=%6bitten&property=cute", "");
  EXPECT_EQ(response.status, 200);
}

TEST_F(QueryServiceTest, MalformedRequestsAreRejected) {
  QueryService service(&index_, &stage_, &metrics_);
  // No usable parameter combination.
  EXPECT_EQ(service.Handle("GET", "/v1/query?entity=kitten", "").status, 400);
  EXPECT_EQ(service.Handle("GET", "/v1/query", "").status, 400);
  // Wrong methods.
  EXPECT_EQ(service
                .Handle("POST", "/v1/query?entity=kitten&property=cute", "")
                .status,
            405);
  EXPECT_EQ(service.Handle("GET", "/v1/query/batch", "").status, 405);
  // Unknown sub-path.
  EXPECT_EQ(service.Handle("GET", "/v1/query/nope", "").status, 404);
  // The rejected counter saw all of it.
  EXPECT_GT(metrics_.GetCounter("surveyor_query_rejected_total")->Value(), 0);
}

TEST_F(QueryServiceTest, BatchAnswersPerEntry) {
  QueryService service(&index_, &stage_, &metrics_);
  const std::string body =
      "{\"queries\":[{\"entity\":\"kitten\",\"property\":\"cute\"},"
      "{\"entity\":\"nobody\",\"property\":\"cute\"}]}";
  const obs::AdminResponse response =
      service.Handle("POST", "/v1/query/batch", body);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"entity\":\"kitten\""), std::string::npos);
  // Per-entry misses carry the same envelope error object as top-level
  // failures.
  EXPECT_NE(response.body.find("{\"error\":{\"code\":\"not_found\","
                               "\"message\":\"unknown entity 'nobody'\"}}"),
            std::string::npos);
}

TEST_F(QueryServiceTest, BatchRejectsGarbageAndOversizedRequests) {
  QueryServiceOptions options;
  options.max_batch = 2;
  QueryService service(&index_, &stage_, &metrics_, options);
  EXPECT_EQ(service.Handle("POST", "/v1/query/batch", "not json").status, 400);
  EXPECT_EQ(service.Handle("POST", "/v1/query/batch", "{\"queries\":0}").status,
            400);
  EXPECT_EQ(
      service.Handle("POST", "/v1/query/batch", "{\"queries\":[]} trailing")
          .status,
      400);
  const std::string big =
      "{\"queries\":[{\"entity\":\"a\",\"property\":\"p\"},"
      "{\"entity\":\"b\",\"property\":\"p\"},"
      "{\"entity\":\"c\",\"property\":\"p\"}]}";
  EXPECT_EQ(service.Handle("POST", "/v1/query/batch", big).status, 400);
}

TEST_F(QueryServiceTest, LatencyHistogramSeesEveryRequest) {
  QueryService service(&index_, &stage_, &metrics_);
  (void)service.Handle("GET", "/v1/query?entity=kitten&property=cute", "");
  (void)service.Handle("GET", "/v1/query?entity=kitten", "");
  EXPECT_EQ(metrics_.GetCounter("surveyor_query_requests_total")->Value(), 2);
  EXPECT_EQ(
      metrics_.GetHistogram("surveyor_query_latency_seconds", {})->Count(), 2);
}

// ---------------------------------------------------------------------------
// Request tracing through the serving stack.

bool HasSpan(const obs::RequestTrace& trace, std::string_view name) {
  for (const obs::TraceSpan& span : trace.spans) {
    if (span.name == name) return true;
  }
  return false;
}

TEST_F(QueryServiceTest, SampledQueryTraceShowsServingSpans) {
  QueryService service(&index_, &stage_, &metrics_);
  obs::AdminServerOptions options;
  options.trace_sample_rate = 1.0;
  options.slow_query_ms = 0.0;
  obs::AdminServer server(&metrics_, &stage_, nullptr, options);
  service.Register(&server);

  // Every lookup decodes its record from the pinned snapshot, so the
  // decode span sits under the lookup span.
  EXPECT_EQ(
      server.Handle("GET", "/v1/query?entity=kitten&property=cute").status,
      200);
  std::vector<obs::RequestTrace> traces = server.request_tracer().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(HasSpan(traces[0], "GET /v1/query"));
  EXPECT_TRUE(HasSpan(traces[0], "query_service.point"));
  EXPECT_TRUE(HasSpan(traces[0], "opinion_index.lookup"));
  EXPECT_TRUE(HasSpan(traces[0], "snapshot.materialize"));

  // Repeating the query decodes the record again.
  EXPECT_EQ(
      server.Handle("GET", "/v1/query?entity=kitten&property=cute").status,
      200);
  traces = server.request_tracer().Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_TRUE(HasSpan(traces[0], "opinion_index.lookup"));
  EXPECT_TRUE(HasSpan(traces[0], "snapshot.materialize"));
}

/// The span named `name` in `trace`, or nullptr.
const obs::TraceSpan* FindSpan(const obs::RequestTrace& trace,
                               std::string_view name) {
  for (const obs::TraceSpan& span : trace.spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

TEST_F(QueryServiceTest, PointTraceNestsLookupAndDecode) {
  QueryService service(&index_, &stage_, &metrics_);
  obs::AdminServerOptions options;
  options.trace_sample_rate = 1.0;
  options.slow_query_ms = 0.0;
  obs::AdminServer server(&metrics_, &stage_, nullptr, options);
  service.Register(&server);

  EXPECT_EQ(
      server.Handle("GET", "/v1/query?entity=kitten&property=cute").status,
      200);
  const std::vector<obs::RequestTrace> traces =
      server.request_tracer().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].spans.size(), 4u);
  const obs::TraceSpan* root = FindSpan(traces[0], "GET /v1/query");
  const obs::TraceSpan* point = FindSpan(traces[0], "query_service.point");
  const obs::TraceSpan* lookup = FindSpan(traces[0], "opinion_index.lookup");
  const obs::TraceSpan* decode = FindSpan(traces[0], "snapshot.materialize");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(point, nullptr);
  ASSERT_NE(lookup, nullptr);
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(point->parent_id, root->id);
  EXPECT_EQ(lookup->parent_id, point->id);
  EXPECT_EQ(decode->parent_id, lookup->id);
}

// A batch opens the same two spans however many pairs it answers, so a
// max_batch batch keeps its whole trace under the per-trace span cap.
TEST_F(QueryServiceTest, FullBatchTraceDropsNoSpans) {
  QueryService service(&index_, &stage_, &metrics_);
  obs::AdminServerOptions options;
  options.trace_sample_rate = 1.0;
  options.slow_query_ms = 0.0;
  obs::AdminServer server(&metrics_, &stage_, nullptr, options);
  service.Register(&server);

  std::string body = "{\"queries\":[";
  for (size_t i = 0; i < QueryServiceOptions().max_batch; ++i) {
    if (i > 0) body += ',';
    body += i % 3 == 2 ? "{\"entity\":\"nobody\",\"property\":\"cute\"}"
                       : "{\"entity\":\"kitten\",\"property\":\"cute\"}";
  }
  body += "]}";
  EXPECT_EQ(server.Handle("POST", "/v1/query/batch", body).status, 200);
  const std::vector<obs::RequestTrace> traces =
      server.request_tracer().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].dropped_spans, 0);
  ASSERT_EQ(traces[0].spans.size(), 2u);
  const obs::TraceSpan* root = FindSpan(traces[0], "POST /v1/query/batch");
  const obs::TraceSpan* batch = FindSpan(traces[0], "query_service.batch");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->parent_id, root->id);
}

TEST_F(QueryServiceTest, SlowQueryIsTailCaptured) {
  QueryService service(&index_, &stage_, &metrics_);
  obs::AdminServerOptions options;
  options.trace_sample_rate = 0.0;   // head sampling off
  options.slow_query_ms = 1e-6;      // everything exceeds the threshold
  obs::AdminServer server(&metrics_, &stage_, nullptr, options);
  service.Register(&server);

  // Head sampling is off, yet the "slow" request is kept and explains
  // itself through its snapshot.materialize span.
  EXPECT_EQ(
      server.Handle("GET", "/v1/query?entity=kitten&property=cute").status,
      200);

  const std::vector<obs::RequestTrace> traces =
      server.request_tracer().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const obs::RequestTrace& slow = traces[0];
  EXPECT_TRUE(slow.slow);
  EXPECT_FALSE(slow.sampled);
  EXPECT_TRUE(HasSpan(slow, "snapshot.materialize"));
}

TEST_F(QueryServiceTest, SnapshotReadRetriesLandInTheTrace) {
  obs::RequestTracerOptions tracer_options;
  tracer_options.sample_rate = 1.0;
  obs::RequestTracer tracer(tracer_options);
  // Fail the first snapshot read; the bounded retry recovers and the
  // request trace records the recovery.
  ScopedFaults faults("snapshot_read:@1");
  OpinionIndexOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_seconds = 0;
  options.retry.max_backoff_seconds = 0;
  OpinionIndex index(options);
  {
    obs::RequestScope scope(&tracer, nullptr, "POST", "/reload");
    EXPECT_TRUE(index.Load(path_).ok());
  }
  const std::vector<obs::RequestTrace> traces = tracer.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].stats.retries, 1);
  EXPECT_TRUE(HasSpan(traces[0], "opinion_index.load"));
  EXPECT_TRUE(HasSpan(traces[0], "snapshot.open"));
}

TEST_F(QueryServiceTest, LatencyExemplarResolvesToRetainedTrace) {
  QueryService service(&index_, &stage_, &metrics_);
  obs::AdminServerOptions options;
  options.trace_sample_rate = 1.0;
  options.slow_query_ms = 0.0;
  obs::AdminServer server(&metrics_, &stage_, nullptr, options);
  service.Register(&server);

  EXPECT_EQ(
      server.Handle("GET", "/v1/query?entity=kitten&property=cute").status,
      200);
  const std::vector<obs::RequestTrace> traces =
      server.request_tracer().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const std::string hex = obs::TraceIdHex(traces[0].trace_id);

  // The latency histogram's exemplar carries the sampled request's trace
  // id, so /metrics points straight at the span tree on /tracez.
  const std::string text = metrics_.ToPrometheusText();
  EXPECT_NE(text.find("surveyor_query_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("# {trace_id=\"" + hex + "\"}"), std::string::npos);
}

TEST_F(QueryServiceTest, UnsampledRequestsLeaveNoExemplar) {
  QueryService service(&index_, &stage_, &metrics_);
  obs::AdminServerOptions options;
  options.trace_sample_rate = 0.0;
  options.slow_query_ms = 0.0;
  obs::AdminServer server(&metrics_, &stage_, nullptr, options);
  service.Register(&server);
  EXPECT_EQ(
      server.Handle("GET", "/v1/query?entity=kitten&property=cute").status,
      200);
  EXPECT_EQ(metrics_.ToPrometheusText().find("# {trace_id="),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The full loop over a real socket: mine a tiny corpus with the public
// facade, freeze a snapshot, serve it next to the admin plane, scrape
// /v1/query, and check the served posterior matches the mined one.

#ifdef SURVEYOR_TEST_HAVE_SOCKETS

std::string HttpRequest(int port, const std::string& head_and_body) {
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
  size_t sent = 0;
  while (sent < head_and_body.size()) {
    const ssize_t n = ::write(fd, head_and_body.data() + sent,
                              head_and_body.size() - sent);
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

std::string HttpGet(int port, const std::string& target) {
  return HttpRequest(port,
                     "GET " + target + " HTTP/1.0\r\nHost: x\r\n\r\n");
}

TEST(ServingIntegrationTest, MineSnapshotServeScrape) {
  // Mine a tiny synthetic corpus through the one-call facade.
  World world = World::Generate(MakeTinyWorldConfig()).value();
  GeneratorOptions generator_options;
  generator_options.author_population = 4000;
  generator_options.seed = 19;
  const std::vector<RawDocument> corpus =
      CorpusGenerator(&world, generator_options).Generate();
  SurveyorConfig config;
  config.min_statements = 20;
  config.num_threads = 2;
  const auto result = Mine(config, corpus, world.kb(), world.lexicon());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->stats.num_opinions, 0);

  // Freeze and reload.
  SnapshotWriter writer;
  writer.set_label("integration");
  ASSERT_TRUE(writer.AddResult(*result, world.kb()).ok());
  const std::string path = testing::TempDir() + "/integration.surv";
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  OpinionIndex index;
  ASSERT_TRUE(index.Load(path).ok());

  // Serve /v1/query next to the admin endpoints, with the readiness gate.
  obs::MetricRegistry metrics;
  obs::StageTracker stage;
  QueryService service(&index, &stage, &metrics);
  obs::AdminServer server(&metrics, &stage, nullptr);
  service.Register(&server);
  ASSERT_TRUE(server.Start().ok());

  // Before the stage flips, /v1/query is refused.
  EXPECT_NE(HttpGet(server.port(), "/v1/query?entity=kitten&property=cute")
                .find("HTTP/1.1 503"),
            std::string::npos);
  stage.SetStage(obs::PipelineStage::kServing);

  // Pick a mined opinion and check the served answer matches it exactly.
  const PairOpinion mined = result->Opinions().front();
  const std::string entity =
      world.kb().entity(mined.entity).canonical_name;
  std::string encoded = entity;
  for (size_t pos; (pos = encoded.find(' ')) != std::string::npos;) {
    encoded.replace(pos, 1, "%20");
  }
  const std::string response = HttpGet(
      server.port(), "/v1/query?entity=" + encoded + "&property=" +
                         mined.property);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"entity\":\"" + entity + "\""),
            std::string::npos) << response;
  // Render the posterior the way the JSON layer does (integral values
  // print without a fraction) and demand an exact match with mine time.
  char posterior[64];
  if (mined.probability == static_cast<long long>(mined.probability)) {
    std::snprintf(posterior, sizeof(posterior), "%lld",
                  static_cast<long long>(mined.probability));
  } else {
    std::snprintf(posterior, sizeof(posterior), "%.10g", mined.probability);
  }
  EXPECT_NE(response.find("\"posterior\":" + std::string(posterior)),
            std::string::npos)
      << response;

  // Batch POST over the same socket transport.
  const std::string body = "{\"queries\":[{\"entity\":\"" + entity +
                           "\",\"property\":\"" + mined.property + "\"}]}";
  const std::string batch = HttpRequest(
      server.port(), "POST /v1/query/batch HTTP/1.0\r\nHost: x\r\n"
                     "Content-Length: " + std::to_string(body.size()) +
                     "\r\n\r\n" + body);
  EXPECT_NE(batch.find("HTTP/1.1 200 OK"), std::string::npos) << batch;
  EXPECT_NE(batch.find("\"entity\":\"" + entity + "\""), std::string::npos);

  // The admin plane still works next to /v1/query.
  EXPECT_NE(HttpGet(server.port(), "/metrics")
                .find("surveyor_query_requests_total"),
            std::string::npos);
  server.Stop();
}

#endif  // SURVEYOR_TEST_HAVE_SOCKETS

}  // namespace
}  // namespace serving
}  // namespace surveyor
