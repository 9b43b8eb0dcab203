#include "obs/request_trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/access_log.h"
#include "obs/trace.h"

namespace surveyor {
namespace obs {
namespace {

TEST(SampleDecisionTest, RateZeroNeverSamples) {
  for (uint64_t id = 1; id <= 1000; ++id) {
    EXPECT_FALSE(RequestTracer::SampleDecision(id, 0.0));
  }
  EXPECT_FALSE(RequestTracer::SampleDecision(7, -0.5));
}

TEST(SampleDecisionTest, RateOneAlwaysSamples) {
  for (uint64_t id = 1; id <= 1000; ++id) {
    EXPECT_TRUE(RequestTracer::SampleDecision(id, 1.0));
  }
  EXPECT_TRUE(RequestTracer::SampleDecision(7, 2.0));
}

TEST(SampleDecisionTest, FractionalRateIsDeterministicAndConverges) {
  const double rate = 0.1;
  int sampled = 0;
  for (uint64_t id = 1; id <= 10000; ++id) {
    const bool first = RequestTracer::SampleDecision(id, rate);
    // Deterministic: the same id always gets the same verdict.
    EXPECT_EQ(first, RequestTracer::SampleDecision(id, rate));
    if (first) ++sampled;
  }
  // The sampled fraction converges to the rate (loose 30% tolerance —
  // the hash is fixed, so this is deterministic, not flaky).
  EXPECT_GT(sampled, 10000 * rate * 0.7);
  EXPECT_LT(sampled, 10000 * rate * 1.3);
}

TEST(TraceIdHexTest, FixedWidthLowercase) {
  EXPECT_EQ(TraceIdHex(0), "0000000000000000");
  EXPECT_EQ(TraceIdHex(0xabc), "0000000000000abc");
  EXPECT_EQ(TraceIdHex(0xDEADBEEFCAFEF00Dull), "deadbeefcafef00d");
}

RequestTracerOptions AlwaysSample() {
  RequestTracerOptions options;
  options.sample_rate = 1.0;
  options.slow_threshold_seconds = 0.0;
  return options;
}

TEST(RequestScopeTest, SampledRequestKeepsSpanTree) {
  RequestTracer tracer(AlwaysSample());
  {
    RequestScope scope(&tracer, nullptr, "GET", "/query?entity=berlin");
    EXPECT_NE(scope.trace_id(), 0u);
    EXPECT_TRUE(scope.sampled());
    EXPECT_EQ(CurrentTraceId(), scope.trace_id());
    EXPECT_EQ(CurrentSampledTraceId(), scope.trace_id());
    ASSERT_NE(CurrentRequestStats(), nullptr);
    CurrentRequestStats()->retries = 3;
    scope.set_status(200);
    scope.set_response_bytes(42);
    {
      SURVEYOR_SPAN("child");
      SURVEYOR_SPAN("grandchild");
    }
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
  EXPECT_EQ(CurrentRequestStats(), nullptr);

  const std::vector<RequestTrace> traces = tracer.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& trace = traces[0];
  EXPECT_TRUE(trace.sampled);
  EXPECT_EQ(trace.method, "GET");
  EXPECT_EQ(trace.target, "/query?entity=berlin");
  EXPECT_EQ(trace.status, 200);
  EXPECT_EQ(trace.response_bytes, 42u);
  EXPECT_EQ(trace.stats.retries, 3);
  EXPECT_GT(trace.duration_seconds, 0.0);

  // Three spans: root "GET /query" plus the two nested ones, linked.
  ASSERT_EQ(trace.spans.size(), 3u);
  const TraceSpan* root = nullptr;
  const TraceSpan* child = nullptr;
  const TraceSpan* grandchild = nullptr;
  for (const TraceSpan& span : trace.spans) {
    if (span.name == "GET /query") root = &span;
    if (span.name == "child") child = &span;
    if (span.name == "grandchild") grandchild = &span;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(grandchild, nullptr);
  EXPECT_EQ(child->parent_id, root->id);
  EXPECT_EQ(grandchild->parent_id, child->id);
  EXPECT_GE(child->start_seconds, 0.0);
}

TEST(RequestScopeTest, DisarmedTracerCollectsNothing) {
  RequestTracerOptions options;
  options.sample_rate = 0.0;
  options.slow_threshold_seconds = 0.0;
  RequestTracer tracer(options);
  ASSERT_FALSE(tracer.armed());
  {
    RequestScope scope(&tracer, nullptr, "GET", "/healthz");
    // Stats stay reachable even when spans are off.
    ASSERT_NE(CurrentRequestStats(), nullptr);
    EXPECT_EQ(CurrentSampledTraceId(), 0u);
    SURVEYOR_SPAN("ignored");
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.requests_started(), 1);
  EXPECT_EQ(tracer.traces_kept(), 0);
}

TEST(RequestScopeTest, SlowRequestIsTailCapturedWithoutSampling) {
  RequestTracerOptions options;
  options.sample_rate = 0.0;
  // Every request is "slow" against a zero-microsecond-ish threshold.
  options.slow_threshold_seconds = 1e-9;
  RequestTracer tracer(options);
  ASSERT_TRUE(tracer.armed());
  {
    RequestScope scope(&tracer, nullptr, "GET", "/query?entity=x");
    EXPECT_FALSE(scope.sampled());
    // Not head-sampled, so exemplars must not reference this trace.
    EXPECT_EQ(CurrentSampledTraceId(), 0u);
    SURVEYOR_SPAN("slow.work");
  }
  const std::vector<RequestTrace> traces = tracer.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_FALSE(traces[0].sampled);
  EXPECT_TRUE(traces[0].slow);
  ASSERT_EQ(traces[0].spans.size(), 2u);
  EXPECT_EQ(tracer.requests_slow(), 1);
}

TEST(RequestScopeTest, FastUnsampledRequestIsDropped) {
  RequestTracerOptions options;
  options.sample_rate = 0.0;
  options.slow_threshold_seconds = 100.0;  // Nothing is that slow here.
  RequestTracer tracer(options);
  {
    RequestScope scope(&tracer, nullptr, "GET", "/query?entity=x");
    SURVEYOR_SPAN("work");
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.requests_started(), 1);
}

TEST(RequestScopeTest, SpanCapCountsDroppedSpans) {
  RequestTracerOptions options = AlwaysSample();
  options.max_spans_per_trace = 2;
  RequestTracer tracer(options);
  {
    RequestScope scope(&tracer, nullptr, "GET", "/query");
    for (int i = 0; i < 5; ++i) {
      SURVEYOR_SPAN("span");
    }
  }
  const std::vector<RequestTrace> traces = tracer.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].spans.size(), 2u);
  // 5 child spans + 1 root, cap 2 -> 4 dropped.
  EXPECT_EQ(traces[0].dropped_spans, 4);
}

TEST(RequestScopeTest, LongTargetIsTruncated) {
  RequestTracer tracer(AlwaysSample());
  const std::string target = "/query?entity=" + std::string(1000, 'x');
  {
    RequestScope scope(&tracer, nullptr, "GET", target);
  }
  const std::vector<RequestTrace> traces = tracer.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_LE(traces[0].target.size(), 256u);
}

TEST(RequestScopeTest, AppendsAccessLogEntryEvenWhenUnsampled) {
  RequestTracerOptions options;
  options.sample_rate = 0.0;
  options.slow_threshold_seconds = 0.0;
  RequestTracer tracer(options);
  AccessLog log(8);
  {
    RequestScope scope(&tracer, &log, "GET", "/metrics");
    scope.set_status(200);
    scope.set_response_bytes(7);
  }
  const std::vector<AccessLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].method, "GET");
  EXPECT_EQ(entries[0].endpoint, "/metrics");
  EXPECT_EQ(entries[0].status, 200);
  EXPECT_EQ(entries[0].response_bytes, 7u);
  EXPECT_FALSE(entries[0].sampled);
  EXPECT_NE(entries[0].trace_id, 0u);
}

TEST(RequestTracerTest, RingWrapsKeepingNewest) {
  RequestTracerOptions options = AlwaysSample();
  options.ring_capacity = 3;
  RequestTracer tracer(options);
  for (int i = 0; i < 7; ++i) {
    RequestScope scope(&tracer, nullptr, "GET",
                       "/query?n=" + std::to_string(i));
  }
  const std::vector<RequestTrace> traces = tracer.Snapshot();
  ASSERT_EQ(traces.size(), 3u);
  // Newest first.
  EXPECT_EQ(traces[0].target, "/query?n=6");
  EXPECT_EQ(traces[1].target, "/query?n=5");
  EXPECT_EQ(traces[2].target, "/query?n=4");
  EXPECT_EQ(tracer.traces_kept(), 7);
  EXPECT_EQ(tracer.traces_evicted(), 4);
}

TEST(RequestTracerTest, ConcurrentHammeringStaysBounded) {
  RequestTracerOptions options = AlwaysSample();
  options.ring_capacity = 8;
  RequestTracer tracer(options);
  AccessLog log(16);
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, &log, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        RequestScope scope(&tracer, &log, "GET",
                           "/query?t=" + std::to_string(t));
        SURVEYOR_SPAN("work");
        scope.set_status(200);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracer.requests_started(), kThreads * kRequestsPerThread);
  EXPECT_EQ(tracer.traces_kept(), kThreads * kRequestsPerThread);
  const std::vector<RequestTrace> traces = tracer.Snapshot();
  ASSERT_EQ(traces.size(), 8u);
  for (const RequestTrace& trace : traces) {
    // Every retained trace is intact: root + child span.
    EXPECT_EQ(trace.spans.size(), 2u);
    EXPECT_EQ(trace.status, 200);
  }
  EXPECT_EQ(log.Snapshot().size(), 16u);
  EXPECT_EQ(log.total_requests(), kThreads * kRequestsPerThread);
}

}  // namespace
}  // namespace obs
}  // namespace surveyor
