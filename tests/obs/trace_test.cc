#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/request_trace.h"

namespace surveyor {
namespace obs {
namespace {

RequestTracerOptions AlwaysSample() {
  RequestTracerOptions options;
  options.sample_rate = 1.0;
  options.slow_threshold_seconds = 0.0;
  return options;
}

/// The spans of the one trace `tracer` kept.
std::vector<TraceSpan> KeptSpans(const RequestTracer& tracer) {
  const std::vector<RequestTrace> traces = tracer.Snapshot();
  EXPECT_EQ(traces.size(), 1u);
  return traces.empty() ? std::vector<TraceSpan>() : traces[0].spans;
}

const TraceSpan* FindSpan(const std::vector<TraceSpan>& spans,
                          std::string_view name) {
  for (const TraceSpan& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

TEST(TracerTest, DisabledByDefaultRecordsNothing) {
  // Outside a request a span has nowhere to record, and a request that
  // starts under it does not become its child.
  RequestTracer tracer(AlwaysSample());
  {
    SURVEYOR_SPAN("outside");
    RequestScope scope(&tracer, nullptr, "GET", "/inside");
  }
  {
    SURVEYOR_SPAN("after");
  }
  const std::vector<TraceSpan> spans = KeptSpans(tracer);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "GET /inside");
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].parent_id, 0u);
}

TEST(TracerTest, NestedSpansLinkParents) {
  RequestTracer tracer(AlwaysSample());
  {
    RequestScope scope(&tracer, nullptr, "GET", "/nest");
    SURVEYOR_SPAN("outer");
    {
      SURVEYOR_SPAN("inner");
    }
    // Opened after `inner` closed: its parent is `outer` again.
    SURVEYOR_SPAN("sibling");
  }
  const std::vector<TraceSpan> spans = KeptSpans(tracer);
  ASSERT_EQ(spans.size(), 4u);
  const TraceSpan* root = FindSpan(spans, "GET /nest");
  const TraceSpan* outer = FindSpan(spans, "outer");
  const TraceSpan* inner = FindSpan(spans, "inner");
  const TraceSpan* sibling = FindSpan(spans, "sibling");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(outer->parent_id, root->id);
  EXPECT_EQ(inner->parent_id, outer->id);
  EXPECT_EQ(sibling->parent_id, outer->id);
  EXPECT_GE(inner->start_seconds, outer->start_seconds);
  EXPECT_LE(inner->duration_seconds, outer->duration_seconds);
}

TEST(TracerTest, SpanOnAnotherThreadRecordsNothing) {
  // A request belongs to the thread that serves it: a span opened on
  // another thread while the request is live records nowhere.
  RequestTracer tracer(AlwaysSample());
  {
    RequestScope scope(&tracer, nullptr, "GET", "/threads");
    SURVEYOR_SPAN("here");
    std::thread worker([] { SURVEYOR_SPAN("elsewhere"); });
    worker.join();
  }
  const std::vector<TraceSpan> spans = KeptSpans(tracer);
  EXPECT_EQ(spans.size(), 2u);
  EXPECT_NE(FindSpan(spans, "here"), nullptr);
  EXPECT_EQ(FindSpan(spans, "elsewhere"), nullptr);
}

TEST(TracerTest, CapacityBoundsBufferAndCountsDrops) {
  // A request keeps its first spans in place and the rest, up to the
  // per-trace cap, on the heap; spans closing past the cap (the root
  // closes last) are counted, not kept.
  RequestTracerOptions options = AlwaysSample();
  options.max_spans_per_trace = 24;
  RequestTracer tracer(options);
  {
    RequestScope scope(&tracer, nullptr, "GET", "/many");
    for (int i = 0; i < 30; ++i) {
      SURVEYOR_SPAN("s");
    }
  }
  const std::vector<RequestTrace> traces = tracer.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].spans.size(), 24u);
  EXPECT_EQ(traces[0].dropped_spans, 7);  // 6 children and the root
  for (size_t i = 0; i < traces[0].spans.size(); ++i) {
    EXPECT_EQ(traces[0].spans[i].id, i + 2);  // closing order
    EXPECT_EQ(traces[0].spans[i].parent_id, 1u);
  }
}

TEST(TracerTest, EndIsIdempotentAndFreezesElapsed) {
  RequestTracer tracer(AlwaysSample());
  double ended_within_seconds = 0.0;
  {
    RequestScope scope(&tracer, nullptr, "GET", "/once");
    const auto before = std::chrono::steady_clock::now();
    ScopedSpan span("once");
    span.End();
    ended_within_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - before)
                               .count();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    span.End();  // no-op, and so is the destructor
  }
  const std::vector<TraceSpan> spans = KeptSpans(tracer);
  ASSERT_EQ(spans.size(), 2u);
  const TraceSpan* once = FindSpan(spans, "once");
  ASSERT_NE(once, nullptr);
  EXPECT_LE(once->duration_seconds, ended_within_seconds);
}

TEST(TracerTest, SpanMacroCompilesAndRecords) {
  RequestTracer tracer(AlwaysSample());
  {
    RequestScope scope(&tracer, nullptr, "GET", "/macro");
    SURVEYOR_SPAN("macro.scope");
  }
  const std::vector<TraceSpan> spans = KeptSpans(tracer);
  const TraceSpan* span = FindSpan(spans, "macro.scope");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->parent_id, 1u);  // the request's root span
}

}  // namespace
}  // namespace obs
}  // namespace surveyor
