// `perfbench_tool trace-serve`: the serving layers timed from outside, on
// an in-process stack wired like `surveyor_cli serve` (default
// OpinionIndexOptions, QueryService and AdminServerOptions).
//
// Nested public entry points give each layer's self time. The same request
// list runs three times, each on a freshly loaded generation so the answer
// cache starts cold every time: through the index calls alone, through
// QueryService::Handle, and through AdminServer::Handle. Render is the
// second minus the first, route the third minus the second. Over HTTP, the
// query handler is wrapped via AddHandler and each request carries a
// `pbid` parameter (ignored by the service) that pairs the handler's span
// with the client's round trip; transport is the difference.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_lib.h"
#include "obs/admin_server.h"
#include "obs/json_writer.h"
#include "obs/log_ring.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "serving/generation_store.h"
#include "serving/opinion_index.h"
#include "serving/query_service.h"
#include "tool.h"

namespace perfbench {
namespace {

using surveyor::Status;
using surveyor::serving::OpinionIndex;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  *out = bytes.str();
  return static_cast<bool>(in);
}

/// Per-kind accumulated time and count of one pass.
struct PassTimes {
  double ns[kNumRequestKinds] = {};
  int64_t count[kNumRequestKinds] = {};
  double total_ns = 0;
  double Mean(RequestKind kind) const {
    const int k = static_cast<int>(kind);
    return count[k] == 0 ? 0.0 : ns[k] / static_cast<double>(count[k]);
  }
};

/// The index call a request makes, without the service around it.
void CallIndex(const OpinionIndex& index, const Request& request) {
  switch (request.kind) {
    case RequestKind::kPoint:
      (void)index.Lookup(request.pairs[0].first, request.pairs[0].second);
      break;
    case RequestKind::kScan:
      (void)index.QueryType(request.type, request.property, kScanLimit);
      break;
    case RequestKind::kBatch:
      (void)index.BatchLookup(request.pairs);
      break;
    case RequestKind::kPrefix:
      (void)index.PrefixScan(request.prefix, kPrefixLimit);
      break;
  }
}

template <typename Call>
PassTimes TimePass(const std::vector<Request>& requests, const Call& call) {
  PassTimes times;
  for (const Request& request : requests) {
    const Clock::time_point start = Clock::now();
    call(request);
    const double ns = NsSince(start);
    times.ns[static_cast<int>(request.kind)] += ns;
    ++times.count[static_cast<int>(request.kind)];
    times.total_ns += ns;
  }
  return times;
}

/// Handler span of the request in flight on each connection, published
/// by the wrapped handler and read by the client after the response.
struct HandlerSlot {
  std::atomic<int64_t> ns{0};
  std::atomic<int64_t> seq{-1};
};

/// Parses "pbid=<conn>.<seq>" from a request target.
bool ParsePbid(std::string_view target, size_t* conn, int64_t* seq) {
  const size_t at = target.find("pbid=");
  if (at == std::string_view::npos) return false;
  const std::string value(target.substr(at + 5));
  char* dot = nullptr;
  *conn = std::strtoul(value.c_str(), &dot, 10);
  if (dot == nullptr || *dot != '.') return false;
  *seq = std::strtoll(dot + 1, nullptr, 10);
  return true;
}

int64_t CounterValue(surveyor::obs::MetricRegistry& registry,
                     const std::string& name) {
  return registry.GetCounter(name)->Value();
}

}  // namespace

int RunTraceServe(const Flags& flags) {
  const std::string path_a = Flag(flags, "snapshot");
  const std::string path_b = Flag(flags, "snapshot-b", path_a);
  const std::string out = Flag(flags, "out");
  const bool skewed = Flag(flags, "mix") == "mixed";
  const uint64_t seed = static_cast<uint64_t>(IntFlag(flags, "seed", 1));
  // Requests per in-process pass and seconds of the HTTP phase.
  constexpr size_t num_requests = 20000;
  const int connections = ClientConnections();
  constexpr double http_seconds = 3.0;
  const int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (path_a.empty() || out.empty()) {
    std::cerr << "trace-serve: need --snapshot and --out\n";
    return 2;
  }
  surveyor::serving::Snapshot snapshot_a, snapshot_b;
  Status status = snapshot_a.Open(path_a);
  if (status.ok()) status = snapshot_b.Open(path_b);
  if (!status.ok()) {
    std::cerr << "trace-serve: " << status.ToString() << "\n";
    return 1;
  }
  const ExpectedAnswers expected_a(snapshot_a);
  const ExpectedAnswers expected_b(snapshot_b);
  const RequestUniverse universe(expected_a, &expected_b, skewed, seed);
  // The in-process passes send every query shape on every workload, over
  // the workload's own key skew.
  std::vector<Request> requests;
  RequestStream stream(&universe, seed, /*stream=*/1000, /*all_kinds=*/true);
  for (size_t i = 0; i < num_requests; ++i) requests.push_back(stream.Next());

  double wall_ns = 0, spans_ns = 0;
  const auto phase = [&wall_ns](const auto& body) {
    const Clock::time_point start = Clock::now();
    body();
    wall_ns += NsSince(start);
  };

  surveyor::obs::MetricRegistry registry;
  surveyor::obs::StageTracker stage;
  stage.SetStage(surveyor::obs::PipelineStage::kServing);
  surveyor::serving::OpinionIndexOptions index_options;
  index_options.metrics = &registry;
  OpinionIndex index(index_options);

  // load: OpinionIndex::Load and LoadGeneration, alternating generations.
  std::vector<double> load_ns;
  uint64_t next_generation = 1;
  Status load_status;
  const auto reload = [&](bool use_b) {
    const Clock::time_point start = Clock::now();
    const Status loaded =
        use_b ? index.LoadGeneration(path_b, ++next_generation)
              : index.Load(path_a);
    const double ns = NsSince(start);
    if (!loaded.ok()) load_status = loaded;
    load_ns.push_back(ns);
    spans_ns += ns;
  };
  phase([&] {
    for (int i = 0; i < 6; ++i) reload(i % 2 == 1);
  });

  // publish: GenerationStore::PublishImage of both images, alternating.
  std::string image_a, image_b;
  if (!ReadFile(path_a, &image_a) || !ReadFile(path_b, &image_b)) {
    std::cerr << "trace-serve: cannot read snapshot images\n";
    return 1;
  }
  std::vector<double> publish_ns;
  const std::string store_dir = out + "/trace_generations";
  std::filesystem::remove_all(store_dir);
  surveyor::serving::GenerationStore store(store_dir);
  status = store.Open();
  phase([&] {
    for (int i = 0; i < 4 && status.ok(); ++i) {
      const Clock::time_point start = Clock::now();
      const surveyor::StatusOr<uint64_t> id =
          store.PublishImage(i % 2 == 0 ? image_a : image_b);
      publish_ns.push_back(NsSince(start));
      spans_ns += publish_ns.back();
      if (!id.ok()) status = id.status();
    }
  });
  if (!status.ok()) {
    std::cerr << "trace-serve: " << status.ToString() << "\n";
    return 1;
  }

  surveyor::serving::QueryService query_service(&index, &stage, &registry);
  surveyor::obs::AdminServerOptions admin_options;
  admin_options.profiler_metrics = &registry;
  surveyor::obs::AdminServer admin(&registry, &stage,
                                   &surveyor::obs::LogRing::Global(),
                                   admin_options);
  std::vector<HandlerSlot> slots(connections);
  admin.AddHandler("/v1/query", [&](std::string_view method,
                                    std::string_view target,
                                    std::string_view body) {
    const Clock::time_point start = Clock::now();
    surveyor::obs::AdminResponse response =
        query_service.Handle(method, target, body);
    size_t conn = 0;
    int64_t seq = 0;
    if (ParsePbid(target, &conn, &seq) && conn < slots.size()) {
      slots[conn].ns.store(static_cast<int64_t>(NsSince(start)),
                           std::memory_order_relaxed);
      slots[conn].seq.store(seq, std::memory_order_release);
    }
    return response;
  });

  // Three passes over the same list, each on a cold cache.
  PassTimes index_pass, service_pass, admin_pass;
  int64_t hits = 0, misses = 0;
  phase([&] {
    reload(false);
    const int64_t hits_before =
        CounterValue(registry, "surveyor_query_cache_hits_total");
    const int64_t misses_before =
        CounterValue(registry, "surveyor_query_cache_misses_total");
    index_pass = TimePass(requests, [&](const Request& request) {
      CallIndex(index, request);
    });
    hits = CounterValue(registry, "surveyor_query_cache_hits_total") -
           hits_before;
    misses = CounterValue(registry, "surveyor_query_cache_misses_total") -
             misses_before;
    reload(false);
    service_pass = TimePass(requests, [&](const Request& request) {
      (void)query_service.Handle(request.method, request.target, request.body);
    });
    reload(false);
    admin_pass = TimePass(requests, [&](const Request& request) {
      (void)admin.Handle(request.method, request.target, request.body);
    });
    spans_ns += index_pass.total_ns + service_pass.total_ns +
                admin_pass.total_ns;
  });

  // lookup.ns_parallel: point lookups from nproc threads at once.
  std::vector<double> parallel_ns(threads, 0.0);
  std::vector<int64_t> parallel_count(threads, 0);
  phase([&] {
    reload(false);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        RequestStream points(&universe, seed, 2000 + t, /*all_kinds=*/false);
        std::vector<Request> lookups;
        for (size_t i = 0; i < num_requests; ++i) {
          lookups.push_back(points.Next());
        }
        const Clock::time_point start = Clock::now();
        for (const Request& request : lookups) {
          (void)index.Lookup(request.pairs[0].first, request.pairs[0].second);
        }
        parallel_ns[t] = NsSince(start);
        parallel_count[t] = static_cast<int64_t>(lookups.size());
      });
    }
    for (std::thread& worker : workers) worker.join();
    double busy = 0;
    for (double ns : parallel_ns) busy += ns;
    spans_ns += busy / threads;
  });

  // HTTP: the workload's own stream, closed loop, as the untraced run.
  status = admin.Start();
  if (!status.ok()) {
    std::cerr << "trace-serve: " << status.ToString() << "\n";
    return 1;
  }
  const int64_t shed_before = CounterValue(registry, "surveyor_http_shed_total");
  std::vector<double> transport_ns(connections, 0.0);
  std::vector<double> rtt_ns(connections, 0.0);
  std::vector<double> client_ns(connections, 0.0);
  std::vector<OpCounts> http_counts(connections);
  phase([&] {
    reload(false);
    const Clock::time_point until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(http_seconds));
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        HttpClient client(admin.port());
        RequestStream own(&universe, seed, 3000 + c, /*all_kinds=*/skewed);
        int code = 0;
        std::string body;
        for (int64_t seq = 0; Clock::now() < until; ++seq) {
          const Clock::time_point begin = Clock::now();
          Request request = own.Next();
          request.target += request.target.find('?') == std::string::npos
                                ? "?pbid="
                                : "&pbid=";
          request.target += std::to_string(c) + "." + std::to_string(seq);
          const Clock::time_point start = Clock::now();
          const bool delivered = client.Send(request.method, request.target,
                                             request.body, &code, &body);
          const double rtt = NsSince(start);
          const bool matched =
              slots[c].seq.load(std::memory_order_acquire) == seq;
          const bool ok = delivered && matched &&
                          CheckResponse(request, code, body, expected_a,
                                        &expected_b);
          http_counts[c].Record(ok);
          rtt_ns[c] += rtt;
          // The client's own work: building the request and checking the
          // answer.
          client_ns[c] += NsSince(begin) - rtt;
          if (matched) {
            transport_ns[c] +=
                rtt - static_cast<double>(
                          slots[c].ns.load(std::memory_order_relaxed));
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    double busy = 0;
    for (int c = 0; c < connections; ++c) busy += rtt_ns[c] + client_ns[c];
    spans_ns += busy / connections;
  });
  admin.Stop();
  if (!load_status.ok()) {
    std::cerr << "trace-serve: " << load_status.ToString() << "\n";
    return 1;
  }
  OpCounts http;
  double transport_total = 0;
  for (int c = 0; c < connections; ++c) {
    http.Merge(http_counts[c]);
    transport_total += transport_ns[c];
  }
  const int64_t shed =
      CounterValue(registry, "surveyor_http_shed_total") - shed_before;
  double rtt_total = 0;
  for (double ns : rtt_ns) rtt_total += ns;
  double client_total = 0;
  for (double ns : client_ns) client_total += ns;
  // The index calls' mean time per request of the HTTP phase's mix (point
  // lookups alone, or every shape), over that phase's mean round trip.
  const double index_share =
      (skewed ? index_pass.total_ns / static_cast<double>(requests.size())
              : index_pass.Mean(RequestKind::kPoint)) /
      (rtt_total / static_cast<double>(std::max<int64_t>(http.attempted, 1)));

  const auto count = [](const PassTimes& pass, RequestKind kind) {
    return pass.count[static_cast<int>(kind)];
  };
  double parallel_total = 0;
  int64_t parallel_lookups = 0;
  for (int t = 0; t < threads; ++t) {
    parallel_total += parallel_ns[t];
    parallel_lookups += parallel_count[t];
  }
  surveyor::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("attempted").Value(http.attempted);
  writer.Key("failed").Value(http.failed);
  writer.Key("wall_ns").Value(wall_ns);
  writer.Key("spans_ns").Value(spans_ns);
  writer.Key("metrics").BeginObject();
  writer.Key("load.ms").Value(Median(load_ns) * 1e-6);
  writer.Key("publish.ms").Value(Median(publish_ns) * 1e-6);
  writer.Key("lookup.ns").Value(index_pass.Mean(RequestKind::kPoint));
  writer.Key("lookup.ns_parallel")
      .Value(parallel_total / static_cast<double>(parallel_lookups));
  writer.Key("cache.hit_ratio")
      .Value(static_cast<double>(hits) /
             static_cast<double>(std::max<int64_t>(hits + misses, 1)));
  writer.Key("batch.ns_per_pair")
      .Value(index_pass.Mean(RequestKind::kBatch) / kBatchSize);
  writer.Key("scan.ns").Value(index_pass.Mean(RequestKind::kScan));
  writer.Key("prefix.ns").Value(index_pass.Mean(RequestKind::kPrefix));
  writer.Key("render.point_ns")
      .Value(service_pass.Mean(RequestKind::kPoint) -
             index_pass.Mean(RequestKind::kPoint));
  writer.Key("render.scan_ns")
      .Value(service_pass.Mean(RequestKind::kScan) -
             index_pass.Mean(RequestKind::kScan));
  writer.Key("render.batch_ns")
      .Value(service_pass.Mean(RequestKind::kBatch) -
             index_pass.Mean(RequestKind::kBatch));
  writer.Key("route.ns")
      .Value((admin_pass.total_ns - service_pass.total_ns) /
             static_cast<double>(requests.size()));
  writer.Key("transport.us")
      .Value(transport_total * 1e-3 /
             static_cast<double>(std::max<int64_t>(http.attempted, 1)));
  writer.Key("transport.shed").Value(shed);
  writer.Key("index.share").Value(index_share);
  writer.Key("client.us")
      .Value(client_total * 1e-3 /
             static_cast<double>(std::max<int64_t>(http.attempted, 1)));
  writer.Key("trace.req_per_s")
      .Value(static_cast<double>(http.attempted - http.failed) / http_seconds);
  writer.EndObject();
  writer.Key("requests_per_kind").BeginObject();
  for (int k = 0; k < kNumRequestKinds; ++k) {
    const RequestKind kind = static_cast<RequestKind>(k);
    writer.Key(RequestKindName(kind)).Value(count(index_pass, kind));
  }
  writer.EndObject().EndObject();
  std::cout << writer.str() << std::endl;
  return 0;
}

}  // namespace perfbench
