// Query-throughput snapshot for the serving layer (BENCH_query.json):
// point-lookup rates (a hot working set and uniform over every pair),
// batch lookups, type scans, the in-process handler path, request-tracing
// overhead, and multi-threaded scaling. Wire throughput over real sockets
// is bench/load_bench's job. Run via tools/run_bench.sh, which commits the
// refreshed snapshot; the committed numbers are the repo's record that
// point lookups sustain >= 100k/s and that default-rate tracing keeps at
// least half the disarmed handler throughput.
//
//   query_bench [out.json]   (default: BENCH_query.json)
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "obs/admin_server.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "serving/opinion_index.h"
#include "serving/query_service.h"
#include "serving/snapshot.h"
#include "util/logging.h"
#include "util/rng.h"

namespace surveyor {
namespace {

constexpr int kNumTypes = 8;
constexpr int kNumProperties = 12;
constexpr int kEntitiesPerType = 500;

/// A synthetic snapshot big enough that lookups miss the L1/L2 by
/// default: 4000 entities x 12 properties = 48k opinions.
std::string BuildSnapshot() {
  serving::SnapshotWriter writer;
  writer.set_label("query bench");
  Rng rng(1234);
  for (int t = 0; t < kNumTypes; ++t) {
    const std::string type = "type" + std::to_string(t);
    for (int e = 0; e < kEntitiesPerType; ++e) {
      char name[32];
      std::snprintf(name, sizeof(name), "entity-%d-%04d", t, e);
      for (int p = 0; p < kNumProperties; ++p) {
        serving::SnapshotOpinion opinion;
        opinion.entity = name;
        opinion.type = type;
        opinion.property = "prop" + std::to_string(p);
        opinion.posterior = rng.Uniform();
        opinion.polarity =
            opinion.posterior >= 0.5 ? Polarity::kPositive
                                     : Polarity::kNegative;
        SURVEYOR_CHECK(writer.Add(opinion).ok());
      }
    }
  }
  const std::string path = "/tmp/surveyor_query_bench.surv";
  SURVEYOR_CHECK(writer.WriteToFile(path).ok());
  return path;
}

std::string EntityName(uint64_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "entity-%d-%04d",
                static_cast<int>(i / kEntitiesPerType % kNumTypes),
                static_cast<int>(i % kEntitiesPerType));
  return name;
}

/// Lookups/second for `iterations` point lookups drawn by `next_key`.
template <typename NextKey>
double LookupsPerSecond(const serving::OpinionIndex& index, int iterations,
                        NextKey&& next_key) {
  // Warm pass: touch the mapped records and size the thread-local scratch
  // before the clock starts.
  for (int i = 0; i < iterations / 4; ++i) {
    const auto [entity, property] = next_key(i);
    (void)index.Lookup(entity, property);
  }
  bench::Stopwatch timer;
  for (int i = 0; i < iterations; ++i) {
    const auto [entity, property] = next_key(i);
    SURVEYOR_CHECK(index.Lookup(entity, property).ok());
  }
  return iterations / timer.ElapsedSeconds();
}

int Run(const std::string& out_path) {
  const std::string path = BuildSnapshot();

  serving::OpinionIndex index;
  SURVEYOR_CHECK(index.Load(path).ok());
  const size_t num_opinions = index.generation()->snapshot().num_opinions();

  // Hot: a 64-pair working set — the acceptance number (>= 100k/s) is
  // this one.
  const double hot_per_second =
      LookupsPerSecond(index, 1 << 18, [](int i) {
        return std::pair<std::string, std::string>(
            EntityName(static_cast<uint64_t>(i) % 8),
            "prop" + std::to_string(i % 8));
      });

  // Uniform over all 48k pairs, so lookups land all over the mapping.
  Rng rng(99);
  const double uniform_per_second =
      LookupsPerSecond(index, 1 << 16, [&rng](int) {
        return std::pair<std::string, std::string>(
            EntityName(rng.UniformInt(kNumTypes * kEntitiesPerType)),
            "prop" + std::to_string(rng.UniformInt(kNumProperties)));
      });

  // Batch: 64-pair batches over the hot set.
  std::vector<std::pair<std::string, std::string>> batch;
  for (int i = 0; i < 64; ++i) {
    batch.emplace_back(EntityName(static_cast<uint64_t>(i) % 32),
                       "prop" + std::to_string(i % kNumProperties));
  }
  bench::Stopwatch batch_timer;
  constexpr int kBatchRounds = 2000;
  for (int i = 0; i < kBatchRounds; ++i) {
    SURVEYOR_CHECK(index.BatchLookup(batch).size() == batch.size());
  }
  const double batch_lookups_per_second =
      kBatchRounds * static_cast<double>(batch.size()) /
      batch_timer.ElapsedSeconds();

  // Type scan ("safe cities"): 500 entities filtered + sorted per call.
  bench::Stopwatch scan_timer;
  constexpr int kScans = 500;
  for (int i = 0; i < kScans; ++i) {
    SURVEYOR_CHECK(
        !index.QueryType("type" + std::to_string(i % kNumTypes),
                         "prop" + std::to_string(i % kNumProperties), 10)
             .empty());
  }
  const double scans_per_second = kScans / scan_timer.ElapsedSeconds();

  // In-process handler path: URL parse -> readiness gate -> lookup ->
  // JSON. No socket is involved, hence the "synthetic" in the name.
  serving::QueryService service(&index, nullptr, &index.metrics());
  bench::Stopwatch service_timer;
  constexpr int kRequests = 1 << 16;
  for (int i = 0; i < kRequests; ++i) {
    SURVEYOR_CHECK(service
                       .Handle("GET",
                               "/v1/query?entity=" + EntityName(i % 8) +
                                   "&property=prop" + std::to_string(i % 8),
                               "")
                       .status == 200);
  }
  const double handler_calls_per_second =
      kRequests / service_timer.ElapsedSeconds();

  // Request-tracing overhead on the admin request path: the same hot
  // /v1/query handled through AdminServer::Handle (RequestScope + access
  // log around the dispatch) with tracing disarmed, at the default sample
  // rate, and with every request sampled. The committed ratio documents
  // what observability costs; the guard below fails the bench if default
  // sampling ever eats more than half the disarmed throughput.
  const auto admin_calls_per_second = [&](double sample_rate,
                                          double slow_query_ms,
                                          size_t access_log_capacity) {
    obs::MetricRegistry admin_metrics;
    serving::QueryService traced_service(&index, nullptr, &admin_metrics);
    obs::AdminServerOptions admin_options;
    admin_options.trace_sample_rate = sample_rate;
    admin_options.slow_query_ms = slow_query_ms;
    admin_options.access_log_capacity = access_log_capacity;
    obs::AdminServer server(&admin_metrics, nullptr, nullptr, admin_options);
    traced_service.Register(&server);
    constexpr int kAdminRequests = 1 << 15;
    // Warm pass so the measured loop is steady-state.
    for (int i = 0; i < kAdminRequests / 4; ++i) {
      (void)server.Handle("GET", "/v1/query?entity=" + EntityName(i % 8) +
                                     "&property=prop" + std::to_string(i % 8));
    }
    bench::Stopwatch timer;
    for (int i = 0; i < kAdminRequests; ++i) {
      SURVEYOR_CHECK(
          server
              .Handle("GET", "/v1/query?entity=" + EntityName(i % 8) +
                                 "&property=prop" + std::to_string(i % 8))
              .status == 200);
    }
    return kAdminRequests / timer.ElapsedSeconds();
  };
  const double traced_off_per_second =
      admin_calls_per_second(/*sample_rate=*/0.0, /*slow_query_ms=*/0.0,
                             /*access_log_capacity=*/0);
  const double traced_default_per_second =
      admin_calls_per_second(/*sample_rate=*/0.01, /*slow_query_ms=*/250.0,
                             /*access_log_capacity=*/512);
  const double traced_always_per_second =
      admin_calls_per_second(/*sample_rate=*/1.0, /*slow_query_ms=*/250.0,
                             /*access_log_capacity=*/512);

  // Concurrent hot lookups across 4 threads (the serving steady state).
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1 << 16;
  bench::Stopwatch threads_timer;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&index, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SURVEYOR_CHECK(
            index
                .Lookup(EntityName(static_cast<uint64_t>(t * 8 + i) % 32),
                        "prop" + std::to_string(i % 8))
                .ok());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double concurrent_per_second =
      kThreads * static_cast<double>(kPerThread) /
      threads_timer.ElapsedSeconds();

  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("benchmark")
      .Value("query.synthetic8x500x12")
      .Key("snapshot")
      .BeginObject()
      .Key("opinions")
      .Value(static_cast<int64_t>(num_opinions))
      .Key("entities")
      .Value(static_cast<int64_t>(index.generation()->snapshot().num_entities()))
      .Key("properties")
      .Value(static_cast<int64_t>(index.generation()->snapshot().num_properties()))
      .EndObject()
      .Key("lookups_per_second")
      .BeginObject()
      .Key("hot")
      .Value(hot_per_second)
      .Key("uniform")
      .Value(uniform_per_second)
      .Key("batch")
      .Value(batch_lookups_per_second)
      .Key("concurrent_4_threads")
      .Value(concurrent_per_second)
      .EndObject()
      .Key("type_scans_per_second")
      .Value(scans_per_second)
      .Key("handler_calls_per_second_synthetic")
      .Value(handler_calls_per_second)
      .Key("tracing")
      .BeginObject()
      .Key("admin_calls_per_second_disarmed")
      .Value(traced_off_per_second)
      .Key("admin_calls_per_second_default_sampling")
      .Value(traced_default_per_second)
      .Key("admin_calls_per_second_always_sampled")
      .Value(traced_always_per_second)
      .Key("default_sampling_relative_throughput")
      .Value(traced_off_per_second > 0
                 ? traced_default_per_second / traced_off_per_second
                 : 0.0)
      .EndObject()
      .EndObject();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << writer.str() << "\n";
  std::cout << "wrote " << out_path << ": "
            << static_cast<long long>(hot_per_second)
            << " hot point lookups/s ("
            << static_cast<long long>(uniform_per_second) << "/s uniform, "
            << static_cast<long long>(handler_calls_per_second)
            << " handler calls/s); tracing keeps "
            << static_cast<long long>(100.0 * traced_default_per_second /
                                      traced_off_per_second)
            << "% of disarmed admin throughput at the default sample rate\n";
  if (hot_per_second < 100000) {
    std::cerr << "query_bench: hot point lookups below the 100k/s "
                 "acceptance floor\n";
    return 1;
  }
  if (traced_default_per_second < 0.5 * traced_off_per_second) {
    std::cerr << "query_bench: default-rate tracing costs more than half "
                 "the disarmed admin throughput\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace surveyor

int main(int argc, char** argv) {
  return surveyor::Run(argc > 1 ? argv[1] : "BENCH_query.json");
}
