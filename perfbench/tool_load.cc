// `perfbench_tool load`: one client process, one thread per keep-alive
// connection, each with one request in flight (a closed loop). A warm-up
// window is driven and discarded; the measured window records every
// round trip and checks every response against the snapshot(s).
#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "obs/json_writer.h"
#include "serving/generation_store.h"
#include "tool.h"

namespace perfbench {
namespace {

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// The measured window is cut into this many equal slices; each reported
// figure is the median over slices, so a burst of noise from outside the
// benchmark moves one slice and not the result.
constexpr int kSlices = 10;
// Seconds of load driven and discarded before measuring: the first
// requests after idle run 30-40% slow.
constexpr double kWarmupSeconds = 3.0;

struct ConnectionResult {
  /// (slice, round trip ns) per measured request.
  std::vector<std::pair<int, double>> latency_ns;
  int64_t ok_per_slice[kSlices] = {};
  OpCounts by_kind[kNumRequestKinds];
  OpCounts total;
};

}  // namespace

int RunLoad(const Flags& flags) {
  const int port = static_cast<int>(IntFlag(flags, "port", 0));
  const int connections = ClientConnections();
  const uint64_t seed = static_cast<uint64_t>(IntFlag(flags, "seed", 1));
  const bool mixed = Flag(flags, "mix") == "mixed";
  if (port <= 0 || Flag(flags, "seconds").empty()) {
    std::cerr << "load: need --port and --seconds\n";
    return 2;
  }
  const double seconds = std::stod(Flag(flags, "seconds"));
  const double warmup_s = kWarmupSeconds;

  surveyor::serving::Snapshot snapshot_a;
  surveyor::serving::Snapshot snapshot_b;
  surveyor::Status status = snapshot_a.Open(Flag(flags, "snapshot"));
  if (!status.ok()) {
    std::cerr << "load: " << status.ToString() << "\n";
    return 1;
  }
  const ExpectedAnswers expected_a(snapshot_a);
  std::unique_ptr<ExpectedAnswers> expected_b;
  if (!Flag(flags, "snapshot-b").empty()) {
    status = snapshot_b.Open(Flag(flags, "snapshot-b"));
    if (!status.ok()) {
      std::cerr << "load: " << status.ToString() << "\n";
      return 1;
    }
    expected_b = std::make_unique<ExpectedAnswers>(snapshot_b);
  }
  const RequestUniverse universe(expected_a, expected_b.get(), mixed, seed);

  std::vector<ConnectionResult> results(connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup_s));
  const Clock::time_point measure_until =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client(port);
      RequestStream stream(&universe, seed, static_cast<uint64_t>(c), mixed);
      ConnectionResult& result = results[c];
      result.latency_ns.reserve(1 << 20);
      int code = 0;
      std::string body;
      for (;;) {
        const Request request = stream.Next();
        const Clock::time_point sent = Clock::now();
        if (sent >= measure_until) break;
        const bool delivered =
            client.Send(request.method, request.target, request.body, &code,
                        &body);
        const double rtt = NsSince(sent);
        if (sent < measure_from) continue;
        const bool ok = delivered && CheckResponse(request, code, body,
                                                   expected_a,
                                                   expected_b.get());
        const double since =
            std::chrono::duration<double>(sent - measure_from).count();
        const int slice = std::min(
            kSlices - 1, static_cast<int>(kSlices * since / seconds));
        result.latency_ns.emplace_back(slice, rtt);
        if (ok) ++result.ok_per_slice[slice];
        result.total.Record(ok);
        result.by_kind[static_cast<int>(request.kind)].Record(ok);
      }
    });
  }
  // Writes beside the reads: with --store, publish the other generation
  // through GenerationStore and POST /v1/admin/reload once mid-warm-up and
  // once in the middle of every slice, so each slice holds one swap.
  OpCounts reloads;
  std::vector<double> reload_ms, publish_ms;
  if (!Flag(flags, "store").empty()) {
    threads.emplace_back([&] {
      surveyor::serving::GenerationStore store(Flag(flags, "store"));
      const surveyor::Status opened = store.Open();
      HttpClient client(port);
      const std::string images[] = {Flag(flags, "snapshot-b"),
                                    Flag(flags, "snapshot")};
      const double slice_s = seconds / kSlices;
      for (int i = -1; i < kSlices; ++i) {
        const double at = i < 0 ? warmup_s / 2 : warmup_s + (i + 0.5) * slice_s;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(at)));
        Clock::time_point t = Clock::now();
        const surveyor::StatusOr<uint64_t> id =
            opened.ok() ? store.PublishFile(images[(i + 1) % 2])
                        : surveyor::StatusOr<uint64_t>(opened);
        const double published = NsSince(t) * 1e-6;
        t = Clock::now();
        int code = 0;
        std::string body;
        const bool delivered =
            id.ok() && client.Send("POST", "/v1/admin/reload", "", &code, &body);
        const double rtt = NsSince(t) * 1e-6;
        Json reply;
        const Json* data = nullptr;
        if (delivered && code == 200 && ParseJson(body, &reply)) {
          data = reply.Find("data");
        }
        const Json* generation = data ? data->Find("generation") : nullptr;
        const bool ok = generation != nullptr &&
                        generation->kind == Json::Kind::kNumber &&
                        generation->number == static_cast<double>(*id);
        if (i < 0) continue;
        reloads.Record(ok);
        reload_ms.push_back(rtt);
        publish_ms.push_back(published);
      }
    });
  }
  std::this_thread::sleep_until(measure_from);
  const double cpu_from = CpuSeconds();
  for (std::thread& thread : threads) thread.join();
  const double cpu_seconds = CpuSeconds() - cpu_from;

  std::vector<double> latencies;
  std::vector<double> slice_latencies[kSlices];
  int64_t slice_ok[kSlices] = {};
  OpCounts total;
  OpCounts by_kind[kNumRequestKinds];
  surveyor::obs::JsonWriter writer;
  writer.BeginObject().Key("per_connection").BeginArray();
  for (const ConnectionResult& result : results) {
    for (const auto& [slice, ns] : result.latency_ns) {
      latencies.push_back(ns);
      slice_latencies[slice].push_back(ns);
    }
    for (int i = 0; i < kSlices; ++i) slice_ok[i] += result.ok_per_slice[i];
    total.Merge(result.total);
    for (int k = 0; k < kNumRequestKinds; ++k) {
      by_kind[k].Merge(result.by_kind[k]);
    }
    writer.Value(result.total.attempted);
  }
  writer.EndArray();
  const LatencySummary summary = Summarize(std::move(latencies));
  std::vector<double> slice_rate, slice_p50, slice_p99;
  bool supported = summary.supported;
  size_t fewest_beyond = summary.beyond_p99;
  for (int i = 0; i < kSlices; ++i) {
    const LatencySummary part = Summarize(std::move(slice_latencies[i]));
    slice_rate.push_back(static_cast<double>(slice_ok[i]) * kSlices / seconds);
    slice_p50.push_back(part.p50);
    slice_p99.push_back(part.p99);
    supported = supported && part.supported;
    fewest_beyond = std::min(fewest_beyond, part.beyond_p99);
  }
  writer.Key("attempted").Value(total.attempted);
  writer.Key("failed").Value(total.failed);
  writer.Key("seconds").Value(seconds);
  writer.Key("slices").Value(kSlices);
  writer.Key("req_per_s").Value(Median(slice_rate));
  writer.Key("p50_ms").Value(Median(slice_p50) * 1e-6);
  writer.Key("p99_ms").Value(Median(slice_p99) * 1e-6);
  writer.Key("whole_run").BeginObject()
      .Key("req_per_s")
      .Value(static_cast<double>(total.attempted - total.failed) / seconds)
      .Key("p50_ms").Value(summary.p50 * 1e-6)
      .Key("p99_ms").Value(summary.p99 * 1e-6)
      .EndObject();
  writer.Key("samples").Value(static_cast<int64_t>(summary.samples));
  writer.Key("beyond_p99").Value(static_cast<int64_t>(fewest_beyond));
  writer.Key("p99_supported").Value(supported);
  writer.Key("client_cpu_s").Value(cpu_seconds);
  writer.Key("connections").Value(static_cast<int64_t>(connections));
  writer.Key("reloads").BeginObject();
  writer.Key("attempted").Value(reloads.attempted);
  writer.Key("failed").Value(reloads.failed);
  writer.Key("reload_ms").BeginArray();
  for (double ms : reload_ms) writer.Value(ms);
  writer.EndArray().Key("publish_ms").BeginArray();
  for (double ms : publish_ms) writer.Value(ms);
  writer.EndArray().EndObject();
  writer.Key("by_kind").BeginObject();
  for (int k = 0; k < kNumRequestKinds; ++k) {
    writer.Key(RequestKindName(static_cast<RequestKind>(k)))
        .BeginObject()
        .Key("attempted")
        .Value(by_kind[k].attempted)
        .Key("failed")
        .Value(by_kind[k].failed)
        .EndObject();
  }
  writer.EndObject().EndObject();
  std::cout << writer.str() << std::endl;
  return 0;
}

}  // namespace perfbench
