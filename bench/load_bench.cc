// Open-loop HTTP load harness for the epoll serving tier: real sockets,
// keep-alive connections, fixed offered rates with an absolute per-thread
// schedule (so latency is measured from the *intended* send time — no
// coordinated omission), p50/p99/p999 latency, and the error mix per
// section. A final overload section shrinks the request queue and slows
// the backend to prove admission control answers 429 + Retry-After
// instead of hanging.
//
// The CI load-smoke job runs it and re-gates the JSON it writes with
// tools/check_serving_bench.py. The exit code holds the strict floors on
// the tiny-world snapshot: >= 9.5k req/s achieved at 10k offered with
// keep-alive, p99 < 5 ms, only 2xx/429 answers, and overload sheds.
//
//   load_bench <out.json>
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#define SURVEYOR_BENCH_HAVE_SOCKETS 1
#endif

#include "bench/bench_util.h"
#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "obs/admin_server.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "serving/opinion_index.h"
#include "serving/query_service.h"
#include "serving/snapshot.h"
#include "surveyor/api.h"
#include "util/logging.h"

#ifndef SURVEYOR_BENCH_HAVE_SOCKETS

int main() {
  std::cerr << "load_bench needs BSD sockets\n";
  return 1;
}

#else

namespace surveyor {
namespace {

using Clock = std::chrono::steady_clock;

/// One persistent keep-alive connection speaking just enough HTTP/1.1
/// to drive the serving tier: write a request, read status line +
/// headers, honor Content-Length. Reconnects lazily after errors.
class KeepAliveClient {
 public:
  explicit KeepAliveClient(int port) : port_(port) {}
  ~KeepAliveClient() { Disconnect(); }

  /// Sends one GET and reads the full response. Returns the HTTP status
  /// code, or -1 on a transport error (the connection is then dropped
  /// and re-established on the next call).
  int Get(const std::string& target) {
    if (fd_ < 0 && !Connect()) return -1;
    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
    if (!WriteAll(request)) {
      // The server may have idled us out between requests; one clean
      // reconnect attempt keeps keep-alive semantics honest.
      Disconnect();
      if (!Connect() || !WriteAll(request)) {
        Disconnect();
        return -1;
      }
    }
    const int status = ReadResponse();
    if (status < 0) Disconnect();
    return status;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Disconnect();
      return false;
    }
    return true;
  }

  void Disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool WriteAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool FillBuffer() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  /// Reads exactly one response off the connection; leftover bytes stay
  /// buffered for the next call (responses never split across Get()s
  /// here, but the parse does not assume that).
  int ReadResponse() {
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!FillBuffer()) return -1;
    }
    const std::string_view head(buffer_.data(), head_end);
    // "HTTP/1.1 200 OK" -> 200.
    const size_t space = head.find(' ');
    if (space == std::string_view::npos || space + 4 > head.size()) return -1;
    int status = 0;
    for (int i = 0; i < 3; ++i) {
      const char c = head[space + 1 + static_cast<size_t>(i)];
      if (c < '0' || c > '9') return -1;
      status = status * 10 + (c - '0');
    }
    size_t content_length = 0;
    size_t line = 0;
    while (line < head_end) {
      size_t eol = head.find("\r\n", line);
      if (eol == std::string_view::npos) eol = head_end;
      const std::string_view header = head.substr(line, eol - line);
      constexpr std::string_view kName = "content-length:";
      if (header.size() > kName.size()) {
        bool match = true;
        for (size_t i = 0; i < kName.size(); ++i) {
          const char c = header[i];
          const char lower =
              c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
          if (lower != kName[i]) {
            match = false;
            break;
          }
        }
        if (match) {
          for (const char c : header.substr(kName.size())) {
            if (c >= '0' && c <= '9') {
              content_length = content_length * 10 +
                               static_cast<size_t>(c - '0');
            }
          }
        }
      }
      line = eol + 2;
    }
    const size_t total = head_end + 4 + content_length;
    while (buffer_.size() < total) {
      if (!FillBuffer()) return -1;
    }
    buffer_.erase(0, total);
    return status;
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

struct SectionResult {
  std::string name;
  double offered_rate = 0.0;       // req/s the schedule asked for
  double achieved_rate = 0.0;      // completed requests / wall time
  double duration_seconds = 0.0;
  int64_t ok = 0;                  // 2xx
  int64_t shed = 0;                // 429
  int64_t other = 0;               // any other HTTP status
  int64_t transport_errors = 0;    // broken connections
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
};

double Percentile(std::vector<double>* sorted_ms, double q) {
  if (sorted_ms->empty()) return 0.0;
  const size_t index = std::min(
      sorted_ms->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms->size())));
  return (*sorted_ms)[index];
}

/// Open-loop load at a fixed offered rate: `threads` clients share the
/// schedule round-robin, each firing on its own absolute timeline
/// (start + k * interval). Latency is measured from the scheduled send
/// time, so a stalled server shows up as tail latency, not as a quietly
/// slower request stream.
SectionResult RunOpenLoop(const std::string& name, int port, double rate,
                          double seconds, int threads,
                          const std::vector<std::string>& targets) {
  SectionResult result;
  result.name = name;
  result.offered_rate = rate;
  const int64_t total =
      static_cast<int64_t>(rate * seconds);
  // Global schedule: request i fires at start + i/rate; thread t owns
  // slots t, t+threads, t+2*threads, ...
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));

  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(threads));
  std::vector<std::array<int64_t, 3>> counts(
      static_cast<size_t>(threads), {0, 0, 0});
  std::vector<int64_t> transport(static_cast<size_t>(threads), 0);

  bench::Stopwatch wall;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      KeepAliveClient client(port);
      std::vector<double>& lat = latencies[static_cast<size_t>(t)];
      lat.reserve(static_cast<size_t>(total / threads + 1));
      for (int64_t i = t; i < total; i += threads) {
        const Clock::time_point scheduled = start + i * interval;
        std::this_thread::sleep_until(scheduled);
        const std::string& target =
            targets[static_cast<size_t>(i) % targets.size()];
        const int status = client.Get(target);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      scheduled)
                .count();
        if (status < 0) {
          ++transport[static_cast<size_t>(t)];
          continue;
        }
        lat.push_back(ms);
        auto& bucket = counts[static_cast<size_t>(t)];
        if (status >= 200 && status < 300) {
          ++bucket[0];
        } else if (status == 429) {
          ++bucket[1];
        } else {
          ++bucket[2];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  result.duration_seconds = wall.ElapsedSeconds();

  std::vector<double> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  for (int t = 0; t < threads; ++t) {
    result.ok += counts[static_cast<size_t>(t)][0];
    result.shed += counts[static_cast<size_t>(t)][1];
    result.other += counts[static_cast<size_t>(t)][2];
    result.transport_errors += transport[static_cast<size_t>(t)];
  }
  const int64_t completed = result.ok + result.shed + result.other;
  result.achieved_rate =
      result.duration_seconds > 0
          ? static_cast<double>(completed) / result.duration_seconds
          : 0.0;
  result.p50_ms = Percentile(&all, 0.50);
  result.p99_ms = Percentile(&all, 0.99);
  result.p999_ms = Percentile(&all, 0.999);
  result.max_ms = all.empty() ? 0.0 : all.back();
  return result;
}

/// Closed-loop hammer: `threads` clients fire back-to-back for
/// `seconds`. Used for the overload section, where offered load must
/// exceed capacity by construction.
SectionResult RunClosedLoop(const std::string& name, int port, double seconds,
                            int threads,
                            const std::vector<std::string>& targets) {
  SectionResult result;
  result.name = name;
  std::vector<std::array<int64_t, 3>> counts(
      static_cast<size_t>(threads), {0, 0, 0});
  std::vector<int64_t> transport(static_cast<size_t>(threads), 0);
  std::atomic<bool> stop{false};

  bench::Stopwatch wall;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      KeepAliveClient client(port);
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const int status = client.Get(targets[i++ % targets.size()]);
        auto& bucket = counts[static_cast<size_t>(t)];
        if (status < 0) {
          ++transport[static_cast<size_t>(t)];
        } else if (status >= 200 && status < 300) {
          ++bucket[0];
        } else if (status == 429) {
          ++bucket[1];
        } else {
          ++bucket[2];
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) client.join();
  result.duration_seconds = wall.ElapsedSeconds();
  for (int t = 0; t < threads; ++t) {
    result.ok += counts[static_cast<size_t>(t)][0];
    result.shed += counts[static_cast<size_t>(t)][1];
    result.other += counts[static_cast<size_t>(t)][2];
    result.transport_errors += transport[static_cast<size_t>(t)];
  }
  const int64_t completed = result.ok + result.shed + result.other;
  result.achieved_rate =
      result.duration_seconds > 0
          ? static_cast<double>(completed) / result.duration_seconds
          : 0.0;
  return result;
}

void WriteSection(obs::JsonWriter* writer, const SectionResult& section) {
  writer->BeginObject()
      .Key("name")
      .Value(section.name)
      .Key("offered_rate")
      .Value(section.offered_rate)
      .Key("achieved_rate")
      .Value(section.achieved_rate)
      .Key("duration_seconds")
      .Value(section.duration_seconds)
      .Key("responses")
      .BeginObject()
      .Key("ok_2xx")
      .Value(section.ok)
      .Key("shed_429")
      .Value(section.shed)
      .Key("other")
      .Value(section.other)
      .Key("transport_errors")
      .Value(section.transport_errors)
      .EndObject()
      .Key("latency_ms")
      .BeginObject()
      .Key("p50")
      .Value(section.p50_ms)
      .Key("p99")
      .Value(section.p99_ms)
      .Key("p999")
      .Value(section.p999_ms)
      .Key("max")
      .Value(section.max_ms)
      .EndObject()
      .EndObject();
}

int Run(const std::string& out_path) {
  // Mine the tiny synthetic world through the public facade and freeze
  // the result — the same world the README walkthrough serves.
  World world = World::Generate(MakeTinyWorldConfig()).value();
  GeneratorOptions generator_options;
  generator_options.author_population = 4000;
  generator_options.seed = 19;
  const std::vector<RawDocument> corpus =
      CorpusGenerator(&world, generator_options).Generate();
  SurveyorConfig config;
  config.min_statements = 20;
  config.num_threads = 2;
  const auto mined = Mine(config, corpus, world.kb(), world.lexicon());
  SURVEYOR_CHECK(mined.ok());
  serving::SnapshotWriter writer;
  writer.set_label("load bench");
  SURVEYOR_CHECK(writer.AddResult(*mined, world.kb()).ok());
  const std::string path = "/tmp/surveyor_load_bench.surv";
  SURVEYOR_CHECK(writer.WriteToFile(path).ok());

  serving::OpinionIndex index;
  SURVEYOR_CHECK(index.Load(path).ok());

  // Request mix: every mined (entity, property) pair as a /v1/query
  // point lookup, URL-encoded.
  std::vector<std::string> targets;
  for (const PairOpinion& opinion : mined->Opinions()) {
    std::string entity = world.kb().entity(opinion.entity).canonical_name;
    for (size_t pos; (pos = entity.find(' ')) != std::string::npos;) {
      entity.replace(pos, 1, "%20");
    }
    targets.push_back("/v1/query?entity=" + entity +
                      "&property=" + opinion.property);
  }
  SURVEYOR_CHECK(!targets.empty());

  // --- Fixed-rate sections against a default-shaped server. -----------
  obs::MetricRegistry metrics;
  serving::QueryService service(&index, nullptr, &metrics);
  obs::AdminServerOptions options;
  options.trace_sample_rate = 0.01;  // production default: tracing on
  options.profiler_metrics = &metrics;
  obs::AdminServer server(&metrics, nullptr, nullptr, options);
  service.Register(&server);
  SURVEYOR_CHECK(server.Start().ok());

  const int client_threads = 2;
  // Warm the index cache and the connection path before measuring.
  (void)RunOpenLoop("warmup", server.port(), 2000.0, 0.5, client_threads,
                    targets);

  std::vector<SectionResult> sections;
  for (const double rate : {2000.0, 5000.0, 10000.0}) {
    char name[32];
    std::snprintf(name, sizeof(name), "keepalive_%dk",
                  static_cast<int>(rate / 1000));
    sections.push_back(RunOpenLoop(name, server.port(), rate, 2.0,
                                   client_threads, targets));
    const SectionResult& s = sections.back();
    std::cout << s.name << ": offered " << s.offered_rate << "/s, achieved "
              << static_cast<long long>(s.achieved_rate) << "/s, p50 "
              << s.p50_ms << " ms, p99 " << s.p99_ms << " ms, p999 "
              << s.p999_ms << " ms (" << s.ok << " ok, " << s.shed
              << " shed, " << s.other << " other, " << s.transport_errors
              << " transport)\n";
  }
  server.Stop();

  // --- Overload section: prove admission control sheds, never hangs. ---
  // A deliberately tiny server (one handler thread, shallow queue) with
  // a slowed backend, hammered closed-loop well past capacity. The
  // correct outcome is a mix of 200s and 429s and nothing else.
  obs::MetricRegistry overload_metrics;
  serving::QueryService overload_service(&index, nullptr, &overload_metrics);
  obs::AdminServerOptions overload_options;
  overload_options.handler_threads = 1;
  overload_options.queue_high_water = 4;
  overload_options.profiler_metrics = &overload_metrics;
  obs::AdminServer overload_server(&overload_metrics, nullptr, nullptr,
                                   overload_options);
  // The real /v1/query path, slowed to make the queue fill determinate:
  // 2 ms of handler time caps capacity at ~500/s against far more
  // offered load.
  overload_server.AddHandler(
      "/v1/query", [&overload_service](std::string_view method,
                                       std::string_view target,
                                       std::string_view body) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return overload_service.Handle(method, target, body);
      });
  SURVEYOR_CHECK(overload_server.Start().ok());
  SectionResult overload = RunClosedLoop("overload_shed", overload_server.port(),
                                         1.5, 8, targets);
  overload_server.Stop();
  std::cout << overload.name << ": achieved "
            << static_cast<long long>(overload.achieved_rate) << "/s ("
            << overload.ok << " ok, " << overload.shed << " shed, "
            << overload.other << " other, " << overload.transport_errors
            << " transport)\n";
  sections.push_back(overload);

  obs::JsonWriter json;
  json.BeginObject()
      .Key("benchmark")
      .Value("serving.load.tiny_world")
      .Key("transport")
      .Value("http/1.1 keep-alive, open-loop schedule")
      .Key("client_threads")
      .Value(client_threads)
      .Key("snapshot_opinions")
      .Value(static_cast<int64_t>(mined->stats.num_opinions))
      .Key("sections")
      .BeginArray();
  for (const SectionResult& section : sections) {
    WriteSection(&json, section);
  }
  json.EndArray().EndObject();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str() << "\n";
  std::cout << "wrote " << out_path << "\n";

  // Acceptance floors, mirrored by tools/check_serving_bench.py.
  const SectionResult& top = sections[sections.size() - 2];  // keepalive_10k
  if (top.achieved_rate < 10000.0 * 0.95) {
    std::cerr << "load_bench: 10k-offered section achieved only "
              << top.achieved_rate << " req/s\n";
    return 1;
  }
  if (top.p99_ms >= 5.0) {
    std::cerr << "load_bench: p99 " << top.p99_ms
              << " ms at 10k req/s breaches the 5 ms floor\n";
    return 1;
  }
  for (const SectionResult& section : sections) {
    if (section.other != 0 || section.transport_errors != 0) {
      std::cerr << "load_bench: section " << section.name
                << " saw non-2xx/429 responses\n";
      return 1;
    }
  }
  if (overload.shed == 0) {
    std::cerr << "load_bench: overload section never shed a request\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace surveyor

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: load_bench <out.json>\n";
    return 2;
  }
  return surveyor::Run(argv[1]);
}

#endif  // SURVEYOR_BENCH_HAVE_SOCKETS
