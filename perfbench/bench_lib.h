// Helpers shared by the benchmark tool and its self-test: the seeded
// random source, the Zipf sampler, latency summaries, failure accounting,
// the canonical snapshot digest, a minimal HTTP/1.1 keep-alive client, a
// JSON reader for response bodies, and the expected answers a snapshot
// implies for every query shape the workloads send.
#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serving/snapshot.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Keep-alive connections of the closed loop, in `load` and in the traced
/// run alike: one per core, from one client process. Busy threads wait
/// less on wake-ups, so on a shared 4-core box req/s and p99 repeated about
/// twice as closely as with half as many connections.
inline int ClientConnections() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

inline double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// SplitMix64: every stream the benchmark draws is a pure function of its
/// seed, independent of the library's own generators.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);
  size_t Sample(SeededRng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Median and p99 of a latency sample. p99 is the nearest-rank value; it
/// is reported only when at least ten samples lie beyond it
/// (`supported`), so a short run cannot pass off its maximum as a tail.
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  size_t beyond_p99 = 0;
  bool supported = false;
};
LatencySummary Summarize(std::vector<double> samples);

/// Median of a non-empty sample (mean of the middle two for even sizes).
double Median(std::vector<double> values);

/// Operations attempted and failed; a failure is a transport error, a
/// non-2xx status or a wrong answer.
struct OpCounts {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// One opinion row as the canonical digest sees it.
struct DigestRow {
  std::string entity;
  std::string type;
  std::string property;
  int polarity = 0;
  double posterior = 0.0;
};

std::vector<DigestRow> SnapshotRows(const surveyor::serving::Snapshot& snapshot);

/// FNV-1a over the rows sorted by (entity, type, property), with the
/// posterior's exact bits: equal for equal outputs whatever the row order.
uint64_t DigestRows(std::vector<DigestRow> rows);

std::string Hex64(uint64_t value);

/// Opens `path` with the serving library's reader and digests it.
struct SnapshotDigest {
  uint64_t digest = 0;
  size_t rows = 0;
};
bool DigestSnapshotFile(const std::string& path, SnapshotDigest* out,
                        std::string* error);

/// Minimal JSON value for reading response bodies.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;
  /// Member lookup; nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;
};
bool ParseJson(std::string_view text, Json* out);

/// One keep-alive HTTP/1.1 connection to 127.0.0.1.
class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one request and reads the whole response. Returns false on a
  /// transport error (the connection is dropped and reopened next call).
  bool Send(std::string_view method, std::string_view target,
            std::string_view body, int* status, std::string* response_body);

 private:
  bool Connect();
  void Close();
  int port_;
  int fd_ = -1;
  std::string request_;
  std::string buffer_;
};

std::string UrlEncode(std::string_view text);
std::string JsonEscape(std::string_view text);

/// Everything a snapshot says about the queries the workloads send.
class ExpectedAnswers {
 public:
  struct Opinion {
    std::string entity;
    std::string type;
    std::string property;
    double posterior = 0.0;
    int polarity = 0;
    bool degraded = false;
  };
  /// Builds from an open snapshot; the snapshot may be closed afterwards.
  explicit ExpectedAnswers(const surveyor::serving::Snapshot& snapshot);

  static std::string PairKey(std::string_view entity,
                             std::string_view property);
  static std::string BlockKey(std::string_view type, std::string_view property);

  /// nullptr when the snapshot holds no opinion for the pair.
  const Opinion* Find(std::string_view entity, std::string_view property) const;
  /// Positive opinions of a (type, property) block, strongest first.
  const std::vector<const Opinion*>* Positives(std::string_view type,
                                               std::string_view property) const;
  const std::vector<Opinion>& opinions() const { return opinions_; }

  /// Response checks: `data` is the envelope's "data" member.
  bool CheckPoint(const Json& data, std::string_view entity,
                  std::string_view property) const;
  bool CheckScan(const Json& data, std::string_view type,
                 std::string_view property, size_t limit) const;
  bool CheckPrefix(const Json& data, std::string_view prefix,
                   size_t limit) const;
  bool CheckBatch(const Json& data,
                  const std::vector<std::pair<std::string, std::string>>& pairs)
      const;

 private:
  bool MatchesOpinion(const Json& item, const Opinion& expected) const;
  std::vector<Opinion> opinions_;
  std::unordered_map<std::string, size_t> by_pair_;
  std::map<std::string, std::vector<const Opinion*>> positives_;
  /// (lower-cased name, snapshot name), sorted like the index sorts them.
  std::vector<std::pair<std::string, std::string>> sorted_names_;
};

/// The query shapes of the serving workloads.
enum class RequestKind { kPoint, kScan, kBatch, kPrefix };
inline constexpr int kNumRequestKinds = 4;
const char* RequestKindName(RequestKind kind);

struct Request {
  RequestKind kind = RequestKind::kPoint;
  std::string method;
  std::string target;
  std::string body;
  /// Point: one pair; batch: every pair.
  std::vector<std::pair<std::string, std::string>> pairs;
  std::string type;
  std::string property;
  std::string prefix;
};

inline constexpr size_t kScanLimit = 10;
inline constexpr size_t kPrefixLimit = 10;
inline constexpr size_t kBatchSize = 32;

/// The keys requests are drawn from: the pairs both generations hold (all
/// of the first's when there is one), so every request has an answer
/// whichever generation is serving. Pairs are drawn uniformly, or
/// Zipf-skewed over a seeded permutation when `skewed`.
class RequestUniverse {
 public:
  RequestUniverse(const ExpectedAnswers& a, const ExpectedAnswers* b,
                  bool skewed, uint64_t seed);
  bool skewed() const { return skewed_; }
  const std::vector<std::pair<std::string, std::string>>& pairs() const {
    return pairs_;
  }
  const std::vector<std::pair<std::string, std::string>>& blocks() const {
    return blocks_;
  }
  const std::vector<std::string>& prefixes() const { return prefixes_; }
  const ZipfSampler& zipf() const { return *zipf_; }

 private:
  bool skewed_;
  std::vector<std::pair<std::string, std::string>> pairs_;
  std::vector<std::pair<std::string, std::string>> blocks_;
  std::vector<std::string> prefixes_;
  std::unique_ptr<ZipfSampler> zipf_;
};

/// One connection's request sequence, a pure function of (seed, stream).
/// Point-only, or the mix of every query shape when `all_kinds`.
class RequestStream {
 public:
  RequestStream(const RequestUniverse* universe, uint64_t seed,
                uint64_t stream, bool all_kinds);
  Request Next();

 private:
  std::pair<std::string, std::string> DrawPair();
  const RequestUniverse* universe_;
  SeededRng rng_;
  bool all_kinds_;
};

/// Checks one response against one or two generations. For batches every
/// entry must come from the same generation.
bool CheckResponse(const Request& request, int status, std::string_view body,
                   const ExpectedAnswers& a, const ExpectedAnswers* b);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
