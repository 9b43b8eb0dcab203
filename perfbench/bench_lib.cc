#include "bench_lib.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <cctype>
#include <cstdio>
#include <set>
#include <tuple>

#include "model/opinion.h"
#include "util/string_util.h"

namespace perfbench {

using surveyor::serving::Snapshot;

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ZipfSampler::ZipfSampler(size_t n, double exponent) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& value : cdf_) value /= total;
}

size_t ZipfSampler::Sample(SeededRng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary summary;
  summary.samples = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  summary.p50 = Median(samples);
  // Nearest rank: the smallest value with at least 99% of samples at or
  // below it.
  const size_t rank = static_cast<size_t>(std::ceil(0.99 * n));
  summary.p99 = samples[rank - 1];
  summary.beyond_p99 = n - rank;
  summary.supported = summary.beyond_p99 >= 10;
  return summary;
}

std::vector<DigestRow> SnapshotRows(const Snapshot& snapshot) {
  std::vector<DigestRow> rows;
  rows.reserve(snapshot.num_opinions());
  for (const Snapshot::BlockView& block : snapshot.blocks()) {
    const std::string type(snapshot.TypeName(block.type_index));
    const std::string property(snapshot.PropertyName(block.property_index));
    for (uint32_t r = 0; r < block.record_count; ++r) {
      const Snapshot::RecordView record =
          Snapshot::ReadRecord(block.records, r);
      rows.push_back(DigestRow{std::string(snapshot.EntityName(
                                   record.entity_index)),
                               type, property,
                               static_cast<int>(record.polarity),
                               record.posterior});
    }
  }
  return rows;
}

uint64_t DigestRows(std::vector<DigestRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const DigestRow& x, const DigestRow& y) {
              return std::tie(x.entity, x.type, x.property) <
                     std::tie(y.entity, y.type, y.property);
            });
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  };
  for (const DigestRow& row : rows) {
    // Lengths delimit the strings so ("ab","c") and ("a","bc") differ.
    for (const std::string* text : {&row.entity, &row.type, &row.property}) {
      const uint64_t size = text->size();
      mix(&size, sizeof(size));
      mix(text->data(), text->size());
    }
    const int8_t polarity = static_cast<int8_t>(row.polarity);
    mix(&polarity, sizeof(polarity));
    uint64_t bits = 0;
    std::memcpy(&bits, &row.posterior, sizeof(bits));
    mix(&bits, sizeof(bits));
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool DigestSnapshotFile(const std::string& path, SnapshotDigest* out,
                        std::string* error) {
  Snapshot snapshot;
  const surveyor::Status opened = snapshot.Open(path);
  if (!opened.ok()) {
    *error = opened.ToString();
    return false;
  }
  std::vector<DigestRow> rows = SnapshotRows(snapshot);
  out->rows = rows.size();
  out->digest = DigestRows(std::move(rows));
  return true;
}

// --- JSON ------------------------------------------------------------------

const Json* Json::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  bool Document(Json* out) {
    if (!Value(out, 0)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          const unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16));
          pos_ += 4;
          if (code >= 0x80) return false;  // names here are ASCII
          out->push_back(static_cast<char>(code));
          break;
        }
        default: return false;
      }
    }
    return false;
  }
  bool Value(Json* out, int depth) {
    if (depth > 32) return false;
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = Json::Kind::kObject;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        SkipWs();
        std::string key;
        if (!String(&key)) return false;
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        Json value;
        if (!Value(&value, depth + 1)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_++] != '}') return false;
        return true;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = Json::Kind::kArray;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        Json value;
        if (!Value(&value, depth + 1)) return false;
        out->array.push_back(std::move(value));
        SkipWs();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_++] != ']') return false;
        return true;
      }
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    const std::string rest(text_.substr(pos_, 64));
    char* end = nullptr;
    out->number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    out->kind = Json::Kind::kNumber;
    pos_ += static_cast<size_t>(end - rest.c_str());
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, Json* out) {
  *out = Json();
  return JsonReader(text).Document(out);
}

// --- HTTP ------------------------------------------------------------------

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port_));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool HttpClient::Send(std::string_view method, std::string_view target,
                      std::string_view body, int* status,
                      std::string* response_body) {
  if (fd_ < 0 && !Connect()) return false;
  request_.clear();
  request_.append(method).append(" ").append(target).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!body.empty() || method == "POST") {
    request_.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  request_.append("\r\n").append(body);
  size_t sent = 0;
  while (sent < request_.size()) {
    const ssize_t n = ::send(fd_, request_.data() + sent,
                             request_.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Close();
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  // Read until the header block is complete, then Content-Length bytes.
  size_t header_end = std::string::npos;
  size_t content_length = 0;
  char chunk[16384];
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::string_view head(buffer_.data(), header_end);
        if (head.size() < 12 || head.substr(0, 5) != "HTTP/") {
          Close();
          return false;
        }
        *status = std::atoi(std::string(head.substr(9, 3)).c_str());
        const std::string lower = surveyor::ToLower(head);
        const size_t at = lower.find("\r\ncontent-length:");
        if (at == std::string::npos) {
          Close();
          return false;
        }
        content_length = static_cast<size_t>(
            std::strtoull(lower.c_str() + at + 17, nullptr, 10));
      }
    }
    if (header_end != std::string::npos &&
        buffer_.size() >= header_end + 4 + content_length) {
      response_body->assign(buffer_, header_end + 4, content_length);
      buffer_.erase(0, header_end + 4 + content_length);
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Close();
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string UrlEncode(std::string_view text) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '_' || c == '.') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 15]);
    }
  }
  return out;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// --- Expected answers --------------------------------------------------------

ExpectedAnswers::ExpectedAnswers(const Snapshot& snapshot) {
  for (DigestRow& row : SnapshotRows(snapshot)) {
    opinions_.push_back(Opinion{std::move(row.entity), std::move(row.type),
                                std::move(row.property), row.posterior,
                                row.polarity, false});
  }
  // Degraded flags live on the block; rows come out block by block.
  size_t next = 0;
  for (const Snapshot::BlockView& block : snapshot.blocks()) {
    for (uint32_t r = 0; r < block.record_count; ++r) {
      opinions_[next++].degraded = block.degraded;
    }
  }
  for (size_t i = 0; i < opinions_.size(); ++i) {
    const Opinion& opinion = opinions_[i];
    by_pair_.emplace(PairKey(opinion.entity, opinion.property), i);
    if (opinion.polarity ==
        static_cast<int>(surveyor::Polarity::kPositive)) {
      positives_[BlockKey(opinion.type, opinion.property)].push_back(
          &opinion);
    }
  }
  for (auto& [key, list] : positives_) {
    std::sort(list.begin(), list.end(),
              [](const Opinion* x, const Opinion* y) {
                if (x->posterior != y->posterior) {
                  return x->posterior > y->posterior;
                }
                return x->entity < y->entity;
              });
  }
  std::vector<std::pair<std::string, uint32_t>> names;
  for (uint32_t i = 0; i < snapshot.num_entities(); ++i) {
    names.emplace_back(surveyor::ToLower(snapshot.EntityName(i)), i);
  }
  std::sort(names.begin(), names.end());
  for (const auto& [lower, index] : names) {
    sorted_names_.emplace_back(lower, std::string(snapshot.EntityName(index)));
  }
}

std::string ExpectedAnswers::PairKey(std::string_view entity,
                                     std::string_view property) {
  return surveyor::ToLower(entity) + '\t' + surveyor::ToLower(property);
}

std::string ExpectedAnswers::BlockKey(std::string_view type,
                                      std::string_view property) {
  return PairKey(type, property);
}

const ExpectedAnswers::Opinion* ExpectedAnswers::Find(
    std::string_view entity, std::string_view property) const {
  const auto it = by_pair_.find(PairKey(entity, property));
  return it == by_pair_.end() ? nullptr : &opinions_[it->second];
}

const std::vector<const ExpectedAnswers::Opinion*>* ExpectedAnswers::Positives(
    std::string_view type, std::string_view property) const {
  const auto it = positives_.find(BlockKey(type, property));
  return it == positives_.end() ? nullptr : &it->second;
}

namespace {

const std::string* StringField(const Json& item, std::string_view key) {
  const Json* value = item.Find(key);
  return value != nullptr && value->kind == Json::Kind::kString
             ? &value->string
             : nullptr;
}

/// The server prints posteriors with ten significant digits.
bool SamePosterior(double served, double expected) {
  return std::fabs(served - expected) <= 1e-9 * std::fabs(expected) + 1e-300;
}

}  // namespace

bool ExpectedAnswers::MatchesOpinion(const Json& item,
                                     const Opinion& expected) const {
  const std::string* entity = StringField(item, "entity");
  const std::string* type = StringField(item, "type");
  const std::string* property = StringField(item, "property");
  const std::string* polarity = StringField(item, "polarity");
  const Json* posterior = item.Find("posterior");
  const Json* degraded = item.Find("degraded");
  if (entity == nullptr || type == nullptr || property == nullptr ||
      polarity == nullptr || posterior == nullptr || degraded == nullptr ||
      posterior->kind != Json::Kind::kNumber ||
      degraded->kind != Json::Kind::kBool) {
    return false;
  }
  return *entity == expected.entity && *type == expected.type &&
         *property == expected.property &&
         *polarity == surveyor::PolarityName(
                          static_cast<surveyor::Polarity>(expected.polarity)) &&
         SamePosterior(posterior->number, expected.posterior) &&
         degraded->boolean == expected.degraded;
}

bool ExpectedAnswers::CheckPoint(const Json& data, std::string_view entity,
                                 std::string_view property) const {
  const Opinion* expected = Find(entity, property);
  return expected != nullptr && MatchesOpinion(data, *expected);
}

bool ExpectedAnswers::CheckScan(const Json& data, std::string_view type,
                                std::string_view property,
                                size_t limit) const {
  const Json* results = data.Find("results");
  if (results == nullptr || results->kind != Json::Kind::kArray) return false;
  static const std::vector<const Opinion*> kNone;
  const std::vector<const Opinion*>* positives = Positives(type, property);
  if (positives == nullptr) positives = &kNone;
  const size_t want = std::min(limit, positives->size());
  if (results->array.size() != want) return false;
  if (want == 0) return true;
  // Any valid top-k: ties at the cut may come back in either order.
  const double cut = (*positives)[want - 1]->posterior;
  std::set<std::string> seen;
  double previous = INFINITY;
  for (const Json& item : results->array) {
    const std::string* entity = StringField(item, "entity");
    if (entity == nullptr || !seen.insert(*entity).second) return false;
    const Opinion* expected = Find(*entity, property);
    if (expected == nullptr || !MatchesOpinion(item, *expected) ||
        ExpectedAnswers::BlockKey(expected->type, expected->property) !=
            BlockKey(type, property) ||
        expected->posterior < cut || expected->posterior > previous) {
      return false;
    }
    previous = expected->posterior;
  }
  return true;
}

bool ExpectedAnswers::CheckPrefix(const Json& data, std::string_view prefix,
                                  size_t limit) const {
  const Json* entities = data.Find("entities");
  if (entities == nullptr || entities->kind != Json::Kind::kArray) return false;
  const std::string needle = surveyor::ToLower(prefix);
  auto it = std::lower_bound(
      sorted_names_.begin(), sorted_names_.end(), needle,
      [](const auto& entry, const std::string& p) { return entry.first < p; });
  size_t i = 0;
  for (; it != sorted_names_.end() && i < limit; ++it, ++i) {
    if (it->first.compare(0, needle.size(), needle) != 0) break;
    if (i >= entities->array.size() ||
        entities->array[i].kind != Json::Kind::kString ||
        entities->array[i].string != it->second) {
      return false;
    }
  }
  return entities->array.size() == i;
}

bool ExpectedAnswers::CheckBatch(
    const Json& data,
    const std::vector<std::pair<std::string, std::string>>& pairs) const {
  const Json* results = data.Find("results");
  if (results == nullptr || results->kind != Json::Kind::kArray ||
      results->array.size() != pairs.size()) {
    return false;
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!CheckPoint(results->array[i], pairs[i].first, pairs[i].second)) {
      return false;
    }
  }
  return true;
}

// --- Request streams ---------------------------------------------------------

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPoint: return "point";
    case RequestKind::kScan: return "scan";
    case RequestKind::kBatch: return "batch";
    case RequestKind::kPrefix: return "prefix";
  }
  return "?";
}

RequestUniverse::RequestUniverse(const ExpectedAnswers& a,
                                 const ExpectedAnswers* b, bool skewed,
                                 uint64_t seed)
    : skewed_(skewed) {
  for (const ExpectedAnswers::Opinion& opinion : a.opinions()) {
    if (b != nullptr && b->Find(opinion.entity, opinion.property) == nullptr) {
      continue;
    }
    pairs_.emplace_back(opinion.entity, opinion.property);
  }
  std::set<std::pair<std::string, std::string>> blocks;
  std::set<std::string> prefixes;
  for (const ExpectedAnswers::Opinion& opinion : a.opinions()) {
    if (a.Positives(opinion.type, opinion.property) != nullptr &&
        (b == nullptr || b->Positives(opinion.type, opinion.property))) {
      blocks.emplace(opinion.type, opinion.property);
    }
    const std::string lower = surveyor::ToLower(opinion.entity);
    if (lower.size() >= 2) prefixes.insert(lower.substr(0, 2));
  }
  blocks_.assign(blocks.begin(), blocks.end());
  prefixes_.assign(prefixes.begin(), prefixes.end());
  // The hot set of the Zipf draw is a seeded permutation, so a second
  // seed skews toward different pairs.
  SeededRng rng(seed ^ 0x7a1f5eedULL);
  for (size_t i = pairs_.size(); i > 1; --i) {
    std::swap(pairs_[i - 1], pairs_[rng.Below(i)]);
  }
  zipf_ = std::make_unique<ZipfSampler>(pairs_.size(), 1.0);
}

RequestStream::RequestStream(const RequestUniverse* universe, uint64_t seed,
                             uint64_t stream, bool all_kinds)
    : universe_(universe),
      rng_(seed * 0x100000001b3ULL + stream + 1),
      all_kinds_(all_kinds) {}

std::pair<std::string, std::string> RequestStream::DrawPair() {
  const auto& pairs = universe_->pairs();
  if (!universe_->skewed()) return pairs[rng_.Below(pairs.size())];
  return pairs[universe_->zipf().Sample(rng_)];
}

Request RequestStream::Next() {
  Request request;
  request.method = "GET";
  // All kinds: half point lookups, 30% type scans, 15% batches, 5% prefixes.
  const double draw = all_kinds_ ? rng_.Uniform() : 0.0;
  if (draw < 0.50) {
    request.kind = RequestKind::kPoint;
    request.pairs.push_back(DrawPair());
    request.target = "/v1/query?entity=" +
                     UrlEncode(request.pairs[0].first) +
                     "&property=" + UrlEncode(request.pairs[0].second);
  } else if (draw < 0.80) {
    request.kind = RequestKind::kScan;
    const auto& block =
        universe_->blocks()[rng_.Below(universe_->blocks().size())];
    request.type = block.first;
    request.property = block.second;
    request.target = "/v1/query?type=" + UrlEncode(block.first) +
                     "&property=" + UrlEncode(block.second) +
                     "&limit=" + std::to_string(kScanLimit);
  } else if (draw < 0.95) {
    request.kind = RequestKind::kBatch;
    request.method = "POST";
    request.target = "/v1/query/batch";
    request.body = "{\"queries\":[";
    for (size_t i = 0; i < kBatchSize; ++i) {
      request.pairs.push_back(DrawPair());
      if (i > 0) request.body += ',';
      request.body += "{\"entity\":\"" + JsonEscape(request.pairs[i].first) +
                      "\",\"property\":\"" +
                      JsonEscape(request.pairs[i].second) + "\"}";
    }
    request.body += "]}";
  } else {
    request.kind = RequestKind::kPrefix;
    request.prefix =
        universe_->prefixes()[rng_.Below(universe_->prefixes().size())];
    request.target = "/v1/query?prefix=" + UrlEncode(request.prefix) +
                     "&limit=" + std::to_string(kPrefixLimit);
  }
  return request;
}

namespace {

bool CheckAgainst(const Request& request, const Json& data,
                  const ExpectedAnswers& expected) {
  switch (request.kind) {
    case RequestKind::kPoint:
      return expected.CheckPoint(data, request.pairs[0].first,
                                 request.pairs[0].second);
    case RequestKind::kScan:
      return expected.CheckScan(data, request.type, request.property,
                                kScanLimit);
    case RequestKind::kBatch:
      return expected.CheckBatch(data, request.pairs);
    case RequestKind::kPrefix:
      return expected.CheckPrefix(data, request.prefix, kPrefixLimit);
  }
  return false;
}

}  // namespace

bool CheckResponse(const Request& request, int status, std::string_view body,
                   const ExpectedAnswers& a, const ExpectedAnswers* b) {
  if (status < 200 || status > 299) return false;
  Json envelope;
  if (!ParseJson(body, &envelope)) return false;
  const Json* data = envelope.Find("data");
  if (data == nullptr) return false;
  return CheckAgainst(request, *data, a) ||
         (b != nullptr && CheckAgainst(request, *data, *b));
}

}  // namespace perfbench
