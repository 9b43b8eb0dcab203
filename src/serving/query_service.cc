#include "serving/query_service.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "model/opinion.h"
#include "obs/json_writer.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "serving/api_envelope.h"
#include "serving/query_service_internal.h"
#include "util/hotpath.h"
#include "util/profile_tag.h"

namespace surveyor {
namespace serving {
namespace query_service_internal {

SURVEYOR_HOT_FUNCTION
bool BatchParser::Parse(size_t expected, std::vector<Query>* out) {
  // A query object takes at least three bytes ("{}" and a separator),
  // which bounds the count without a pass over the body.
  out->reserve(std::min(expected, text_.size() / 3));
  SkipWs();
  if (!Consume('{')) return false;
  SkipWs();
  std::string_view key;
  if (!ParseString(&key) || key != "queries") return false;
  SkipWs();
  if (!Consume(':')) return false;
  SkipWs();
  if (!Consume('[')) return false;
  SkipWs();
  if (!Consume(']')) {
    for (;;) {
      Query query;
      if (!ParseQueryObject(&query)) return false;
      out->push_back(query);
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      if (Consume(']')) break;
      return false;
    }
  }
  SkipWs();
  if (!Consume('}')) return false;
  SkipWs();
  return pos_ == text_.size();
}

void BatchParser::SkipWs() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool BatchParser::Consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

SURVEYOR_HOT_FUNCTION
bool BatchParser::ParseString(std::string_view* out) {
  if (!Consume('"')) return false;
  // The string ends at the first quote unless an escape comes before it,
  // which may escape that quote: then it is decoded byte by byte.
  const char* begin = text_.data() + pos_;
  const size_t rest = text_.size() - pos_;
  const auto* quote = static_cast<const char*>(std::memchr(begin, '"', rest));
  if (quote == nullptr) return false;
  const auto length = static_cast<size_t>(quote - begin);
  if (std::memchr(begin, '\\', length) != nullptr) return DecodeString(out);
  *out = std::string_view(begin, length);
  pos_ += length + 1;
  return true;
}

SURVEYOR_HOT_FUNCTION
bool BatchParser::DecodeString(std::string_view* out) {
  // Decoded strings are shorter than their text, so one reservation for
  // the whole body holds every one of them.
  if (scratch_->capacity() < text_.size()) scratch_->reserve(text_.size());
  const size_t begin = scratch_->size();
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') {
      *out = std::string_view(*scratch_).substr(begin);
      return true;
    }
    if (c != '\\') {
      scratch_->push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_++]) {
      case '"': scratch_->push_back('"'); break;
      case '\\': scratch_->push_back('\\'); break;
      case '/': scratch_->push_back('/'); break;
      case 'n': scratch_->push_back('\n'); break;
      case 't': scratch_->push_back('\t'); break;
      case 'r': scratch_->push_back('\r'); break;
      default: return false;  // \uXXXX et al.: not needed for names
    }
  }
  return false;
}

bool BatchParser::ParseQueryObject(Query* query) {
  SkipWs();
  if (!Consume('{')) return false;
  SkipWs();
  if (Consume('}')) return true;  // empty object -> empty names -> 404s
  for (;;) {
    std::string_view key, value;
    if (!ParseString(&key)) return false;
    SkipWs();
    if (!Consume(':')) return false;
    SkipWs();
    if (!ParseString(&value)) return false;
    if (key == "entity") query->first = value;
    if (key == "property") query->second = value;
    SkipWs();
    if (Consume(',')) {
      SkipWs();
      continue;
    }
    return Consume('}');
  }
}

}  // namespace query_service_internal

namespace {

using query_service_internal::BatchParser;

/// Body bytes reserved per answer and for the envelope around them: an
/// answer without provenance renders to 100-150 bytes for typical names,
/// so a body rarely grows past its reservation.
constexpr size_t kAnswerBytes = 192;
constexpr size_t kEnvelopeBytes = 32;

/// The /v1/query parameters, as views into the target or, for a component
/// that held a %XX or '+' escape, into the decode scratch. A parameter
/// given twice takes its last value; one given without '=' is empty.
struct QueryParams {
  std::string_view entity;
  std::string_view property;
  std::string_view type;
  std::string_view prefix;
  std::string_view limit;
};

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Splits the target's query string into QueryParams. Components are
/// URL-decoded (%XX and '+'); one without an escape is used in place, and
/// one with an escape is decoded onto the end of `scratch`, which is
/// reserved for the whole query string first, so no earlier view moves.
SURVEYOR_HOT_FUNCTION
QueryParams ParseQueryParams(std::string_view target, std::string* scratch) {
  QueryParams params;
  const size_t query = target.find('?');
  if (query == std::string_view::npos) return params;
  std::string_view rest = target.substr(query + 1);
  if (rest.find_first_of("%+") != std::string_view::npos) {
    scratch->reserve(rest.size());
  }
  const auto decode = [scratch](std::string_view text) {
    if (text.find_first_of("%+") == std::string_view::npos) return text;
    const size_t begin = scratch->size();
    for (size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '+') {
        scratch->push_back(' ');
      } else if (text[i] == '%' && i + 2 < text.size() &&
                 HexDigit(text[i + 1]) >= 0 && HexDigit(text[i + 2]) >= 0) {
        scratch->push_back(static_cast<char>(HexDigit(text[i + 1]) * 16 +
                                             HexDigit(text[i + 2])));
        i += 2;
      } else {
        scratch->push_back(text[i]);
      }
    }
    return std::string_view(*scratch).substr(begin);
  };
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    const std::string_view key = decode(pair.substr(0, eq));
    const std::string_view value = eq == std::string_view::npos
                                       ? std::string_view()
                                       : decode(pair.substr(eq + 1));
    if (key == "entity") {
      params.entity = value;
    } else if (key == "property") {
      params.property = value;
    } else if (key == "type") {
      params.type = value;
    } else if (key == "prefix") {
      params.prefix = value;
    } else if (key == "limit") {
      params.limit = value;
    }
  }
  return params;
}

/// The limit= value, read the way strtol reads a number (leading
/// whitespace, an optional sign, decimal digits) and taken only when all
/// of it is a positive number; `fallback` otherwise, and as the cap.
SURVEYOR_HOT_FUNCTION
size_t ParseLimit(std::string_view raw, size_t fallback) {
  const size_t digits = raw.find_first_not_of(" \t\n\v\f\r");
  if (digits == std::string_view::npos) return fallback;
  raw.remove_prefix(digits);
  const bool negative = raw.front() == '-';
  if (raw.front() == '+' || raw.front() == '-') raw.remove_prefix(1);
  uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(raw.data(), raw.data() + raw.size(), value);
  if (end == raw.data() || end != raw.data() + raw.size() || negative ||
      value == 0 || error != std::errc()) {
    return fallback;
  }
  return static_cast<size_t>(std::min<uint64_t>(fallback, value));
}

int HttpStatusOf(const Status& status) {
  return status.code() == StatusCode::kNotFound ? 404 : 500;
}

/// An empty 200 application/json response.
obs::AdminResponse JsonResponse() {
  obs::AdminResponse response;
  response.content_type = "application/json";
  return response;
}

SURVEYOR_HOT_FUNCTION
void AppendInteger(int64_t value, std::string* out) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, static_cast<size_t>(result.ptr - buffer));
}

char* Put(std::string_view text, char* out) {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

/// `text` JSON-escaped at `out`, given its escaped size: a plain copy when
/// no byte of it needs an escape, as is usual for a name.
char* PutEscaped(std::string_view text, size_t escaped_size, char* out) {
  return escaped_size == text.size() ? Put(text, out)
                                     : obs::WriteJsonEscaped(text, out);
}

/// Appends one answer: {"entity","type","property","posterior",
/// "polarity","degraded"} plus "provenance" when the pair has samples.
/// All but the provenance is sized first and then written with one
/// capacity check, the literals copied at their compile-time lengths.
SURVEYOR_HOT_FUNCTION
void AppendOpinion(const ServedOpinion& opinion, std::string* out) {
  static constexpr std::string_view kEntity = "{\"entity\":\"";
  static constexpr std::string_view kType = "\",\"type\":\"";
  static constexpr std::string_view kProperty = "\",\"property\":\"";
  static constexpr std::string_view kPosterior = "\",\"posterior\":";
  static constexpr std::string_view kPolarity = ",\"polarity\":\"";
  char number[obs::kJsonNumberBufferSize];
  const size_t number_size = obs::FormatJsonNumber(opinion.posterior, number);
  const std::string_view polarity = PolarityName(opinion.polarity);
  const std::string_view degraded = opinion.degraded
                                        ? "\",\"degraded\":true"
                                        : "\",\"degraded\":false";
  const bool closed = opinion.provenance.empty();
  const size_t entity_size = obs::JsonEscapedSize(opinion.entity);
  const size_t type_size = obs::JsonEscapedSize(opinion.type);
  const size_t property_size = obs::JsonEscapedSize(opinion.property);
  const size_t polarity_size = obs::JsonEscapedSize(polarity);
  const size_t size = kEntity.size() + entity_size + kType.size() +
                      type_size + kProperty.size() + property_size +
                      kPosterior.size() + number_size + kPolarity.size() +
                      polarity_size + degraded.size() + (closed ? 1 : 0);
  const size_t start = out->size();
  out->resize(start + size);
  char* p = out->data() + start;
  p = PutEscaped(opinion.entity, entity_size, Put(kEntity, p));
  p = PutEscaped(opinion.type, type_size, Put(kType, p));
  p = PutEscaped(opinion.property, property_size, Put(kProperty, p));
  p = Put({number, number_size}, Put(kPosterior, p));
  p = PutEscaped(polarity, polarity_size, Put(kPolarity, p));
  p = Put(degraded, p);
  if (closed) {
    *p = '}';
    return;
  }
  out->append(",\"provenance\":[");
  for (size_t i = 0; i < opinion.provenance.size(); ++i) {
    const StatementRef ref = opinion.provenance[i];
    out->append(i == 0 ? "{\"doc_id\":" : ",{\"doc_id\":");
    AppendInteger(ref.doc_id, out);
    out->append(",\"sentence\":");
    AppendInteger(ref.sentence_index, out);
    out->append(ref.positive ? ",\"positive\":true}"
                             : ",\"positive\":false}");
  }
  out->append("]}");
}

}  // namespace

QueryService::QueryService(const OpinionIndex* index,
                           const obs::StageTracker* stage,
                           obs::MetricRegistry* metrics,
                           QueryServiceOptions options)
    : index_(index),
      stage_(stage),
      metrics_(metrics != nullptr ? metrics : &index->metrics()),
      options_(options) {
  // In-process query handling takes microseconds; start the buckets at
  // 1us and cover up to ~65ms before the overflow bucket.
  latency_ = metrics_->GetHistogram(
      "surveyor_query_latency_seconds",
      obs::HistogramOptions{/*first_bound=*/1e-6, /*growth=*/2.0,
                            /*num_finite_buckets=*/17});
  requests_ = metrics_->GetCounter("surveyor_query_requests_total");
  rejected_ = metrics_->GetCounter("surveyor_query_rejected_total");
  metrics_->SetHelp("surveyor_query_latency_seconds",
                    "End-to-end /v1/query and /v1/query/batch handling "
                    "latency");
  metrics_->SetHelp("surveyor_query_rejected_total",
                    "Queries refused before lookup (not ready, bad request)");
}

void QueryService::Register(obs::AdminServer* server) {
  const auto handler = [this](std::string_view method,
                              std::string_view target,
                              std::string_view body) {
    return Handle(method, target, body);
  };
  server->AddHandler("/v1/query", handler);
}

obs::AdminResponse QueryService::Handle(std::string_view method,
                                        std::string_view target,
                                        std::string_view body) const {
  const auto start = std::chrono::steady_clock::now();
  requests_->Increment();
  const size_t query_pos = target.find('?');
  const std::string_view path = query_pos == std::string_view::npos
                                    ? target
                                    : target.substr(0, query_pos);
  obs::AdminResponse response;
  if (stage_ != nullptr && !stage_->ready()) {
    rejected_->Increment();
    response = ApiError(
        503, "index not ready (stage " +
                 std::string(obs::PipelineStageName(stage_->stage())) + ")");
    response.headers.emplace_back("Retry-After", "1");
  } else if (path == "/v1/query/batch") {
    response = HandleBatch(method, body);
  } else if (path == "/v1/query") {
    response = HandleQuery(method, target);
  } else {
    rejected_->Increment();
    response = ApiError(404, "unknown query endpoint");
  }
  // The exemplar links the latency bucket to this request's trace on
  // /tracez; only head-sampled requests qualify, so every exemplar id on
  // /metrics resolves to a retained trace.
  latency_->Record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count(),
      obs::CurrentSampledTraceId());
  return response;
}

SURVEYOR_HOT_FUNCTION
obs::AdminResponse QueryService::HandleQuery(std::string_view method,
                                             std::string_view target) const {
  SURVEYOR_PROFILE_SCOPE("query");
  if (method != "GET" && method != "HEAD") {
    rejected_->Increment();
    return ApiError(405,
                    "/v1/query is GET-only; POST /v1/query/batch instead");
  }
  // NOLINTNEXTLINE_HOTPATH(no-heap-alloc) empty unless a value is escaped
  std::string scratch;
  const QueryParams params = ParseQueryParams(target, &scratch);

  if (!params.entity.empty() && !params.property.empty()) {
    SURVEYOR_SPAN("query_service.point");
    const GenerationPtr generation = index_->generation();
    const StatusOr<ServedOpinion> answer =
        index_->Lookup(generation, params.entity, params.property);
    if (!answer.ok()) {
      rejected_->Increment();
      return ApiError(HttpStatusOf(answer.status()),
                      answer.status().message());
    }
    obs::AdminResponse response = JsonResponse();
    response.body.reserve(kEnvelopeBytes + kAnswerBytes);
    BeginApiData(&response.body);
    AppendOpinion(*answer, &response.body);
    EndApiData(&response.body);
    return response;
  }

  if (!params.type.empty() && !params.property.empty()) {
    SURVEYOR_SPAN("query_service.type_scan");
    const GenerationPtr generation = index_->generation();
    const ScanRange answers =
        index_->QueryType(generation, params.type, params.property,
                          ParseLimit(params.limit, options_.max_results));
    obs::AdminResponse response = JsonResponse();
    response.body.reserve(kEnvelopeBytes + answers.size() * kAnswerBytes);
    BeginApiData(&response.body);
    response.body.append("{\"results\":[");
    for (size_t i = 0; i < answers.size(); ++i) {
      if (i > 0) response.body.push_back(',');
      AppendOpinion(answers[i], &response.body);
    }
    response.body.append("]}");
    EndApiData(&response.body);
    return response;
  }

  if (!params.prefix.empty()) {
    SURVEYOR_SPAN("query_service.prefix");
    const GenerationPtr generation = index_->generation();
    const NameRange names = index_->PrefixScan(
        generation, params.prefix,
        ParseLimit(params.limit, options_.max_results));
    obs::AdminResponse response = JsonResponse();
    response.body.reserve(kEnvelopeBytes + kAnswerBytes);
    BeginApiData(&response.body);
    response.body.append("{\"entities\":[");
    for (size_t i = 0; i < names.size(); ++i) {
      response.body.append(i == 0 ? "\"" : ",\"");
      obs::AppendJsonEscaped(names[i], &response.body);
      response.body.push_back('"');
    }
    response.body.append("]}");
    EndApiData(&response.body);
    return response;
  }

  rejected_->Increment();
  return ApiError(400,
                  "need entity=&property=, type=&property=, or prefix=");
}

SURVEYOR_HOT_FUNCTION
obs::AdminResponse QueryService::HandleBatch(std::string_view method,
                                             std::string_view body) const {
  SURVEYOR_PROFILE_SCOPE("query");
  // Method and parse failures go through the same ApiError path as every
  // other endpoint — no hand-rolled error bodies that could drift from
  // the envelope.
  if (method != "POST") {
    rejected_->Increment();
    return ApiError(405, "/v1/query/batch is POST-only");
  }
  // NOLINTNEXTLINE_HOTPATH(no-heap-alloc) empty unless a string is escaped
  std::string scratch;
  // NOLINTNEXTLINE_HOTPATH(no-heap-alloc) reserved once by Parse
  std::vector<BatchParser::Query> queries;
  if (!BatchParser(body, &scratch).Parse(options_.max_batch + 1, &queries)) {
    rejected_->Increment();
    return ApiError(400,
                    "body must be {\"queries\":[{\"entity\":..,"
                    "\"property\":..},..]}");
  }
  if (queries.size() > options_.max_batch) {
    rejected_->Increment();
    return ApiError(400, "batch too large (max " +
                             std::to_string(options_.max_batch) + ")");
  }
  // One span for the whole batch, however many pairs it holds: the
  // answers are found a group at a time, from one pin, and each group is
  // rendered before the next is found.
  SURVEYOR_SPAN("query_service.batch");
  const GenerationPtr generation = index_->generation();
  obs::AdminResponse response = JsonResponse();
  response.body.reserve(kEnvelopeBytes + queries.size() * kAnswerBytes);
  BeginApiData(&response.body);
  response.body.append("{\"results\":[");
  std::optional<StatusOr<ServedOpinion>> answers[Snapshot::kPairGroup];
  for (size_t first = 0; first < queries.size();
       first += Snapshot::kPairGroup) {
    const size_t count =
        std::min(Snapshot::kPairGroup, queries.size() - first);
    index_->FindGroup(generation, queries.data() + first, count, answers);
    for (size_t i = 0; i < count; ++i) {
      if (first + i > 0) response.body.push_back(',');
      const StatusOr<ServedOpinion>& answer = *answers[i];
      if (answer.ok()) {
        AppendOpinion(*answer, &response.body);
      } else {
        // Per-entry misses reuse the envelope's error object so batch
        // entries parse exactly like top-level failures.
        AppendApiErrorJson(ApiErrorCode(HttpStatusOf(answer.status())),
                           answer.status().message(), &response.body);
      }
    }
  }
  response.body.append("]}");
  EndApiData(&response.body);
  return response;
}

}  // namespace serving
}  // namespace surveyor
