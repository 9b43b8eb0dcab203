#include "serving/query_service.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "obs/json_writer.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "model/opinion.h"
#include "serving/api_envelope.h"
#include "util/profile_tag.h"

namespace surveyor {
namespace serving {
namespace {

/// Decodes %XX and '+' in a URL query component.
std::string UrlDecode(std::string_view text) {
  auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '+') {
      out.push_back(' ');
    } else if (text[i] == '%' && i + 2 < text.size() &&
               hex(text[i + 1]) >= 0 && hex(text[i + 2]) >= 0) {
      out.push_back(
          static_cast<char>(hex(text[i + 1]) * 16 + hex(text[i + 2])));
      i += 2;
    } else {
      out.push_back(text[i]);
    }
  }
  return out;
}

std::map<std::string, std::string> ParseQueryParams(std::string_view target) {
  std::map<std::string, std::string> params;
  const size_t query = target.find('?');
  if (query == std::string_view::npos) return params;
  std::string_view rest = target.substr(query + 1);
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      if (!pair.empty()) params[UrlDecode(pair)] = "";
    } else {
      params[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
    }
  }
  return params;
}

void WriteOpinion(obs::JsonWriter* writer, const ServedOpinion& opinion) {
  writer->BeginObject()
      .Key("entity")
      .Value(opinion.entity)
      .Key("type")
      .Value(opinion.type)
      .Key("property")
      .Value(opinion.property)
      .Key("posterior")
      .Value(opinion.posterior)
      .Key("polarity")
      .Value(PolarityName(opinion.polarity))
      .Key("degraded")
      .Value(opinion.degraded);
  if (!opinion.provenance.empty()) {
    writer->Key("provenance").BeginArray();
    for (const StatementRef& ref : opinion.provenance) {
      writer->BeginObject()
          .Key("doc_id")
          .Value(ref.doc_id)
          .Key("sentence")
          .Value(ref.sentence_index)
          .Key("positive")
          .Value(ref.positive)
          .EndObject();
    }
    writer->EndArray();
  }
  writer->EndObject();
}

/// Strict scanner for the one JSON shape /v1/query/batch accepts:
/// {"queries":[{"entity":"..","property":".."}, ...]}. Unknown string
/// keys inside a query object are ignored; anything else is a parse
/// error — a query API should reject what it would silently drop.
class BatchParser {
 public:
  explicit BatchParser(std::string_view text) : text_(text) {}

  bool Parse(std::vector<std::pair<std::string, std::string>>* out) {
    SkipWs();
    if (!Consume('{')) return false;
    SkipWs();
    std::string key;
    if (!ParseString(&key) || key != "queries") return false;
    SkipWs();
    if (!Consume(':')) return false;
    SkipWs();
    if (!Consume('[')) return false;
    SkipWs();
    if (!Consume(']')) {
      for (;;) {
        std::string entity, property;
        if (!ParseQueryObject(&entity, &property)) return false;
        out->emplace_back(std::move(entity), std::move(property));
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

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          default: return false;  // \uXXXX et al.: not needed for names
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool ParseQueryObject(std::string* entity, std::string* property) {
    SkipWs();
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;  // empty object -> empty names -> 404s
    for (;;) {
      std::string key, value;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      if (!ParseString(&value)) return false;
      if (key == "entity") *entity = std::move(value);
      if (key == "property") *property = std::move(value);
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      return Consume('}');
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

size_t ParseLimit(const std::map<std::string, std::string>& params,
                  size_t fallback) {
  auto it = params.find("limit");
  if (it == params.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long value = std::strtol(it->second.c_str(), &end, 10);
  if (end != it->second.c_str() + it->second.size() || value <= 0) {
    return fallback;
  }
  return std::min(fallback, static_cast<size_t>(value));
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

obs::AdminResponse QueryService::HandleQuery(std::string_view method,
                                             std::string_view target) const {
  SURVEYOR_PROFILE_SCOPE("query");
  if (method != "GET" && method != "HEAD") {
    rejected_->Increment();
    return ApiError(405,
                    "/v1/query is GET-only; POST /v1/query/batch instead");
  }
  const auto params = ParseQueryParams(target);
  const auto has = [&params](const char* name) {
    auto it = params.find(name);
    return it != params.end() && !it->second.empty();
  };

  if (has("entity") && has("property")) {
    SURVEYOR_SPAN("query_service.point");
    const StatusOr<ServedOpinion> result =
        index_->Lookup(params.at("entity"), params.at("property"));
    if (!result.ok()) {
      const int status =
          result.status().code() == StatusCode::kNotFound ? 404 : 500;
      rejected_->Increment();
      return ApiError(status, result.status().message());
    }
    obs::JsonWriter writer;
    WriteOpinion(&writer, *result);
    return ApiData(writer.str());
  }

  if (has("type") && has("property")) {
    SURVEYOR_SPAN("query_service.type_scan");
    const std::vector<ServedOpinion> results =
        index_->QueryType(params.at("type"), params.at("property"),
                          ParseLimit(params, options_.max_results));
    obs::JsonWriter writer;
    writer.BeginObject().Key("results").BeginArray();
    for (const ServedOpinion& opinion : results) WriteOpinion(&writer, opinion);
    writer.EndArray().EndObject();
    return ApiData(writer.str());
  }

  if (has("prefix")) {
    SURVEYOR_SPAN("query_service.prefix");
    const std::vector<std::string> names = index_->PrefixScan(
        params.at("prefix"), ParseLimit(params, options_.max_results));
    obs::JsonWriter writer;
    writer.BeginObject().Key("entities").BeginArray();
    for (const std::string& name : names) writer.Value(name);
    writer.EndArray().EndObject();
    return ApiData(writer.str());
  }

  rejected_->Increment();
  return ApiError(400,
                  "need entity=&property=, type=&property=, or prefix=");
}

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
  std::vector<std::pair<std::string, std::string>> queries;
  if (!BatchParser(body).Parse(&queries)) {
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
  SURVEYOR_SPAN("query_service.batch");
  const std::vector<StatusOr<ServedOpinion>> results =
      index_->BatchLookup(queries);
  obs::JsonWriter writer;
  writer.BeginObject().Key("results").BeginArray();
  for (const StatusOr<ServedOpinion>& result : results) {
    if (result.ok()) {
      WriteOpinion(&writer, *result);
    } else {
      // Per-entry misses reuse the envelope's error object so batch
      // entries parse exactly like top-level failures.
      const int status =
          result.status().code() == StatusCode::kNotFound ? 404 : 500;
      writer.RawValue(ApiErrorJson(status, result.status().message()));
    }
  }
  writer.EndArray().EndObject();
  return ApiData(writer.str());
}

}  // namespace serving
}  // namespace surveyor
