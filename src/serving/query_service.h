#ifndef SURVEYOR_SERVING_QUERY_SERVICE_H_
#define SURVEYOR_SERVING_QUERY_SERVICE_H_

#include <string>
#include <string_view>

#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "serving/opinion_index.h"

namespace surveyor {
namespace serving {

struct QueryServiceOptions {
  /// Largest accepted /v1/query/batch request.
  size_t max_batch = 256;
  /// Result cap for type scans and prefix scans when the request does not
  /// pass its own (smaller) limit.
  size_t max_results = 100;
};

/// The HTTP face of the opinion index, mounted on the admin server so one
/// embedded plane serves both operators (/metrics, /statusz) and the
/// paper's end users (Section 1's subjective search):
///
///   GET  /v1/query?entity=E&property=P   one opinion (404 when Surveyor
///                                        mined nothing for the pair)
///   GET  /v1/query?type=T&property=P     "safe cities": affirming
///                                        entities of the type,
///                                        strongest first
///   GET  /v1/query?prefix=S              entity-name autocomplete
///   POST /v1/query/batch                 {"queries":[{"entity":..,
///                                        "property":..},..]} answered
///                                        per-entry in request order
///
/// Responses use the /v1 envelope (serving/api_envelope.h): {"data":...}
/// on success, {"error":{"code","message"}} on failure.
///
/// Requests are refused with 503 until the stage tracker reports ready,
/// so a process that is still mining (serve --after-mine setups) never
/// answers from a half-built index. Every request lands in the
/// surveyor_query_latency_seconds histogram.
class QueryService {
 public:
  /// `index` must outlive the service. `stage` may be null (always
  /// ready). `metrics` may be null (the index's registry is used).
  QueryService(const OpinionIndex* index, const obs::StageTracker* stage,
               obs::MetricRegistry* metrics,
               QueryServiceOptions options = {});

  /// Mounts /v1/query. Call before server->Start().
  void Register(obs::AdminServer* server);

  /// Pure request handling, exposed for tests (the transport-free analog
  /// of AdminServer::Handle).
  obs::AdminResponse Handle(std::string_view method, std::string_view target,
                            std::string_view body) const;

 private:
  obs::AdminResponse HandleQuery(std::string_view method,
                                 std::string_view target) const;
  obs::AdminResponse HandleBatch(std::string_view method,
                                 std::string_view body) const;

  const OpinionIndex* index_;
  const obs::StageTracker* stage_;
  obs::MetricRegistry* metrics_;
  QueryServiceOptions options_;
  obs::Histogram* latency_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* rejected_ = nullptr;
};

}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_SERVING_QUERY_SERVICE_H_
