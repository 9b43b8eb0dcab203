#include "serving/api_envelope.h"

#include "obs/json_writer.h"

namespace surveyor {
namespace serving {

std::string_view ApiErrorCode(int status) {
  switch (status) {
    case 400:
      return "invalid_argument";
    case 404:
      return "not_found";
    case 405:
      return "method_not_allowed";
    case 408:
      return "timeout";
    case 409:
      return "conflict";
    case 413:
      return "payload_too_large";
    case 429:
      return "overloaded";
    case 501:
      return "unimplemented";
    case 503:
      return "unavailable";
    default:
      return "internal";
  }
}

void AppendApiErrorJson(std::string_view code, std::string_view message,
                        std::string* out) {
  out->append("{\"error\":{\"code\":\"");
  obs::AppendJsonEscaped(code, out);
  out->append("\",\"message\":\"");
  obs::AppendJsonEscaped(message, out);
  out->append("\"}}");
}

obs::AdminResponse ApiError(int status, std::string_view code,
                            std::string_view message) {
  obs::AdminResponse response;
  response.status = status;
  response.content_type = "application/json";
  AppendApiErrorJson(code, message, &response.body);
  response.body += '\n';
  return response;
}

obs::AdminResponse ApiError(int status, std::string_view message) {
  return ApiError(status, ApiErrorCode(status), message);
}

void BeginApiData(std::string* body) { body->append("{\"data\":"); }

void EndApiData(std::string* body) { body->append("}\n"); }

obs::AdminResponse ApiData(std::string_view json_value) {
  obs::AdminResponse response;
  response.content_type = "application/json";
  response.body.reserve(json_value.size() + 12);
  BeginApiData(&response.body);
  response.body += json_value;
  EndApiData(&response.body);
  return response;
}

}  // namespace serving
}  // namespace surveyor
