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

std::string ApiErrorJson(int status, std::string_view message) {
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("error")
      .BeginObject()
      .Key("code")
      .Value(ApiErrorCode(status))
      .Key("message")
      .Value(message)
      .EndObject()
      .EndObject();
  return writer.str();
}

obs::AdminResponse ApiError(int status, std::string_view code,
                            std::string_view message) {
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("error")
      .BeginObject()
      .Key("code")
      .Value(code)
      .Key("message")
      .Value(message)
      .EndObject()
      .EndObject();
  obs::AdminResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = writer.str() + "\n";
  return response;
}

obs::AdminResponse ApiError(int status, std::string_view message) {
  return ApiError(status, ApiErrorCode(status), message);
}

obs::AdminResponse ApiData(std::string_view json_value) {
  obs::AdminResponse response;
  response.content_type = "application/json";
  response.body.reserve(json_value.size() + 12);
  response.body += "{\"data\":";
  response.body += json_value;
  response.body += "}\n";
  return response;
}

}  // namespace serving
}  // namespace surveyor
