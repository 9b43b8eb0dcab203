#ifndef SURVEYOR_SERVING_API_ENVELOPE_H_
#define SURVEYOR_SERVING_API_ENVELOPE_H_

#include <string>
#include <string_view>

#include "obs/admin_server.h"

namespace surveyor {
namespace serving {

/// The /v1 response envelope (DESIGN.md §15). Every versioned endpoint
/// speaks exactly two shapes:
///
///   success:  {"data": <endpoint-specific JSON value>}
///   failure:  {"error": {"code": "<stable-slug>", "message": "<human>"}}
///
/// `code` is the machine-readable contract (clients switch on it);
/// `message` is free-form and may change between releases. Both shapes
/// are application/json regardless of status.

/// Stable error-code slug for an HTTP status ("not_found", "overloaded",
/// ...). Unmapped statuses collapse to "internal".
std::string_view ApiErrorCode(int status);

/// A failure envelope carrying `status` and the code derived from it.
obs::AdminResponse ApiError(int status, std::string_view message);

/// A failure envelope with an explicit code (when one status spans
/// several client-distinguishable causes).
obs::AdminResponse ApiError(int status, std::string_view code,
                            std::string_view message);

/// Appends the {"error":{...}} JSON object (no trailing newline) — the
/// body of ApiError and the per-entry error shape in /v1/query/batch
/// results.
void AppendApiErrorJson(std::string_view code, std::string_view message,
                        std::string* out);

/// A success envelope: wraps an already-serialized JSON value as
/// {"data": value}. The value must be exactly one JSON value (object,
/// array, or scalar), e.g. a JsonWriter's str().
obs::AdminResponse ApiData(std::string_view json_value);

/// The success envelope written in place, for a body rendered straight
/// into the response: BeginApiData, exactly one JSON value, EndApiData.
void BeginApiData(std::string* body);
void EndApiData(std::string* body);

}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_SERVING_API_ENVELOPE_H_
