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

/// Serialized {"error":{...}} JSON object (no trailing newline) for
/// embedding inside a larger document — the per-entry error shape in
/// /v1/query/batch results.
std::string ApiErrorJson(int status, std::string_view message);

/// A success envelope: wraps an already-serialized JSON value as
/// {"data": value}. The value must be exactly one JSON value (object,
/// array, or scalar), e.g. a JsonWriter's str().
obs::AdminResponse ApiData(std::string_view json_value);

}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_SERVING_API_ENVELOPE_H_
