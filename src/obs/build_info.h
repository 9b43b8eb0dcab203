#ifndef SURVEYOR_OBS_BUILD_INFO_H_
#define SURVEYOR_OBS_BUILD_INFO_H_

#include <string_view>

namespace surveyor {
namespace obs {

class JsonWriter;

/// Identity of the running binary, baked in at configure time (CMake
/// passes the values as compile definitions on build_info.cc). /statusz
/// and JSON profiles embed this block so a number is always attributable
/// to the binary that produced it.
struct BuildInfo {
  /// `git rev-parse HEAD` at configure time, "unknown" outside a checkout.
  /// Configure-time, not commit-time: a dirty tree still reports the last
  /// commit — treat it as "built near", not "built exactly at".
  std::string_view git_sha;
  /// Compiler id + version, e.g. "GNU 12.2.0".
  std::string_view compiler;
  /// CMAKE_BUILD_TYPE, e.g. "RelWithDebInfo".
  std::string_view build_type;
  /// SURVEYOR_SANITIZE value, "" for an uninstrumented build.
  std::string_view sanitizer;
};

/// The build info of this binary.
const BuildInfo& GetBuildInfo();

/// Appends `"build_info": {...}` (key plus object) to an open JSON object.
void AppendBuildInfoJson(JsonWriter& writer);

}  // namespace obs
}  // namespace surveyor

#endif  // SURVEYOR_OBS_BUILD_INFO_H_
