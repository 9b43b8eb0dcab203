#ifndef SURVEYOR_TOOLS_CHECK_HOTPATH_LIB_H_
#define SURVEYOR_TOOLS_CHECK_HOTPATH_LIB_H_

// Hot-path hygiene analyzer over a source tree (standard library only,
// like check_layers, so it builds before anything else and can gate the
// build). It lexes C++ sources — stripping comments, string and char
// literals — finds the annotated hot regions (src/util/hotpath.h), and
// enforces per-region rules:
//
//   no-heap-alloc    `new`, make_unique/make_shared, push_back or
//                    emplace_back on a name never `reserve`d in the
//                    region, and std::string/std::vector locals declared
//                    without a reserve.
//   no-string-copy   by-value std::string parameters and std::string
//                    locals copy-initialized from an expression
//                    (suggests std::string_view).
//   no-lock          MutexLock / lock_guard / unique_lock / scoped_lock
//                    construction or .Lock()/.lock() calls.
//   no-io-log        SURVEYOR_LOG, iostream writes, printf-family and
//                    stdio/fstream I/O.
//   region           malformed annotations (END without BEGIN,
//                    unterminated BEGIN).
//
// Findings are suppressed per line with `// NOLINT_HOTPATH(rule)` or
// `// NOLINTNEXTLINE_HOTPATH(rule)` (tools/lint_util.h), or
// grandfathered in a committed JSON baseline. See DESIGN.md §13.

#include <string>
#include <vector>

namespace surveyor {
namespace hotpath {

/// One analyzer finding, pointing at a file line.
struct Violation {
  std::string file;  ///< path relative to the analyzed root
  int line = 0;      ///< 1-based
  std::string rule;  ///< rule name, see header comment
  std::string message;

  bool operator==(const Violation& other) const {
    return file == other.file && line == other.line && rule == other.rule &&
           message == other.message;
  }
};

/// One grandfathered finding; matches a Violation on (file, line, rule).
struct BaselineEntry {
  std::string file;
  int line = 0;
  std::string rule;
};

/// Result of subtracting a baseline from the findings.
struct BaselineResult {
  /// Findings not covered by the baseline (these gate).
  std::vector<Violation> remaining;
  /// Baseline entries that no longer fire (rot; CI fails on these).
  std::vector<BaselineEntry> stale;
};

/// Analyzes one in-memory file (for tests and editor integration).
/// `relative_path` is used in findings and for the util/hotpath.h
/// self-exclusion.
std::vector<Violation> AnalyzeFile(const std::string& relative_path,
                                   const std::string& contents);

/// Lints every .h/.cc/.cpp file under `root`, returning violations sorted
/// by file, line, then rule. NOLINT_HOTPATH suppressions are already
/// applied; baseline subtraction is the caller's job (ApplyBaseline).
std::vector<Violation> AnalyzeTree(const std::string& root);

/// Splits findings into (not in baseline, stale baseline entries).
BaselineResult ApplyBaseline(const std::vector<Violation>& violations,
                             const std::vector<BaselineEntry>& baseline);

/// Parses a baseline file: {"findings": [{"file": ..., "line": N,
/// "rule": ...}, ...]}. Returns false (with *error set) on I/O or parse
/// failure.
bool ParseBaselineFile(const std::string& path,
                       std::vector<BaselineEntry>* baseline,
                       std::string* error);

/// Renders `violations` as a baseline file body (the --write-baseline
/// workflow; DESIGN.md §13).
std::string BaselineToJson(const std::vector<Violation>& violations);

/// "file:line: rule: message" lines, the stable format fixtures assert
/// against and CI greps (same shape as check_layers).
std::string FormatViolations(const std::vector<Violation>& violations);

/// JSON array of {file, line, rule, message} objects.
std::string ViolationsToJson(const std::vector<Violation>& violations);

}  // namespace hotpath
}  // namespace surveyor

#endif  // SURVEYOR_TOOLS_CHECK_HOTPATH_LIB_H_
