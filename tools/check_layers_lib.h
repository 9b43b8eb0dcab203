#ifndef SURVEYOR_TOOLS_CHECK_LAYERS_LIB_H_
#define SURVEYOR_TOOLS_CHECK_LAYERS_LIB_H_

// Dependency-DAG and include-hygiene linter over a source tree (no
// dependencies beyond the standard library, so it can build before
// anything else and gate the rest of the build). Three checks:
//
//   layer            #include "X/..." must follow the layer DAG: a file
//                    under <root>/Y may include headers of Y itself or of
//                    any layer listed for Y in the rules.
//   header-guard     a header's #ifndef/#define guard must be derived
//                    from its path: <prefix><REL_PATH_UPPERCASED>_ with
//                    '/' and '.' mapped to '_' (util/threadpool.h →
//                    SURVEYOR_UTIL_THREADPOOL_H_).
//   using-namespace  headers must not contain `using namespace`.
//
// The rules are themselves validated to be acyclic, so the allowed
// include graph is a DAG by construction. See DESIGN.md §8 for the
// layering contract this enforces over src/.

#include <map>
#include <set>
#include <string>
#include <vector>

namespace surveyor {
namespace layers {

/// One lint finding, pointing at a file line (line 0: whole-file finding).
struct Violation {
  std::string file;  ///< path relative to the analyzed root
  int line = 0;      ///< 1-based; 0 when the finding has no line
  std::string rule;  ///< "layer", "header-guard" or "using-namespace"
  std::string message;
};

/// Allowed dependencies per layer: key = top-level directory under the
/// analyzed root, value = the set of other layers its files may include.
/// Every layer named in a value must itself be a key.
using LayerRules = std::map<std::string, std::set<std::string>>;

struct Options {
  /// Prepended to the path-derived header-guard token.
  std::string guard_prefix = "SURVEYOR_";
};

/// The layering contract of this repository's src/ tree, bottom-up:
/// util depends on nothing (in particular NOT on obs); obs/kb/model
/// sit directly on util; text adds kb; corpus/extraction add model+text;
/// baselines adds extraction; surveyor composes everything below it; eval
/// is the top and may also use surveyor.
LayerRules DefaultRules();

/// Empty string when `rules` is well-formed (every referenced layer
/// defined, no cycles); otherwise a one-line description of the problem.
std::string ValidateRules(const LayerRules& rules);

/// Parses a rules file: one `layer: dep dep ...` entry per line, '#'
/// comments and blank lines ignored. Returns false (with *error set) on
/// malformed input.
bool ParseRulesFile(const std::string& path, LayerRules* rules,
                    std::string* error);

/// Expected header guard for a header at `relative_path` under the root.
std::string ExpectedGuard(const std::string& relative_path,
                          const Options& options);

/// Lints every .h/.cc/.cpp file under `root`, returning violations
/// sorted by file path then line. Layer checks apply to all files;
/// guard and using-namespace checks apply to headers.
std::vector<Violation> AnalyzeTree(const std::string& root,
                                   const LayerRules& rules,
                                   const Options& options = {});

/// "file:line: rule: message" lines, one per violation (the stable
/// format the fixture tests assert against and CI greps).
std::string FormatViolations(const std::vector<Violation>& violations);

/// JSON array of {file, line, rule, message} objects.
std::string ViolationsToJson(const std::vector<Violation>& violations);

}  // namespace layers
}  // namespace surveyor

#endif  // SURVEYOR_TOOLS_CHECK_LAYERS_LIB_H_
