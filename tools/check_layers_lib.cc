#include "tools/check_layers_lib.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tools/lint_util.h"

namespace surveyor {
namespace layers {

namespace {

namespace fs = std::filesystem;

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

/// The quoted include target of a line, or empty: `  #include "x/y.h"`
/// → "x/y.h". Angle-bracket and malformed includes yield empty.
std::string QuotedIncludeTarget(const std::string& line) {
  const std::string trimmed = Trim(line);
  if (trimmed.rfind("#include", 0) != 0) return "";
  const size_t open = trimmed.find('"');
  if (open == std::string::npos) return "";
  const size_t close = trimmed.find('"', open + 1);
  if (close == std::string::npos) return "";
  return trimmed.substr(open + 1, close - open - 1);
}

std::string JoinSorted(const std::set<std::string>& values) {
  std::string joined;
  for (const std::string& value : values) {
    if (!joined.empty()) joined += ", ";
    joined += value;
  }
  return joined.empty() ? "(nothing)" : joined;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// DFS state for cycle detection over the rules graph.
enum class Mark { kUnvisited, kInProgress, kDone };

bool HasCycle(const LayerRules& rules, const std::string& layer,
              std::map<std::string, Mark>& marks, std::string* cycle_node) {
  Mark& mark = marks[layer];
  if (mark == Mark::kDone) return false;
  if (mark == Mark::kInProgress) {
    *cycle_node = layer;
    return true;
  }
  mark = Mark::kInProgress;
  const auto it = rules.find(layer);
  if (it != rules.end()) {
    for (const std::string& dep : it->second) {
      if (HasCycle(rules, dep, marks, cycle_node)) return true;
    }
  }
  marks[layer] = Mark::kDone;
  return false;
}

void CheckHeaderHygiene(const std::string& relative_path,
                        const std::vector<std::string>& lines,
                        const Options& options,
                        std::vector<Violation>* violations) {
  const std::string expected = ExpectedGuard(relative_path, options);
  int ifndef_line = 0;
  std::string ifndef_token;
  int define_line = 0;
  std::string define_token;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string trimmed = Trim(lines[i]);
    if (ifndef_token.empty() && trimmed.rfind("#ifndef ", 0) == 0) {
      ifndef_token = Trim(trimmed.substr(8));
      ifndef_line = static_cast<int>(i + 1);
    } else if (ifndef_line > 0 && define_token.empty() &&
               trimmed.rfind("#define ", 0) == 0) {
      define_token = Trim(trimmed.substr(8));
      define_line = static_cast<int>(i + 1);
    }
    if (trimmed.rfind("using namespace", 0) == 0) {
      violations->push_back({relative_path, static_cast<int>(i + 1),
                             "using-namespace",
                             "headers must not contain 'using namespace'"});
    }
  }
  if (ifndef_token.empty()) {
    violations->push_back({relative_path, 0, "header-guard",
                           "missing include guard '" + expected + "'"});
    return;
  }
  if (ifndef_token != expected) {
    violations->push_back({relative_path, ifndef_line, "header-guard",
                           "guard '" + ifndef_token + "' should be '" +
                               expected + "'"});
  } else if (define_token != expected) {
    violations->push_back({relative_path,
                           define_line > 0 ? define_line : ifndef_line,
                           "header-guard",
                           "#define after #ifndef should be '" + expected +
                               "'"});
  }
}

void CheckLayerEdges(const std::string& relative_path, const std::string& layer,
                     const std::vector<std::string>& lines,
                     const LayerRules& rules,
                     std::vector<Violation>* violations) {
  const auto rule = rules.find(layer);
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string target = QuotedIncludeTarget(lines[i]);
    const size_t slash = target.find('/');
    if (slash == std::string::npos) continue;  // not a layered include
    const std::string dep = target.substr(0, slash);
    if (dep == layer) continue;
    const int line = static_cast<int>(i + 1);
    if (rule == rules.end()) {
      violations->push_back({relative_path, line, "layer",
                             "file is under '" + layer +
                                 "', which is not a declared layer"});
      continue;
    }
    if (rules.find(dep) == rules.end()) {
      violations->push_back({relative_path, line, "layer",
                             "include \"" + target +
                                 "\" does not resolve to a declared layer"});
      continue;
    }
    if (rule->second.count(dep) == 0) {
      violations->push_back({relative_path, line, "layer",
                             "layer '" + layer + "' may not include '" + dep +
                                 "' (allowed: " + JoinSorted(rule->second) +
                                 ")"});
    }
  }
}

}  // namespace

LayerRules DefaultRules() {
  // Bottom-up layering of src/. A layer may include itself plus anything
  // listed here; the sets are the transitive "everything below me", so a
  // legal refactor never has to loosen them. The load-bearing edge this
  // encodes: util depends on nothing — in particular NOT on obs, which
  // observes util (threadpool, logging) strictly from above.
  return LayerRules{
      {"util", {}},
      {"kb", {"util"}},
      {"model", {"util"}},
      {"obs", {"util"}},
      {"text", {"kb", "util"}},
      {"corpus", {"kb", "model", "text", "util"}},
      {"extraction", {"kb", "model", "text", "util"}},
      {"baselines", {"extraction", "kb", "model", "text", "util"}},
      {"surveyor",
       {"baselines", "extraction", "kb", "model", "obs", "text", "util"}},
      {"eval",
       {"baselines", "corpus", "extraction", "kb", "model", "obs", "surveyor",
        "text", "util"}},
      // The online query engine sits on top of the mining stack; nothing
      // in src/ may depend on it (only tools and tests do).
      {"serving",
       {"baselines", "extraction", "kb", "model", "obs", "surveyor", "text",
        "util"}},
  };
}

std::string ValidateRules(const LayerRules& rules) {
  for (const auto& [layer, deps] : rules) {
    for (const std::string& dep : deps) {
      if (rules.find(dep) == rules.end()) {
        return "layer '" + layer + "' depends on undeclared layer '" + dep +
               "'";
      }
      if (dep == layer) {
        return "layer '" + layer + "' lists itself as a dependency";
      }
    }
  }
  std::map<std::string, Mark> marks;
  for (const auto& [layer, deps] : rules) {
    std::string cycle_node;
    if (HasCycle(rules, layer, marks, &cycle_node)) {
      return "dependency rules contain a cycle through '" + cycle_node + "'";
    }
  }
  return "";
}

bool ParseRulesFile(const std::string& path, LayerRules* rules,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open rules file '" + path + "'";
    return false;
  }
  rules->clear();
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = Trim(line);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      *error = path + ":" + std::to_string(line_number) +
               ": expected 'layer: dep dep ...'";
      return false;
    }
    const std::string layer = Trim(line.substr(0, colon));
    if (layer.empty()) {
      *error = path + ":" + std::to_string(line_number) + ": empty layer name";
      return false;
    }
    std::set<std::string>& deps = (*rules)[layer];
    std::istringstream dep_stream(line.substr(colon + 1));
    std::string dep;
    while (dep_stream >> dep) deps.insert(dep);
  }
  return true;
}

std::string ExpectedGuard(const std::string& relative_path,
                          const Options& options) {
  std::string guard = options.guard_prefix;
  for (const char c : relative_path) {
    if (c == '/' || c == '.' || c == '-') {
      guard.push_back('_');
    } else {
      guard.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  guard.push_back('_');
  return guard;
}

std::vector<Violation> AnalyzeTree(const std::string& root,
                                   const LayerRules& rules,
                                   const Options& options) {
  std::vector<Violation> violations;
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const fs::path& file : files) {
    const std::string relative =
        file.lexically_relative(root).generic_string();
    std::vector<std::string> lines;
    {
      std::ifstream in(file);
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
    }

    const size_t first_violation = violations.size();
    const size_t slash = relative.find('/');
    if (slash != std::string::npos) {
      CheckLayerEdges(relative, relative.substr(0, slash), lines, rules,
                      &violations);
    }
    if (file.extension() == ".h") {
      CheckHeaderHygiene(relative, lines, options, &violations);
    }
    // NOLINT_LAYERS / NOLINTNEXTLINE_LAYERS line suppressions
    // (tools/lint_util.h). Kept per-file so directives only ever see
    // their own file's lines.
    violations.erase(
        std::remove_if(violations.begin() + first_violation, violations.end(),
                       [&](const Violation& v) {
                         return lint::IsSuppressed(lines, v.line, "LAYERS",
                                                   v.rule);
                       }),
        violations.end());
  }

  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return violations;
}

std::string FormatViolations(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) {
    out += v.file + ":" + std::to_string(v.line) + ": " + v.rule + ": " +
           v.message + "\n";
  }
  return out;
}

std::string ViolationsToJson(const std::vector<Violation>& violations) {
  std::string out = "[";
  for (size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i > 0) out += ",";
    out += "\n  {\"file\": \"" + JsonEscape(v.file) +
           "\", \"line\": " + std::to_string(v.line) + ", \"rule\": \"" +
           JsonEscape(v.rule) + "\", \"message\": \"" + JsonEscape(v.message) +
           "\"}";
  }
  out += violations.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace layers
}  // namespace surveyor
