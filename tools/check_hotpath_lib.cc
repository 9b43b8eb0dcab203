#include "tools/check_hotpath_lib.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "tools/lint_util.h"

namespace surveyor {
namespace hotpath {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Lexing: split a file into per-line code text (comments stripped, string
// literals collapsed to "" and char literals to '') and per-line comment
// text (where the region and NOLINT directives live). The analyzer never
// sees the inside of a literal, so `"new"` in a string can't fire a rule.
// ---------------------------------------------------------------------------

struct StrippedFile {
  std::vector<std::string> code;
  std::vector<std::string> comments;
};

StrippedFile Strip(const std::string& contents) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  StrippedFile out;
  out.code.emplace_back();
  out.comments.emplace_back();
  State state = State::kCode;
  std::string raw_delimiter;  // ")delim" that ends the active raw string
  for (size_t i = 0; i < contents.size(); ++i) {
    const char c = contents[i];
    const char next = i + 1 < contents.size() ? contents[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      out.code.emplace_back();
      out.comments.emplace_back();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (out.code.back().empty() ||
                    !(std::isalnum(static_cast<unsigned char>(
                          out.code.back().back())) ||
                      out.code.back().back() == '_'))) {
          // R"delim( ... )delim"
          size_t open = contents.find('(', i + 2);
          if (open == std::string::npos) open = contents.size();
          raw_delimiter =
              ")" + contents.substr(i + 2, open - (i + 2)) + "\"";
          out.code.back() += "\"\"";
          state = State::kRawString;
          i = open;
        } else if (c == '"') {
          out.code.back() += "\"\"";
          state = State::kString;
        } else if (c == '\'' &&
                   !(i > 0 &&
                     std::isxdigit(static_cast<unsigned char>(
                         contents[i - 1])) &&
                     std::isxdigit(static_cast<unsigned char>(next)))) {
          // A digit separator (1'000) is kept; anything else opens a
          // char literal.
          out.code.back() += "''";
          state = State::kChar;
        } else {
          out.code.back().push_back(c);
        }
        break;
      case State::kLineComment:
        out.comments.back().push_back(c);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          out.comments.back().push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == ')' &&
            contents.compare(i, raw_delimiter.size(), raw_delimiter) == 0) {
          i += raw_delimiter.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tokenization of the stripped code.
// ---------------------------------------------------------------------------

struct Tok {
  std::string text;
  int line = 0;  // 1-based
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<Tok> Lex(const std::vector<std::string>& code_lines) {
  std::vector<Tok> toks;
  for (size_t l = 0; l < code_lines.size(); ++l) {
    const std::string& line = code_lines[l];
    const int line_number = static_cast<int>(l + 1);
    for (size_t i = 0; i < line.size();) {
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (IsIdentStart(c)) {
        size_t j = i + 1;
        while (j < line.size() && IsIdentChar(line[j])) ++j;
        toks.push_back({line.substr(i, j - i), line_number});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i + 1;
        while (j < line.size() &&
               (IsIdentChar(line[j]) || line[j] == '.' || line[j] == '\'')) {
          ++j;
        }
        toks.push_back({line.substr(i, j - i), line_number});
        i = j;
        continue;
      }
      // Multi-char operators the patterns care about.
      if (i + 1 < line.size()) {
        const std::string two = line.substr(i, 2);
        if (two == "::" || two == "->" || two == "&&" || two == "\"\"" ||
            two == "''") {
          toks.push_back({two, line_number});
          i += 2;
          continue;
        }
      }
      toks.push_back({std::string(1, c), line_number});
      ++i;
    }
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Hot-region discovery.
// ---------------------------------------------------------------------------

/// region_of_line[i] is 0 outside any hot region; otherwise the id of the
/// (outermost) region covering 1-based line i+1. reserve()/push_back()
/// pairing is scoped by this id.
struct Regions {
  std::vector<int> region_of_line;
  std::vector<Violation> malformed;
};

bool LineIsPreprocessor(const std::string& code_line) {
  for (const char c : code_line) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    return c == '#';
  }
  return false;
}

Regions FindRegions(const std::string& relative_path,
                    const StrippedFile& stripped,
                    const std::vector<Tok>& toks) {
  Regions regions;
  regions.region_of_line.assign(stripped.code.size(), 0);
  int next_region_id = 1;

  // Comment-delimited regions. Nested BEGINs deepen the same outermost
  // region; the first unmatched END closes it.
  int depth = 0;
  int open_region = 0;
  int open_line = 0;
  for (size_t l = 0; l < stripped.comments.size(); ++l) {
    const std::string& comment = stripped.comments[l];
    const int line_number = static_cast<int>(l + 1);
    const bool begin =
        comment.find("SURVEYOR_HOT_BEGIN") != std::string::npos;
    const bool end = comment.find("SURVEYOR_HOT_END") != std::string::npos;
    if (begin) {
      if (depth == 0) {
        open_region = next_region_id++;
        open_line = line_number;
      }
      ++depth;
    } else if (end) {
      if (depth == 0) {
        regions.malformed.push_back(
            {relative_path, line_number, "region",
             "SURVEYOR_HOT_END without a matching SURVEYOR_HOT_BEGIN"});
      } else {
        --depth;
        if (depth == 0) open_region = 0;
      }
    } else if (depth > 0 && regions.region_of_line[l] == 0) {
      regions.region_of_line[l] = open_region;
    }
  }
  if (depth > 0) {
    regions.malformed.push_back(
        {relative_path, open_line, "region",
         "unterminated SURVEYOR_HOT_BEGIN (no matching SURVEYOR_HOT_END)"});
  }

  // SURVEYOR_HOT_FUNCTION markers: the region spans the signature and, for
  // definitions, the brace-matched body; for declarations, up to the ';'.
  for (size_t t = 0; t < toks.size(); ++t) {
    if (toks[t].text != "SURVEYOR_HOT_FUNCTION") continue;
    const size_t line_index = static_cast<size_t>(toks[t].line - 1);
    if (line_index < stripped.code.size() &&
        LineIsPreprocessor(stripped.code[line_index])) {
      continue;  // the #define in util/hotpath.h
    }
    const int region = next_region_id++;
    int last_line = toks[t].line;
    int brace_depth = 0;
    bool entered_body = false;
    for (size_t j = t + 1; j < toks.size(); ++j) {
      const std::string& text = toks[j].text;
      if (text == "{") {
        ++brace_depth;
        entered_body = true;
      } else if (text == "}") {
        --brace_depth;
      } else if (text == ";" && !entered_body) {
        last_line = toks[j].line;  // declaration only
        break;
      }
      if (entered_body && brace_depth == 0) {
        last_line = toks[j].line;
        break;
      }
      last_line = toks[j].line;
    }
    for (int l = toks[t].line; l <= last_line; ++l) {
      if (regions.region_of_line[l - 1] == 0) {
        regions.region_of_line[l - 1] = region;
      }
    }
  }
  return regions;
}

// ---------------------------------------------------------------------------
// Rule scanning over the token stream.
// ---------------------------------------------------------------------------

const std::set<std::string>& LockNames() {
  static const std::set<std::string> names{"MutexLock", "lock_guard",
                                           "unique_lock", "scoped_lock"};
  return names;
}

const std::set<std::string>& LockMethods() {
  static const std::set<std::string> names{"Lock", "lock", "TryLock",
                                           "try_lock"};
  return names;
}

const std::set<std::string>& IoNames() {
  static const std::set<std::string> names{
      "SURVEYOR_LOG", "cout",  "cerr",  "clog",     "printf",
      "fprintf",      "puts",  "fputs", "fopen",    "fread",
      "fwrite",       "fscanf", "ifstream", "ofstream", "fstream"};
  return names;
}

struct Scanner {
  const std::string& file;
  const std::vector<Tok>& toks;
  const Regions& regions;
  std::vector<Violation>* out;
  /// (region id, container name) pairs that have a reserve() call.
  std::set<std::pair<int, std::string>> reserved;

  int RegionOf(size_t t) const {
    const size_t line_index = static_cast<size_t>(toks[t].line - 1);
    if (line_index >= regions.region_of_line.size()) return 0;
    return regions.region_of_line[line_index];
  }

  const std::string& Text(size_t t) const {
    static const std::string empty;
    return t < toks.size() ? toks[t].text : empty;
  }

  void Add(size_t t, const char* rule, std::string message) {
    out->push_back({file, toks[t].line, rule, std::move(message)});
  }

  /// Index just past a balanced <...> opening at `t` (Text(t) == "<"),
  /// or t+1 when unbalanced.
  size_t SkipAngles(size_t t) const {
    int depth = 0;
    for (size_t j = t; j < toks.size(); ++j) {
      if (Text(j) == "<") ++depth;
      if (Text(j) == ">") {
        --depth;
        if (depth == 0) return j + 1;
      }
      if (Text(j) == ";") break;  // give up: not a template argument list
    }
    return t + 1;
  }

  void CollectReserves() {
    for (size_t t = 0; t + 3 < toks.size(); ++t) {
      const int region = RegionOf(t);
      if (region == 0) continue;
      if ((Text(t + 1) == "." || Text(t + 1) == "->") &&
          Text(t + 2) == "reserve" && Text(t + 3) == "(" &&
          IsIdentStart(Text(t)[0])) {
        reserved.insert({region, Text(t)});
      }
    }
  }

  bool Reserved(int region, const std::string& name) const {
    return reserved.count({region, name}) > 0;
  }

  void ScanHotRules() {
    for (size_t t = 0; t < toks.size(); ++t) {
      const int region = RegionOf(t);
      if (region == 0) continue;
      const std::string& text = Text(t);

      if (text == "new" && Text(t + 1) != "_") {
        Add(t, "no-heap-alloc", "operator new in hot region");
        continue;
      }
      if (text == "make_unique" || text == "make_shared") {
        Add(t, "no-heap-alloc", "'" + text + "' allocates in hot region");
        continue;
      }
      if ((text == "." || text == "->") &&
          (Text(t + 1) == "push_back" || Text(t + 1) == "emplace_back") &&
          Text(t + 2) == "(" && t > 0 && IsIdentStart(Text(t - 1)[0])) {
        const std::string& name = Text(t - 1);
        if (!Reserved(region, name)) {
          Add(t + 1, "no-heap-alloc",
              "'" + name + "." + Text(t + 1) + "' without a prior '" + name +
                  ".reserve' in this hot region");
        }
        continue;
      }
      if (LockNames().count(text) > 0) {
        Add(t, "no-lock", "lock acquisition ('" + text + "') in hot region");
        continue;
      }
      if ((text == "." || text == "->") &&
          LockMethods().count(Text(t + 1)) > 0 && Text(t + 2) == "(") {
        Add(t + 1, "no-lock",
            "lock acquisition ('." + Text(t + 1) + "()') in hot region");
        continue;
      }
      if (IoNames().count(text) > 0) {
        Add(t, "no-io-log", "I/O or logging ('" + text + "') in hot region");
        continue;
      }
      if (text == "std" && Text(t + 1) == "::") ScanStdDecl(t, region);
    }
  }

  /// Handles `std::string ...` and `std::vector<...> ...` patterns at `t`
  /// (Text(t) == "std").
  void ScanStdDecl(size_t t, int region) {
    const std::string& kind = Text(t + 2);
    size_t name_index;  // candidate variable/parameter name
    if (kind == "string") {
      name_index = t + 3;
    } else if (kind == "vector" && Text(t + 3) == "<") {
      name_index = SkipAngles(t + 3);
    } else {
      return;
    }
    const std::string& name = Text(name_index);
    if (name.empty() || !IsIdentStart(name[0])) return;
    const std::string& after = Text(name_index + 1);

    if (kind == "string") {
      // By-value parameter: (`(`|`,`) [const] std::string name (`,`|`)`|`=`)
      size_t before = t;
      if (t > 0 && Text(t - 1) == "const") before = t - 1;
      const bool param_position =
          before > 0 && (Text(before - 1) == "(" || Text(before - 1) == ",");
      if (param_position && (after == "," || after == ")" || after == "=")) {
        Add(name_index, "no-string-copy",
            "by-value std::string parameter '" + name +
                "'; pass std::string_view");
        return;
      }
      if (after == ";") {
        if (!Reserved(region, name)) {
          Add(name_index, "no-heap-alloc",
              "std::string '" + name +
                  "' constructed in hot region (hoist or reserve the "
                  "buffer)");
        }
        return;
      }
      if (after == "=" || after == "{" || after == "(") {
        const std::string& init = Text(name_index + 2);
        if (init == ")" || init == "}") return;  // function decl `f()` etc.
        if (after == "(" && !(Text(name_index + 2) == "\"\"" ||
                              IsIdentStart(init.empty() ? '(' : init[0]))) {
          return;
        }
        if (after == "(") {
          // `std::string Foo(std::string_view x)` is a declaration, not a
          // copy; only flag ctor calls from a plain identifier expression.
          if (!(IsIdentStart(init[0]) &&
                (Text(name_index + 3) == ")" || Text(name_index + 3) == "." ||
                 Text(name_index + 3) == "->"))) {
            return;
          }
        }
        if (init == "\"\"") {
          Add(name_index, "no-heap-alloc",
              "std::string '" + name +
                  "' constructed in hot region (hoist or reserve the "
                  "buffer)");
        } else {
          Add(name_index, "no-string-copy",
              "std::string '" + name +
                  "' copy-initialized in hot region; consider "
                  "std::string_view");
        }
      }
      return;
    }

    // std::vector<...> declarations: flag default/copy construction without
    // a reserve in the region. `name(` (function decl or sized ctor) is
    // deliberately not flagged.
    if ((after == ";" || after == "=" || after == "{") &&
        !Reserved(region, name)) {
      Add(name_index, "no-heap-alloc",
          "std::vector '" + name +
              "' constructed without reserve in hot region");
    }
  }
};

std::vector<Violation> AnalyzeStripped(const std::string& relative_path,
                                       const StrippedFile& stripped) {
  const std::vector<Tok> toks = Lex(stripped.code);
  const Regions regions = FindRegions(relative_path, stripped, toks);

  std::vector<Violation> violations = regions.malformed;
  Scanner scanner{relative_path, toks, regions, &violations, {}};
  scanner.CollectReserves();
  scanner.ScanHotRules();

  // NOLINT_HOTPATH / NOLINTNEXTLINE_HOTPATH line suppressions.
  violations.erase(
      std::remove_if(violations.begin(), violations.end(),
                     [&](const Violation& v) {
                       return lint::IsSuppressed(stripped.comments, v.line,
                                                 "HOTPATH", v.rule);
                     }),
      violations.end());

  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  violations.erase(std::unique(violations.begin(), violations.end()),
                   violations.end());
  return violations;
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

}  // namespace

std::vector<Violation> AnalyzeFile(const std::string& relative_path,
                                   const std::string& contents) {
  return AnalyzeStripped(relative_path, Strip(contents));
}

std::vector<Violation> AnalyzeTree(const std::string& root) {
  std::vector<std::pair<std::string, StrippedFile>> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    files.emplace_back(entry.path().lexically_relative(root).generic_string(),
                       Strip(buffer.str()));
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<Violation> violations;
  for (const auto& [path, stripped] : files) {
    std::vector<Violation> file_violations = AnalyzeStripped(path, stripped);
    violations.insert(violations.end(),
                      std::make_move_iterator(file_violations.begin()),
                      std::make_move_iterator(file_violations.end()));
  }
  return violations;
}

BaselineResult ApplyBaseline(const std::vector<Violation>& violations,
                             const std::vector<BaselineEntry>& baseline) {
  std::map<std::tuple<std::string, int, std::string>, bool> matched;
  for (const BaselineEntry& entry : baseline) {
    matched[{entry.file, entry.line, entry.rule}] = false;
  }
  BaselineResult result;
  for (const Violation& v : violations) {
    auto it = matched.find({v.file, v.line, v.rule});
    if (it != matched.end()) {
      it->second = true;
    } else {
      result.remaining.push_back(v);
    }
  }
  for (const BaselineEntry& entry : baseline) {
    auto it = matched.find({entry.file, entry.line, entry.rule});
    if (it != matched.end() && !it->second) result.stale.push_back(entry);
  }
  return result;
}

bool ParseBaselineFile(const std::string& path,
                       std::vector<BaselineEntry>* baseline,
                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open baseline file '" + path + "'";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  baseline->clear();

  // Minimal parser for the fixed shape this tool writes: a "findings"
  // array of flat objects with "file", "line", and "rule" members.
  const auto string_field = [&](size_t begin, size_t end,
                                const std::string& key) -> std::string {
    const std::string needle = "\"" + key + "\"";
    size_t pos = text.find(needle, begin);
    if (pos == std::string::npos || pos >= end) return "";
    pos = text.find('"', text.find(':', pos) + 1);
    if (pos == std::string::npos || pos >= end) return "";
    std::string value;
    for (size_t i = pos + 1; i < end; ++i) {
      const char c = text[i];
      if (c == '\\' && i + 1 < end) {
        const char escaped = text[++i];
        value.push_back(escaped == 'n' ? '\n'
                                       : (escaped == 't' ? '\t' : escaped));
        continue;
      }
      if (c == '"') return value;
      value.push_back(c);
    }
    return "";
  };
  size_t pos = text.find('{', text.find("\"findings\""));
  if (text.find("\"findings\"") == std::string::npos) {
    *error = path + ": missing \"findings\" array";
    return false;
  }
  while (pos != std::string::npos) {
    const size_t end = text.find('}', pos);
    if (end == std::string::npos) break;
    BaselineEntry entry;
    entry.file = string_field(pos, end, "file");
    entry.rule = string_field(pos, end, "rule");
    const size_t line_pos = text.find("\"line\"", pos);
    if (line_pos != std::string::npos && line_pos < end) {
      entry.line =
          std::atoi(text.c_str() + text.find(':', line_pos) + 1);
    }
    if (entry.file.empty() || entry.rule.empty() || entry.line <= 0) {
      *error = path + ": baseline entry missing file/line/rule near offset " +
               std::to_string(pos);
      return false;
    }
    baseline->push_back(std::move(entry));
    pos = text.find('{', end);
  }
  return true;
}

std::string BaselineToJson(const std::vector<Violation>& violations) {
  std::string out =
      "{\n  \"comment\": \"grandfathered check_hotpath findings; pay down, "
      "never grow (DESIGN.md \\u00a713)\",\n  \"findings\": [";
  for (size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i > 0) out += ",";
    out += "\n    {\"file\": \"" + JsonEscape(v.file) +
           "\", \"line\": " + std::to_string(v.line) + ", \"rule\": \"" +
           JsonEscape(v.rule) + "\"}";
  }
  out += violations.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
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

}  // namespace hotpath
}  // namespace surveyor
