// check_hotpath: hot-path hygiene linter for annotated regions in src/.
//
//   check_hotpath [--root DIR] [--json FILE] [--baseline FILE]
//                 [--write-baseline FILE] [--fail-on-stale-baseline]
//
// Exit codes: 0 clean, 1 violations (or stale baseline entries with
// --fail-on-stale-baseline), 2 usage or I/O error. Violations print to
// stdout as "file:line: rule: message"; --json additionally writes a
// machine-readable report. Runs as a CTest entry (check_hotpath_src)
// with the committed baseline, so a new copy or allocation inside a
// SURVEYOR_HOT region fails the build. See DESIGN.md §13.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "tools/check_hotpath_lib.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root DIR] [--json FILE] [--baseline FILE]"
               " [--write-baseline FILE] [--fail-on-stale-baseline]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using surveyor::hotpath::AnalyzeTree;
  using surveyor::hotpath::ApplyBaseline;
  using surveyor::hotpath::BaselineEntry;
  using surveyor::hotpath::BaselineResult;
  using surveyor::hotpath::BaselineToJson;
  using surveyor::hotpath::FormatViolations;
  using surveyor::hotpath::ParseBaselineFile;
  using surveyor::hotpath::Violation;
  using surveyor::hotpath::ViolationsToJson;

  std::string root = "src";
  std::string json_path;
  std::string baseline_path;
  std::string write_baseline_path;
  bool fail_on_stale_baseline = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--root" && has_value) {
      root = argv[++i];
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--baseline" && has_value) {
      baseline_path = argv[++i];
    } else if (arg == "--write-baseline" && has_value) {
      write_baseline_path = argv[++i];
    } else if (arg == "--fail-on-stale-baseline") {
      fail_on_stale_baseline = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (!std::filesystem::is_directory(root)) {
    std::cerr << "check_hotpath: root '" << root << "' is not a directory\n";
    return 2;
  }

  const std::vector<Violation> all = AnalyzeTree(root);

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path);
    if (!out) {
      std::cerr << "check_hotpath: cannot write '" << write_baseline_path
                << "'\n";
      return 2;
    }
    out << BaselineToJson(all);
    std::cerr << "check_hotpath: wrote " << all.size()
              << " baseline entr(ies) to " << write_baseline_path << "\n";
    return 0;
  }

  std::vector<BaselineEntry> baseline;
  if (!baseline_path.empty()) {
    std::string error;
    if (!ParseBaselineFile(baseline_path, &baseline, &error)) {
      std::cerr << "check_hotpath: " << error << "\n";
      return 2;
    }
  }
  const BaselineResult result = ApplyBaseline(all, baseline);

  std::cout << FormatViolations(result.remaining);
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "check_hotpath: cannot write '" << json_path << "'\n";
      return 2;
    }
    json << ViolationsToJson(result.remaining);
  }
  for (const BaselineEntry& entry : result.stale) {
    std::cerr << "check_hotpath: stale baseline entry " << entry.file << ":"
              << entry.line << " (" << entry.rule
              << ") no longer fires; remove it\n";
  }
  std::cerr << "check_hotpath: " << result.remaining.size()
            << " violation(s) under " << root << " ("
            << all.size() - result.remaining.size() << " baselined, "
            << result.stale.size() << " stale)\n";
  if (!result.remaining.empty()) return 1;
  if (fail_on_stale_baseline && !result.stale.empty()) return 1;
  return 0;
}
