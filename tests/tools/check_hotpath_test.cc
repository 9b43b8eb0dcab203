#include "tools/check_hotpath_lib.h"

#include <filesystem>
#include <fstream>
#include <string>

#include "gtest/gtest.h"
#include "tools/lint_util.h"

namespace surveyor {
namespace hotpath {
namespace {

namespace fs = std::filesystem;

/// In-memory fixtures: every case pins the exact formatted output, so a
/// message or line-attribution change fails loudly.
class CheckHotpathTest : public ::testing::Test {
 protected:
  static std::string LintFile(const std::string& contents) {
    return FormatViolations(AnalyzeFile("f.cc", contents));
  }
};

TEST_F(CheckHotpathTest, ColdCodeIsClean) {
  EXPECT_EQ(LintFile("void F() {\n"
                     "  auto* p = new int[4];\n"
                     "  std::string copy = other;\n"
                     "  printf(\"hello\");\n"
                     "}\n"),
            "");
}

// The seeded violation pair from the issue: an unguarded allocation and a
// std::string copy inside an annotated region must both be caught.
TEST_F(CheckHotpathTest, MarkerFunctionCatchesSeededNewAndStringCopy) {
  EXPECT_EQ(LintFile("SURVEYOR_HOT_FUNCTION\n"
                     "void Tokenize(const std::string& input) {\n"
                     "  std::string copy = input;\n"
                     "  auto* scratch = new char[64];\n"
                     "}\n"),
            "f.cc:3: no-string-copy: std::string 'copy' copy-initialized in "
            "hot region; consider std::string_view\n"
            "f.cc:4: no-heap-alloc: operator new in hot region\n");
}

TEST_F(CheckHotpathTest, MarkerOnDeclarationCoversOnlyTheSignature) {
  EXPECT_EQ(LintFile("SURVEYOR_HOT_FUNCTION\n"
                     "void Fast(std::string by_value);\n"
                     "void Cold(std::string also_by_value);\n"),
            "f.cc:2: no-string-copy: by-value std::string parameter "
            "'by_value'; pass std::string_view\n");
}

TEST_F(CheckHotpathTest, MarkerRegionEndsAtTheClosingBrace) {
  EXPECT_EQ(LintFile("SURVEYOR_HOT_FUNCTION\n"
                     "void Fast() {\n"
                     "  if (x) { y(); }\n"
                     "}\n"
                     "void Cold() {\n"
                     "  auto* p = new int;\n"
                     "}\n"),
            "");
}

TEST_F(CheckHotpathTest, DefineOfTheMarkerItselfIsIgnored) {
  EXPECT_EQ(LintFile("#define SURVEYOR_HOT_FUNCTION\n"
                     "void Cold() { auto* p = new int; }\n"),
            "");
}

TEST_F(CheckHotpathTest, CommentRegionNestingKeepsOuterRegionOpen) {
  EXPECT_EQ(LintFile("// SURVEYOR_HOT_BEGIN\n"
                     "// SURVEYOR_HOT_BEGIN\n"
                     "// SURVEYOR_HOT_END\n"
                     "auto* still_hot = new int;\n"
                     "// SURVEYOR_HOT_END\n"
                     "auto* cold = new int;\n"),
            "f.cc:4: no-heap-alloc: operator new in hot region\n");
}

TEST_F(CheckHotpathTest, EndWithoutBeginIsReported) {
  EXPECT_EQ(LintFile("void F() {}\n"
                     "// SURVEYOR_HOT_END\n"),
            "f.cc:2: region: SURVEYOR_HOT_END without a matching "
            "SURVEYOR_HOT_BEGIN\n");
}

TEST_F(CheckHotpathTest, UnterminatedBeginIsReported) {
  EXPECT_EQ(LintFile("// SURVEYOR_HOT_BEGIN\n"
                     "void F() {}\n"),
            "f.cc:1: region: unterminated SURVEYOR_HOT_BEGIN (no matching "
            "SURVEYOR_HOT_END)\n");
}

TEST_F(CheckHotpathTest, MakeUniqueAndMakeSharedAreFlagged) {
  EXPECT_EQ(LintFile("// SURVEYOR_HOT_BEGIN\n"
                     "auto a = std::make_unique<int>(1);\n"
                     "auto b = std::make_shared<int>(2);\n"
                     "// SURVEYOR_HOT_END\n"),
            "f.cc:2: no-heap-alloc: 'make_unique' allocates in hot region\n"
            "f.cc:3: no-heap-alloc: 'make_shared' allocates in hot region\n");
}

TEST_F(CheckHotpathTest, ReserveInTheSameRegionLicensesPushBack) {
  EXPECT_EQ(LintFile("// SURVEYOR_HOT_BEGIN\n"
                     "void F(std::vector<int>& good, std::vector<int>& bad) {\n"
                     "  good.reserve(8);\n"
                     "  good.push_back(1);\n"
                     "  bad.push_back(2);\n"
                     "}\n"
                     "// SURVEYOR_HOT_END\n"),
            "f.cc:5: no-heap-alloc: 'bad.push_back' without a prior "
            "'bad.reserve' in this hot region\n");
}

TEST_F(CheckHotpathTest, ReserveInAnotherRegionDoesNotCount) {
  EXPECT_EQ(LintFile("SURVEYOR_HOT_FUNCTION\n"
                     "void A(std::vector<int>& xs) { xs.reserve(8); }\n"
                     "SURVEYOR_HOT_FUNCTION\n"
                     "void B(std::vector<int>& xs) { xs.push_back(1); }\n"),
            "f.cc:4: no-heap-alloc: 'xs.push_back' without a prior "
            "'xs.reserve' in this hot region\n");
}

TEST_F(CheckHotpathTest, VectorAndStringLocalsNeedReserve) {
  EXPECT_EQ(LintFile("// SURVEYOR_HOT_BEGIN\n"
                     "void F() {\n"
                     "  std::vector<int> xs;\n"
                     "  std::string s;\n"
                     "  std::vector<int> ok;\n"
                     "  ok.reserve(4);\n"
                     "  std::string buf;\n"
                     "  buf.reserve(64);\n"
                     "}\n"
                     "// SURVEYOR_HOT_END\n"),
            "f.cc:3: no-heap-alloc: std::vector 'xs' constructed without "
            "reserve in hot region\n"
            "f.cc:4: no-heap-alloc: std::string 's' constructed in hot "
            "region (hoist or reserve the buffer)\n");
}

TEST_F(CheckHotpathTest, LocksAndIoAreFlagged) {
  EXPECT_EQ(LintFile("// SURVEYOR_HOT_BEGIN\n"
                     "void F() {\n"
                     "  MutexLock lock(&mu);\n"
                     "  mu.lock();\n"
                     "  printf(\"x\");\n"
                     "  SURVEYOR_LOG(INFO) << 1;\n"
                     "}\n"
                     "// SURVEYOR_HOT_END\n"),
            "f.cc:3: no-lock: lock acquisition ('MutexLock') in hot region\n"
            "f.cc:4: no-lock: lock acquisition ('.lock()') in hot region\n"
            "f.cc:5: no-io-log: I/O or logging ('printf') in hot region\n"
            "f.cc:6: no-io-log: I/O or logging ('SURVEYOR_LOG') in hot "
            "region\n");
}

// Hostile input: rule keywords inside string and char literals must not
// fire — the lexer replaces literal bodies before matching.
TEST_F(CheckHotpathTest, LiteralsContainingKeywordsAreIgnored) {
  EXPECT_EQ(LintFile("// SURVEYOR_HOT_BEGIN\n"
                     "const char* a = \"new MutexLock printf\";\n"
                     "const char* b = R\"(make_unique)\";\n"
                     "char c = 'n';\n"
                     "// SURVEYOR_HOT_END\n"),
            "");
}

TEST_F(CheckHotpathTest, SameLineNolintSuppresses) {
  EXPECT_EQ(LintFile("// SURVEYOR_HOT_BEGIN\n"
                     "auto* p = new int;  // NOLINT_HOTPATH(no-heap-alloc)"
                     " arena setup\n"
                     "// SURVEYOR_HOT_END\n"),
            "");
}

TEST_F(CheckHotpathTest, NextLineNolintSuppressesOnlyTheNamedRule) {
  EXPECT_EQ(LintFile("// SURVEYOR_HOT_BEGIN\n"
                     "// NOLINTNEXTLINE_HOTPATH(no-heap-alloc)\n"
                     "auto* p = new int;\n"
                     "// NOLINTNEXTLINE_HOTPATH(no-lock)\n"
                     "auto* q = new int;\n"
                     "// SURVEYOR_HOT_END\n"),
            "f.cc:5: no-heap-alloc: operator new in hot region\n");
}

TEST_F(CheckHotpathTest, BareNolintSuppressesEveryRule) {
  EXPECT_EQ(LintFile("// SURVEYOR_HOT_BEGIN\n"
                     "auto* p = new MutexLock;  // NOLINT_HOTPATH\n"
                     "// SURVEYOR_HOT_END\n"),
            "");
}

TEST_F(CheckHotpathTest, BaselineSuppressesMatchesAndReportsStale) {
  const std::vector<Violation> violations = {
      {"a.cc", 3, "no-heap-alloc", "operator new in hot region"},
      {"a.cc", 9, "no-lock", "lock acquisition ('MutexLock') in hot region"},
  };
  const std::vector<BaselineEntry> baseline = {
      {"a.cc", 3, "no-heap-alloc"},
      {"gone.cc", 7, "no-io-log"},
  };
  const BaselineResult result = ApplyBaseline(violations, baseline);
  ASSERT_EQ(result.remaining.size(), 1u);
  EXPECT_EQ(result.remaining[0], violations[1]);
  ASSERT_EQ(result.stale.size(), 1u);
  EXPECT_EQ(result.stale[0].file, "gone.cc");
  EXPECT_EQ(result.stale[0].line, 7);
  EXPECT_EQ(result.stale[0].rule, "no-io-log");
}

TEST_F(CheckHotpathTest, BaselineJsonRoundTrips) {
  const std::vector<Violation> violations = {
      {"a.cc", 3, "no-heap-alloc", "operator new in hot region"},
      {"b \"q\".cc", 12, "no-string-copy", "m"},
  };
  const fs::path path =
      fs::path(::testing::TempDir()) / "check_hotpath_baseline_rt.json";
  {
    std::ofstream out(path);
    out << BaselineToJson(violations);
  }
  std::vector<BaselineEntry> parsed;
  std::string error;
  ASSERT_TRUE(ParseBaselineFile(path.string(), &parsed, &error)) << error;
  fs::remove(path);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].file, "a.cc");
  EXPECT_EQ(parsed[0].line, 3);
  EXPECT_EQ(parsed[0].rule, "no-heap-alloc");
  EXPECT_EQ(parsed[1].file, "b \"q\".cc");
  EXPECT_EQ(parsed[1].line, 12);
}

TEST_F(CheckHotpathTest, JsonOutputIsStable) {
  const std::vector<Violation> violations = {
      {"a.cc", 3, "no-heap-alloc", "operator new in hot region"},
  };
  EXPECT_EQ(ViolationsToJson(violations),
            "[\n"
            "  {\"file\": \"a.cc\", \"line\": 3, \"rule\": \"no-heap-alloc\","
            " \"message\": \"operator new in hot region\"}\n"
            "]\n");
  EXPECT_EQ(ViolationsToJson({}), "[]\n");
}

}  // namespace
}  // namespace hotpath
}  // namespace surveyor
