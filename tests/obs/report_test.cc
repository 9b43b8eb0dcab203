#include "obs/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "surveyor/pipeline.h"
#include "text/document_source.h"

namespace surveyor {
namespace obs {
namespace {

/// One deterministic tiny-scenario run shared by the report tests:
/// single-threaded so task counts and orderings are stable.
class ReportTest : public testing::Test {
 protected:
  ReportTest() : world_(World::Generate(MakeTinyWorldConfig()).value()) {
    GeneratorOptions options;
    options.author_population = 8000;
    options.seed = 77;
    corpus_ = CorpusGenerator(&world_, options).Generate();
    config_.min_statements = 20;
    config_.num_threads = 1;
  }

  World world_;
  std::vector<RawDocument> corpus_;
  SurveyorConfig config_;
};

TEST_F(ReportTest, EmAggregateKeepsWorstFitsSortedAndBounded) {
  EmAggregateDiagnostics aggregate;
  aggregate.max_worst_fits = 2;
  for (int i = 0; i < 4; ++i) {
    EmFitDiagnostics fit;
    fit.type_name = "t";
    fit.property = "p" + std::to_string(i);
    fit.iterations = 3;
    fit.converged = (i != 1);
    fit.chi2_positive = static_cast<double>(i);
    fit.chi2_negative = 0.5;
    aggregate.Add(std::move(fit));
  }
  EXPECT_EQ(aggregate.fits, 4);
  EXPECT_EQ(aggregate.converged, 3);
  EXPECT_EQ(aggregate.total_iterations, 12);
  EXPECT_DOUBLE_EQ(aggregate.mean_iterations(), 3.0);
  EXPECT_DOUBLE_EQ(aggregate.max_chi2, 3.0);
  ASSERT_EQ(aggregate.worst_fits.size(), 2u);
  EXPECT_EQ(aggregate.worst_fits[0].property, "p3");
  EXPECT_EQ(aggregate.worst_fits[1].property, "p2");
}

TEST_F(ReportTest, RunPopulatesReport) {
  SurveyorPipeline pipeline(&world_.kb(), &world_.lexicon(), config_);
  auto result = pipeline.Run(corpus_);
  ASSERT_TRUE(result.ok()) << result.status();
  const RunReport& report = result->report;

  // The acceptance bar: a real run exposes a rich metric set.
  EXPECT_GE(report.metrics.size(), 15u);

  // Every stage is timed.
  EXPECT_GT(result->stats.extraction_seconds, 0.0);
  EXPECT_GT(result->stats.grouping_seconds, 0.0);
  EXPECT_GT(result->stats.em_seconds, 0.0);

  // PipelineStats is derived from the registry, so struct and report
  // counters must agree exactly.
  const PipelineStats& stats = result->stats;
  EXPECT_EQ(static_cast<double>(stats.num_documents),
            report.MetricValue("surveyor_extract_documents_total"));
  EXPECT_EQ(static_cast<double>(stats.num_sentences),
            report.MetricValue("surveyor_extract_sentences_total"));
  EXPECT_EQ(static_cast<double>(stats.parse_failure_count),
            report.MetricValue("surveyor_extract_parse_failures_total"));
  EXPECT_EQ(static_cast<double>(stats.num_statements),
            report.MetricValue("surveyor_extract_statements_total"));
  EXPECT_EQ(static_cast<double>(stats.num_negative_statements),
            report.MetricValue("surveyor_extract_negative_statements_total"));
  EXPECT_EQ(static_cast<double>(stats.num_kept_property_type_pairs),
            report.MetricValue("surveyor_group_pairs_kept_total"));
  EXPECT_EQ(static_cast<double>(stats.num_property_type_pairs),
            report.MetricValue("surveyor_group_property_type_pairs_total"));
  EXPECT_EQ(static_cast<double>(stats.num_opinions),
            report.MetricValue("surveyor_infer_opinions_total"));

  // Per-pattern statement counts partition the statement total.
  int64_t by_pattern = 0;
  ASSERT_EQ(stats.statements_by_pattern.size(), 4u);
  for (const auto& [pattern, count] : stats.statements_by_pattern) {
    by_pattern += count;
  }
  EXPECT_EQ(by_pattern, stats.num_statements);

  // Aggregate EM diagnostics cover every kept pair.
  EXPECT_EQ(report.em.fits, stats.num_kept_property_type_pairs);
  EXPECT_GT(report.em.total_iterations, 0);
  EXPECT_FALSE(report.em.worst_fits.empty());
  EXPECT_GE(report.em.max_chi2, report.em.mean_worst_chi2());

  // Stage timings are recorded both as stats and stage_seconds.
  EXPECT_EQ(report.stage_seconds.at("extract"), stats.extraction_seconds);
  EXPECT_EQ(report.stage_seconds.at("group"), stats.grouping_seconds);
  EXPECT_EQ(report.stage_seconds.at("em"), stats.em_seconds);
}

TEST_F(ReportTest, CleanRunReportsZeroedDegradationSection) {
  SurveyorPipeline pipeline(&world_.kb(), &world_.lexicon(), config_);
  auto result = pipeline.Run(corpus_);
  ASSERT_TRUE(result.ok()) << result.status();
  const DegradationReport& degradation = result->report.degradation;
  EXPECT_FALSE(degradation.degraded);
  EXPECT_EQ(degradation.retries, 0);
  EXPECT_EQ(degradation.faults_injected, 0);
  EXPECT_EQ(degradation.docs_quarantined, 0);
  EXPECT_EQ(degradation.pairs_degraded, 0);
  EXPECT_TRUE(degradation.degraded_pairs.empty());
  EXPECT_TRUE(degradation.notes.empty());

  // The section is always present in the JSON artifact, zeroed or not.
  const std::string json = result->report.ToJson();
  EXPECT_NE(json.find("\"degradation\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":false"), std::string::npos);
}

TEST_F(ReportTest, RunAndRunStreamingDeriveIdenticalStats) {
  SurveyorPipeline pipeline(&world_.kb(), &world_.lexicon(), config_);
  auto batch = pipeline.Run(corpus_);
  ASSERT_TRUE(batch.ok()) << batch.status();
  VectorDocumentSource source(&corpus_);
  auto streaming = pipeline.RunStreaming(source);
  ASSERT_TRUE(streaming.ok()) << streaming.status();

  const PipelineStats& a = batch->stats;
  const PipelineStats& b = streaming->stats;
  EXPECT_EQ(a.num_documents, b.num_documents);
  EXPECT_EQ(a.num_sentences, b.num_sentences);
  EXPECT_EQ(a.num_parsed_sentences, b.num_parsed_sentences);
  EXPECT_EQ(a.parse_failure_count, b.parse_failure_count);
  EXPECT_EQ(a.num_statements, b.num_statements);
  EXPECT_EQ(a.num_negative_statements, b.num_negative_statements);
  EXPECT_EQ(a.statements_by_pattern, b.statements_by_pattern);
  EXPECT_EQ(a.num_entity_property_pairs, b.num_entity_property_pairs);
  EXPECT_EQ(a.num_property_type_pairs, b.num_property_type_pairs);
  EXPECT_EQ(a.num_kept_property_type_pairs, b.num_kept_property_type_pairs);
  EXPECT_EQ(a.num_opinions, b.num_opinions);
}

/// Streams a corpus once `gate` opens. Its first Next() marks it
/// entered() before waiting, so a test can interleave two runs.
class GatedSource : public DocumentSource {
 public:
  GatedSource(const std::vector<RawDocument>* corpus,
              std::shared_future<void> gate)
      : inner_(corpus), gate_(std::move(gate)) {}

  std::optional<RawDocument> Next() override {
    std::call_once(entered_once_, [this] { entered_.set_value(); });
    gate_.wait();
    return inner_.Next();
  }

  std::shared_future<void> entered() const { return entered_future_; }

 private:
  VectorDocumentSource inner_;
  std::shared_future<void> gate_;
  std::once_flag entered_once_;
  std::promise<void> entered_;
  std::shared_future<void> entered_future_ = entered_.get_future().share();
};

TEST_F(ReportTest, OverlappingRunsTimeTheirOwnStages) {
  // Run B starts while run A extracts and extracts only after A has
  // returned, so A's whole run, its end included, happens inside B's.
  SurveyorPipeline pipeline(&world_.kb(), &world_.lexicon(), config_);
  std::promise<void> a_returned;
  GatedSource b(&corpus_, a_returned.get_future().share());
  GatedSource a(&corpus_, b.entered());
  StatusOr<PipelineResult> result_b = Status::Internal("run B never ran");
  std::thread run_b([&] {
    a.entered().wait();
    result_b = pipeline.RunStreaming(b);
  });
  StatusOr<PipelineResult> result_a = pipeline.RunStreaming(a);
  a_returned.set_value();
  run_b.join();
  ASSERT_TRUE(result_a.ok()) << result_a.status();
  ASSERT_TRUE(result_b.ok()) << result_b.status();
  for (const PipelineResult* result : {&*result_a, &*result_b}) {
    EXPECT_GT(result->stats.extraction_seconds, 0.0);
    EXPECT_GT(result->stats.grouping_seconds, 0.0);
    EXPECT_GT(result->stats.em_seconds, 0.0);
  }
}

/// One rule's match at a position: the first `keep` bytes survive and the
/// rest of the `length` bytes become `null`. `length == 0` means no match.
struct RuleMatch {
  size_t keep = 0;
  size_t length = 0;
};

constexpr std::string_view kDigits = "0123456789";

bool LiteralAt(std::string_view text, size_t i, std::string_view literal) {
  return text.substr(i, literal.size()) == literal;
}

bool OneOfAt(std::string_view text, size_t i, std::string_view set) {
  return i < text.size() && set.find(text[i]) != std::string_view::npos;
}

/// End of the run of bytes from `i` on that are all in `set`.
size_t RunEnd(std::string_view text, size_t i, std::string_view set) {
  return std::min(text.find_first_not_of(set, i), text.size());
}

/// Keeps `text[i, value)` and nulls the loosely numeric value
/// (`-?[0-9][-+.eE0-9]*`) at `value`; no match when none starts there.
RuleMatch NullValueAt(std::string_view text, size_t i, size_t value) {
  const size_t first = OneOfAt(text, value, "-") ? value + 1 : value;
  if (!OneOfAt(text, first, kDigits)) return {};
  return {value - i, RunEnd(text, first, "0123456789-+.eE") - i};
}

/// `"<name>seconds":<number>`, the name made of letters, `_` and `.`.
RuleMatch SecondsKeyAt(std::string_view text, size_t i) {
  if (!OneOfAt(text, i, "\"")) return {};
  const size_t name_end = RunEnd(
      text, i + 1, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_.");
  if (!text.substr(i + 1, name_end - i - 1).ends_with("seconds") ||
      !LiteralAt(text, name_end, "\":")) {
    return {};
  }
  return NullValueAt(text, i, name_end + 2);
}

/// The value of a gauge whose name (lower case and `_`) ends in
/// `idle_seconds`.
RuleMatch IdleGaugeAt(std::string_view text, size_t i) {
  constexpr std::string_view kName = "\"name\":\"";
  constexpr std::string_view kKindValue = "\",\"kind\":\"gauge\",\"value\":";
  if (!LiteralAt(text, i, kName)) return {};
  const size_t name_start = i + kName.size();
  const size_t name_end =
      RunEnd(text, name_start, "abcdefghijklmnopqrstuvwxyz_");
  if (!text.substr(name_start, name_end - name_start)
           .ends_with("idle_seconds") ||
      !LiteralAt(text, name_end, kKindValue)) {
    return {};
  }
  return NullValueAt(text, i, name_end + kKindValue.size());
}

/// A number with a fraction or an exponent: `-?D+.D+([eE][-+]?D+)?` or
/// `-?D+[eE][-+]?D+`.
RuleMatch FractionalAt(std::string_view text, size_t i) {
  const size_t int_start = OneOfAt(text, i, "-") ? i + 1 : i;
  const size_t int_end = RunEnd(text, int_start, kDigits);
  if (int_end == int_start) return {};
  // End of an exponent starting at `at`, or `at` when there is none.
  const auto exponent_end = [text](size_t at) {
    if (!OneOfAt(text, at, "eE")) return at;
    const size_t digits = OneOfAt(text, at + 1, "-+") ? at + 2 : at + 1;
    const size_t end = RunEnd(text, digits, kDigits);
    return end == digits ? at : end;
  };
  if (OneOfAt(text, int_end, ".")) {
    const size_t fraction_end = RunEnd(text, int_end + 1, kDigits);
    if (fraction_end == int_end + 1) return {};
    return {0, exponent_end(fraction_end) - i};
  }
  const size_t end = exponent_end(int_end);
  if (end == int_end) return {};
  return {0, end - i};
}

/// Rewrites the leftmost non-overlapping matches of `rule`, scanning left
/// to right, so each match keeps its prefix and ends in `null`.
template <typename Rule>
std::string ReplaceWithNull(std::string_view text, Rule rule) {
  std::string out;
  for (size_t i = 0; i < text.size();) {
    const RuleMatch match = rule(text, i);
    if (match.length == 0) {
      out += text[i++];
    } else {
      out.append(text.substr(i, match.keep)).append("null");
      i += match.length;
    }
  }
  return out;
}

/// Replaces the run-dependent values (wall times, idle time,
/// floating-point diagnostics) with `null` so the remaining JSON —
/// structure, metric names and every integer counter — is byte-stable.
std::string Normalize(const std::string& json) {
  std::string out = ReplaceWithNull(json, SecondsKeyAt);
  out = ReplaceWithNull(out, IdleGaugeAt);
  // Any remaining non-integer number is a measured quantity (likelihoods,
  // chi-squares, sums); integers are exact counts and must match.
  return ReplaceWithNull(out, FractionalAt);
}

TEST_F(ReportTest, GoldenJsonReport) {
  SurveyorPipeline pipeline(&world_.kb(), &world_.lexicon(), config_);
  auto result = pipeline.Run(corpus_);
  ASSERT_TRUE(result.ok()) << result.status();
  result->report.label = "tiny";
  const std::string normalized = Normalize(result->report.ToJson());

  const std::string golden_path =
      std::string(SURVEYOR_OBS_TESTDATA_DIR) + "/tiny_report.json";
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << normalized << "\n";
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run with UPDATE_GOLDEN=1 to create it)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string golden = buffer.str();
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  EXPECT_EQ(normalized, golden)
      << "run report JSON drifted; if intentional, regenerate with "
         "UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace obs
}  // namespace surveyor
