// Pins what the miner outputs. A canonical digest of a PipelineResult on
// two fixed-seed corpora must stay the same through the in-memory and the
// streaming entry point, at one and at four worker threads. A change that
// alters evidence counters, fitted parameters, posteriors or decisions
// moves the digest; a change that only reorders work does not.
//
// When a change is *meant* to alter what Surveyor mines, re-pin the
// constants below from the failure message and say why in the change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "surveyor/pipeline.h"
#include "text/document.h"
#include "text/document_source.h"

namespace surveyor {
namespace {

// Digests recorded for the worlds below; see the file comment.
constexpr char kTinyWorldDigest[] = "b1354e28666cc74f";
constexpr char kPaperWorldDigest[] = "646c31d6805d355c";

/// Appends a double at 12 significant digits: enough to see any real
/// change in a fit, coarse enough that a last-ulp libm difference between
/// machines does not move the digest.
void AppendReal(double value, std::string* out) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), " %.12g", value);
  out->append(buffer);
}

/// The canonical text of a result: pairs in (type, property) order, then
/// per pair its totals, fit and one line per entity. Provenance is left
/// out, because which samples a run keeps depends on scheduling.
std::string CanonicalText(const PipelineResult& result) {
  std::vector<const PropertyTypeResult*> pairs;
  for (const PropertyTypeResult& pair : result.pairs) pairs.push_back(&pair);
  std::sort(pairs.begin(), pairs.end(),
            [](const PropertyTypeResult* a, const PropertyTypeResult* b) {
              if (a->evidence.type != b->evidence.type) {
                return a->evidence.type < b->evidence.type;
              }
              return a->evidence.property < b->evidence.property;
            });
  std::string text;
  for (const PropertyTypeResult* pair : pairs) {
    const PropertyTypeEvidence& evidence = pair->evidence;
    text += "pair " + std::to_string(evidence.type) + " " + evidence.property +
            " " + std::to_string(evidence.total_statements) + " " +
            std::to_string(pair->degraded ? 1 : 0) + " " +
            std::to_string(pair->em_iterations);
    AppendReal(pair->params.agreement, &text);
    AppendReal(pair->params.mu_positive, &text);
    AppendReal(pair->params.mu_negative, &text);
    text += "\n";
    for (size_t i = 0; i < evidence.entities.size(); ++i) {
      text += std::to_string(evidence.entities[i]) + " " +
              std::to_string(evidence.counts[i].positive) + " " +
              std::to_string(evidence.counts[i].negative) + " " +
              std::to_string(static_cast<int>(pair->polarity[i]));
      AppendReal(pair->posterior[i], &text);
      text += "\n";
    }
  }
  return text;
}

/// FNV-1a (64-bit) of the canonical text, as 16 hex digits.
std::string OutputDigest(const PipelineResult& result) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : CanonicalText(result)) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash);
  return hex;
}

/// Mines `corpus` through Run(vector) and through RunStreaming over the
/// same corpus saved to disk, at one and four threads, and expects every
/// run to keep `expected_pairs` pairs and digest to `expected`.
void ExpectDigestOnEveryPath(const World& world,
                             const std::vector<RawDocument>& corpus,
                             int64_t rho, size_t expected_pairs,
                             const std::string& expected,
                             const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name + "_corpus.tsv";
  ASSERT_TRUE(SaveCorpusToFile(corpus, path).ok());
  for (const int threads : {1, 4}) {
    SurveyorConfig config;
    config.min_statements = rho;
    config.num_threads = threads;
    const SurveyorPipeline pipeline(&world.kb(), &world.lexicon(), config);

    const StatusOr<PipelineResult> in_memory = pipeline.Run(corpus);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status();
    EXPECT_EQ(in_memory->pairs.size(), expected_pairs);
    EXPECT_EQ(OutputDigest(*in_memory), expected)
        << "Run(vector), " << threads << " thread(s)";

    FileDocumentSource source(path);
    ASSERT_TRUE(source.status().ok()) << source.status();
    const StatusOr<PipelineResult> streamed = pipeline.RunStreaming(source);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(streamed->stats.num_documents,
              static_cast<int64_t>(corpus.size()));
    EXPECT_EQ(OutputDigest(*streamed), expected)
        << "RunStreaming(file), " << threads << " thread(s)";
  }
}

TEST(OutputDigestTest, TinyWorldMatchesPinnedDigest) {
  const World world = World::Generate(MakeTinyWorldConfig()).value();
  GeneratorOptions options;
  options.author_population = 8000;
  options.seed = 77;
  const std::vector<RawDocument> corpus =
      CorpusGenerator(&world, options).Generate();
  ExpectDigestOnEveryPath(world, corpus, /*rho=*/20, /*expected_pairs=*/3,
                          kTinyWorldDigest, "tiny");
}

TEST(OutputDigestTest, PaperWorldMatchesPinnedDigest) {
  const World world =
      World::Generate(MakePaperWorldConfig(/*entities_per_type=*/150))
          .value();
  GeneratorOptions options;
  options.author_population = 800;
  options.seed = 101;
  const std::vector<RawDocument> corpus =
      CorpusGenerator(&world, options).Generate();
  ExpectDigestOnEveryPath(world, corpus, /*rho=*/20, /*expected_pairs=*/25,
                          kPaperWorldDigest, "paper");
}

/// A two-entity result with a fitted pair, for the coverage test.
PipelineResult SmallResult() {
  PropertyTypeResult pair;
  pair.evidence.type = 1;
  pair.evidence.property = "cute";
  pair.evidence.total_statements = 12;
  pair.evidence.entities = {4, 9};
  pair.evidence.counts = {{7, 1}, {0, 4}};
  pair.params = {0.81, 9.5, 3.25};
  pair.posterior = {0.93, 0.12};
  pair.polarity = {Polarity::kPositive, Polarity::kNegative};
  pair.em_iterations = 6;
  PipelineResult result;
  result.pairs.push_back(pair);
  return result;
}

TEST(OutputDigestTest, CoversCountsFitAndDecisionsButNotProvenance) {
  const std::string base = OutputDigest(SmallResult());
  auto digest_after = [](auto&& mutate) {
    PipelineResult result = SmallResult();
    mutate(result.pairs[0]);
    return OutputDigest(result);
  };
  EXPECT_NE(base, digest_after([](PropertyTypeResult& p) {
              p.evidence.counts[1].negative = 5;
            }));
  EXPECT_NE(base, digest_after([](PropertyTypeResult& p) {
              p.evidence.entities[0] = 5;
            }));
  EXPECT_NE(base, digest_after([](PropertyTypeResult& p) {
              p.evidence.total_statements = 13;
            }));
  EXPECT_NE(base, digest_after([](PropertyTypeResult& p) {
              p.polarity[1] = Polarity::kNeutral;
            }));
  EXPECT_NE(base,
            digest_after([](PropertyTypeResult& p) { p.degraded = true; }));
  EXPECT_NE(base,
            digest_after([](PropertyTypeResult& p) { p.em_iterations = 7; }));
  EXPECT_NE(base, digest_after([](PropertyTypeResult& p) {
              p.params.mu_negative = 3.2500001;
            }));
  EXPECT_NE(base, digest_after([](PropertyTypeResult& p) {
              p.posterior[0] = 0.9300001;
            }));
  // Below the 12-digit precision: a last-ulp difference is not a change.
  EXPECT_EQ(base, digest_after([](PropertyTypeResult& p) {
              p.posterior[0] = std::nextafter(p.posterior[0], 1.0);
            }));

  PipelineResult with_provenance = SmallResult();
  with_provenance.provenance[{4, "cute"}].push_back(StatementRef{});
  EXPECT_EQ(base, OutputDigest(with_provenance));

  // Pair order is canonical, not the order the run produced.
  PipelineResult two = SmallResult();
  two.pairs.push_back(two.pairs[0]);
  two.pairs[1].evidence.property = "big";
  PipelineResult swapped = two;
  std::swap(swapped.pairs[0], swapped.pairs[1]);
  EXPECT_EQ(OutputDigest(two), OutputDigest(swapped));
}

}  // namespace
}  // namespace surveyor
