#include "serving/opinion_index.h"

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "kb/knowledge_base.h"
#include "serving/snapshot.h"
#include "surveyor/opinion_store.h"
#include "util/fault.h"
#include "util/status.h"

namespace surveyor {
namespace serving {
namespace {

SnapshotOpinion MakeOpinion(const std::string& entity, const std::string& type,
                            const std::string& property, double posterior,
                            Polarity polarity) {
  SnapshotOpinion opinion;
  opinion.entity = entity;
  opinion.type = type;
  opinion.property = property;
  opinion.posterior = posterior;
  opinion.polarity = polarity;
  return opinion;
}

/// Writes a snapshot with animals and cities to a temp file and returns
/// its path.
std::string WriteTestSnapshot(const std::string& name) {
  SnapshotWriter writer;
  writer.set_label("index test");
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("Kitten", "animal", "cute", 0.97,
                                   Polarity::kPositive))
                  .ok());
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("Koala", "animal", "cute", 0.91,
                                   Polarity::kPositive))
                  .ok());
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("Spider", "animal", "cute", 0.12,
                                   Polarity::kNegative))
                  .ok());
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("Lisbon", "city", "hilly", 0.88,
                                   Polarity::kPositive))
                  .ok());
  writer.AddProvenance("Kitten", "animal", "cute", {{42, 1, true}});
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(writer.WriteToFile(path).ok());
  return path;
}

/// Disarms environment-armed chaos faults (the CI chaos job) for the
/// test's scope: these tests assert exact answers, counters and load
/// behavior. The fault paths are exercised explicitly by the tests that
/// arm their own ScopedFaults.
class OpinionIndexTest : public testing::Test {
 protected:
  ScopedFaults disarm_{""};
};

TEST_F(OpinionIndexTest, PointLookupResolvesNamesAndProvenance) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("point.surv")).ok());
  ASSERT_TRUE(index.loaded());

  const auto opinion = index.Lookup("kitten", "cute");
  ASSERT_TRUE(opinion.ok()) << opinion.status();
  EXPECT_EQ(opinion->entity, "Kitten");
  EXPECT_EQ(opinion->type, "animal");
  EXPECT_EQ(opinion->property, "cute");
  EXPECT_DOUBLE_EQ(opinion->posterior, 0.97);
  EXPECT_EQ(opinion->polarity, Polarity::kPositive);
  ASSERT_EQ(opinion->provenance.size(), 1u);
  EXPECT_EQ(opinion->provenance[0].doc_id, 42);

  // Name matching is case-insensitive, like the knowledge base.
  EXPECT_TRUE(index.Lookup("KITTEN", "CUTE").ok());
}

TEST_F(OpinionIndexTest, LookupBeforeLoadIsFailedPrecondition) {
  OpinionIndex index;
  EXPECT_EQ(index.Lookup("kitten", "cute").status().code(),
            StatusCode::kFailedPrecondition);
}

// The regression at the heart of satellite (c): the offline store and the
// online index must agree that BOTH miss shapes — unknown entity, and
// known entity with no opinion on the property — are kNotFound, so
// callers can swap one for the other.
TEST_F(OpinionIndexTest, NotFoundSemanticsMatchOpinionStore) {
  KnowledgeBase kb;
  const TypeId animal = kb.AddType("animal");
  const EntityId kitten = kb.AddEntity("kitten", animal).value();
  const EntityId ghost = kb.AddEntity("ghost", animal).value();

  OpinionStore store(&kb);
  PairOpinion mined;
  mined.entity = kitten;
  mined.type = animal;
  mined.property = "cute";
  mined.probability = 0.97;
  mined.polarity = Polarity::kPositive;
  store.Add(mined);

  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("semantics.surv")).ok());

  // Known entity, no opinion on the property.
  EXPECT_EQ(store.Lookup(kitten, "haunted").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(index.Lookup("kitten", "haunted").status().code(),
            StatusCode::kNotFound);

  // Entity with no opinions at all (the store's closest analog of an
  // unknown name is an id it holds nothing for).
  EXPECT_EQ(store.Lookup(ghost, "cute").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(index.Lookup("ghost", "cute").status().code(),
            StatusCode::kNotFound);

  // The index distinguishes the two cases in the message for operators.
  EXPECT_NE(index.Lookup("ghost", "cute").status().message().find(
                "unknown entity"),
            std::string::npos);
  EXPECT_NE(index.Lookup("kitten", "haunted").status().message().find(
                "no opinion"),
            std::string::npos);
}

TEST_F(OpinionIndexTest, BatchLookupAnswersPerEntryInOrder) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("batch.surv")).ok());
  const auto results = index.BatchLookup(
      {{"kitten", "cute"}, {"nobody", "cute"}, {"lisbon", "hilly"}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[0]->entity, "Kitten");
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(results[2]->entity, "Lisbon");
}

TEST_F(OpinionIndexTest, QueryTypeIsPositiveOnlyStrongestFirst) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("scan.surv")).ok());

  const auto cute = index.QueryType("animal", "cute");
  ASSERT_EQ(cute.size(), 2u);  // spider's negative opinion is excluded
  EXPECT_EQ(cute[0].entity, "Kitten");
  EXPECT_EQ(cute[1].entity, "Koala");

  EXPECT_EQ(index.QueryType("animal", "cute", 1).size(), 1u);
  EXPECT_TRUE(index.QueryType("animal", "hilly").empty());
  EXPECT_TRUE(index.QueryType("volcano", "cute").empty());
}

TEST_F(OpinionIndexTest, PrefixScanIsSortedAndCaseInsensitive) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("prefix.surv")).ok());
  const auto matches = index.PrefixScan("k");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], "Kitten");
  EXPECT_EQ(matches[1], "Koala");
  EXPECT_EQ(index.PrefixScan("KIT").size(), 1u);
  EXPECT_EQ(index.PrefixScan("k", 1).size(), 1u);
  EXPECT_TRUE(index.PrefixScan("zz").empty());
}

TEST_F(OpinionIndexTest, FailedLoadKeepsServingThePreviousSnapshot) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("stable.surv")).ok());

  OpinionIndexOptions no_retry;
  no_retry.retry.max_attempts = 1;
  OpinionIndex strict(no_retry);
  ASSERT_TRUE(strict.Load(WriteTestSnapshot("stable2.surv")).ok());
  EXPECT_FALSE(strict.Load(testing::TempDir() + "/does-not-exist.surv").ok());
  EXPECT_TRUE(strict.loaded());
  EXPECT_TRUE(strict.Lookup("kitten", "cute").ok());
  // The failed load neither advanced the generation nor went uncounted.
  EXPECT_EQ(strict.generation_id(), 1u);
  EXPECT_EQ(strict.metrics()
                .GetCounter("surveyor_generation_swap_failures_total")
                ->Value(),
            1);
}

TEST_F(OpinionIndexTest, GenerationIdsAdvanceWithEachLoad) {
  OpinionIndex index;
  EXPECT_EQ(index.generation_id(), 0u);
  EXPECT_EQ(index.generation(), nullptr);

  ASSERT_TRUE(index.Load(WriteTestSnapshot("gen1.surv")).ok());
  EXPECT_EQ(index.generation_id(), 1u);
  ASSERT_TRUE(index.Load(WriteTestSnapshot("gen2.surv")).ok());
  EXPECT_EQ(index.generation_id(), 2u);

  // An explicit id (the GenerationStore's numbering, including a
  // rollback to a smaller id) is taken verbatim.
  ASSERT_TRUE(index.LoadGeneration(WriteTestSnapshot("gen7.surv"), 7).ok());
  EXPECT_EQ(index.generation_id(), 7u);
  ASSERT_TRUE(index.LoadGeneration(WriteTestSnapshot("gen3.surv"), 3).ok());
  EXPECT_EQ(index.generation_id(), 3u);
  // Implicit Load continues from wherever the explicit id left off.
  ASSERT_TRUE(index.Load(WriteTestSnapshot("gen4.surv")).ok());
  EXPECT_EQ(index.generation_id(), 4u);

  const GenerationPtr generation = index.generation();
  ASSERT_NE(generation, nullptr);
  EXPECT_EQ(generation->id(), 4u);
  EXPECT_GE(generation->AgeSeconds(), 0.0);
  EXPECT_EQ(index.metrics().GetGauge("surveyor_generation_id")->Value(),
            4.0);
}

TEST_F(OpinionIndexTest, RetriesAbsorbTransientSnapshotReadFaults) {
  const std::string path = WriteTestSnapshot("retry.surv");
  // At 50% failure probability, 8 attempts fail together 1 time in 256 —
  // and the seed is fixed, so the test is deterministic anyway.
  ScopedFaults faults("snapshot_read:0.5", /*seed=*/7);
  OpinionIndexOptions options;
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_seconds = 0;
  options.retry.max_backoff_seconds = 0;
  OpinionIndex index(options);
  EXPECT_TRUE(index.Load(path).ok());
}

// Hammer lookups from many threads; run under TSan in CI.
TEST_F(OpinionIndexTest, ConcurrentLookupsAreSafe) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("hammer.surv")).ok());

  const std::vector<std::pair<std::string, std::string>> queries = {
      {"kitten", "cute"}, {"koala", "cute"},   {"spider", "cute"},
      {"lisbon", "hilly"}, {"nobody", "cute"}, {"kitten", "hilly"},
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&index, &queries, &failures, t] {
      for (int i = 0; i < 2000; ++i) {
        const auto& [entity, property] = queries[(t + i) % queries.size()];
        const auto opinion = index.Lookup(entity, property);
        const bool expect_ok =
            (property == "cute" && entity != "nobody" && entity != "lisbon") ||
            (entity == "lisbon" && property == "hilly");
        if (opinion.ok() != expect_ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);

  const auto opinion = index.Lookup("kitten", "cute");
  ASSERT_TRUE(opinion.ok());
  EXPECT_DOUBLE_EQ(opinion->posterior, 0.97);
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
