#include "serving/opinion_index.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "serving/snapshot.h"
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

  const auto pinned = index.Lookup("kitten", "cute");
  const StatusOr<ServedOpinion>& opinion = *pinned;
  ASSERT_TRUE(opinion.ok()) << opinion.status();
  EXPECT_EQ(pinned.generation(), index.generation());
  EXPECT_EQ(opinion->entity, "Kitten");
  EXPECT_EQ(opinion->type, "animal");
  EXPECT_EQ(opinion->property, "cute");
  EXPECT_DOUBLE_EQ(opinion->posterior, 0.97);
  EXPECT_EQ(opinion->polarity, Polarity::kPositive);
  ASSERT_EQ(opinion->provenance.size(), 1u);
  EXPECT_EQ(opinion->provenance[0].doc_id, 42);

  // Name matching is case-insensitive, like the knowledge base.
  EXPECT_TRUE(index.Lookup("KITTEN", "CUTE")->ok());
}

TEST_F(OpinionIndexTest, LookupBeforeLoadIsFailedPrecondition) {
  OpinionIndex index;
  EXPECT_EQ(index.Lookup("kitten", "cute")->status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(index.Lookup("kitten", "cute").generation(), nullptr);
}

// Both miss shapes — an unknown entity, and a known entity with no
// opinion on the property — answer kNotFound, so a caller handles a miss
// one way whatever its shape.
TEST_F(OpinionIndexTest, NotFoundCoversBothMissShapes) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("semantics.surv")).ok());

  const auto no_opinion = index.Lookup("kitten", "haunted");
  EXPECT_EQ(no_opinion->status().code(), StatusCode::kNotFound);
  const auto unknown = index.Lookup("ghost", "cute");
  EXPECT_EQ(unknown->status().code(), StatusCode::kNotFound);

  // The messages tell the two cases apart for operators.
  EXPECT_NE(unknown->status().message().find("unknown entity"),
            std::string::npos);
  EXPECT_NE(no_opinion->status().message().find("no opinion"),
            std::string::npos);
}

TEST_F(OpinionIndexTest, BatchLookupAnswersPerEntryInOrder) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("batch.surv")).ok());
  const auto batch = index.BatchLookup(
      {{"kitten", "cute"}, {"nobody", "cute"}, {"lisbon", "hilly"}});
  const std::vector<StatusOr<ServedOpinion>>& results = *batch;
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[0]->entity, "Kitten");
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(results[2]->entity, "Lisbon");
}

// A batch is found sixteen pairs at a time; across group boundaries, with
// hits and both miss shapes interleaved and names in any case, it answers
// and counts exactly as one Lookup per pair.
TEST_F(OpinionIndexTest, BatchLookupAnswersAsOneLookupPerPair) {
  obs::MetricRegistry batch_metrics, single_metrics;
  OpinionIndexOptions batch_options, single_options;
  batch_options.metrics = &batch_metrics;
  single_options.metrics = &single_metrics;
  OpinionIndex batched(batch_options), single(single_options);
  const std::string path = WriteTestSnapshot("groups.surv");
  ASSERT_TRUE(batched.Load(path).ok());
  ASSERT_TRUE(single.Load(path).ok());
  const std::vector<std::pair<std::string, std::string>> kinds = {
      {"kitten", "cute"},  {"KITTEN", "Cute"}, {"nobody", "cute"},
      {"kitten", "haunted"}, {"Lisbon", "hilly"}, {"", ""},
      {"spider", "CUTE"}};
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t i = 0; i < 2 * Snapshot::kPairGroup + 5; ++i) {
    pairs.push_back(kinds[(i * 5) % kinds.size()]);
  }
  const auto batch = batched.BatchLookup(pairs);
  ASSERT_EQ(batch->size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto alone = single.Lookup(pairs[i].first, pairs[i].second);
    const StatusOr<ServedOpinion>& answer = (*batch)[i];
    ASSERT_EQ(answer.ok(), alone->ok()) << i;
    if (answer.ok()) {
      EXPECT_EQ(answer->entity, (*alone)->entity);
      EXPECT_EQ(answer->type, (*alone)->type);
      EXPECT_EQ(answer->property, (*alone)->property);
      EXPECT_EQ(answer->posterior, (*alone)->posterior);
      EXPECT_EQ(answer->polarity, (*alone)->polarity);
      EXPECT_EQ(answer->provenance.size(), (*alone)->provenance.size());
    } else {
      EXPECT_EQ(answer.status().ToString(), alone->status().ToString());
    }
  }
  for (const char* counter :
       {"surveyor_query_lookups_total", "surveyor_query_not_found_total"}) {
    EXPECT_EQ(batch_metrics.GetCounter(counter)->Value(),
              single_metrics.GetCounter(counter)->Value())
        << counter;
  }
}

TEST_F(OpinionIndexTest, QueryTypeIsPositiveOnlyStrongestFirst) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("scan.surv")).ok());

  const auto scan = index.QueryType("animal", "cute");
  const ScanRange& cute = *scan;
  ASSERT_EQ(cute.size(), 2u);  // spider's negative opinion is excluded
  EXPECT_EQ(cute[0].entity, "Kitten");
  EXPECT_EQ(cute[1].entity, "Koala");

  EXPECT_EQ(index.QueryType("animal", "cute", 1)->size(), 1u);
  EXPECT_TRUE(index.QueryType("animal", "hilly")->empty());
  EXPECT_TRUE(index.QueryType("volcano", "cute")->empty());
}

TEST_F(OpinionIndexTest, PrefixScanIsSortedAndCaseInsensitive) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("prefix.surv")).ok());
  const auto scan = index.PrefixScan("k");
  const NameRange& matches = *scan;
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], "Kitten");
  EXPECT_EQ(matches[1], "Koala");
  EXPECT_EQ(index.PrefixScan("KIT")->size(), 1u);
  EXPECT_EQ(index.PrefixScan("k", 1)->size(), 1u);
  EXPECT_TRUE(index.PrefixScan("zz")->empty());
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
  EXPECT_TRUE(strict.Lookup("kitten", "cute")->ok());
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

// generation_swap models a swap that dies before publication. A first Load
// has no generation to keep serving, so it is no swap and the point is not
// evaluated: a one-shot reader's only Load cannot fail on it. The first
// evaluation is the second Load's, which fails and keeps generation 1.
TEST_F(OpinionIndexTest, FirstLoadIsNotASwapForTheSwapFault) {
  ScopedFaults faults("generation_swap:@1");
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteTestSnapshot("first-load.surv")).ok());
  EXPECT_EQ(index.generation_id(), 1u);
  EXPECT_TRUE(index.Lookup("kitten", "cute")->ok());

  EXPECT_FALSE(index.Load(WriteTestSnapshot("first-swap.surv")).ok());
  EXPECT_EQ(index.generation_id(), 1u);
  EXPECT_TRUE(index.Lookup("kitten", "cute")->ok());
  EXPECT_EQ(index.metrics()
                .GetCounter("surveyor_generation_swap_failures_total")
                ->Value(),
            1);
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
        if (opinion->ok() != expect_ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);

  const auto opinion = index.Lookup("kitten", "cute");
  ASSERT_TRUE(opinion->ok());
  EXPECT_DOUBLE_EQ(opinion->value().posterior, 0.97);
}

// --- Brute-force oracle -----------------------------------------------------
// A generated world checked answer by answer against the SnapshotOpinions
// it was written from. The oracle knows nothing of the index's structures:
// it filters and sorts the plain opinion list for every question.

std::string Lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string Upper(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Alternates upper and lower case by position ("kItTeN").
std::string MixedCase(std::string_view text) {
  std::string out(text);
  for (size_t i = 0; i < out.size(); ++i) {
    const auto c = static_cast<unsigned char>(out[i]);
    out[i] = static_cast<char>(i % 2 == 0 ? std::tolower(c) : std::toupper(c));
  }
  return out;
}

struct OracleWorld {
  std::vector<SnapshotOpinion> opinions;
  /// (entity, property) display names -> refs.
  std::map<std::pair<std::string, std::string>, std::vector<StatementRef>>
      provenance;
  /// Every entity name with an opinion or a provenance sample.
  std::set<std::string> entities;
  std::set<std::string> types;
  std::set<std::string> properties;
};

/// Six types, 612 entities whose mixed-case names sort differently raw and
/// lowercased, posteriors drawn from seven values (so ties are everywhere,
/// including at every limit-10 cut), a degraded type, provenance on every
/// seventh pair, a provenance-only entity, and one name with "cute"
/// opinions under two types.
OracleWorld MakeOracleWorld() {
  static const char* const kStems[] = {"alpha", "Beta",    "gamma", "Delta",
                                       "eps",   "Zeta",    "eta",   "Theta",
                                       "iota",  "Kappa-9", "lam",   "Mu"};
  static const char* const kProperties[] = {"cute", "safe", "big", "loud",
                                            "Scenic"};
  static const double kPosteriors[] = {0.05, 0.2, 0.4, 0.55, 0.7, 0.85, 0.95};
  OracleWorld world;
  std::mt19937 rng(20150531);
  for (int i = 0; i < 612; ++i) {
    const std::string entity =
        std::string(kStems[i % 12]) + "-" + std::to_string(i / 12);
    const std::string type = "type" + std::to_string(i % 6);
    for (const char* property : kProperties) {
      if (rng() % 5 == 0) continue;
      SnapshotOpinion opinion;
      opinion.entity = entity;
      opinion.type = type;
      opinion.property = property;
      opinion.posterior = kPosteriors[rng() % 7];
      opinion.polarity = opinion.posterior >= 0.5 ? Polarity::kPositive
                                                  : Polarity::kNegative;
      opinion.degraded = type == "type2";
      world.opinions.push_back(opinion);
      if (rng() % 7 == 0) {
        world.provenance[{entity, property}] = {
            {static_cast<int64_t>(i), static_cast<int>(rng() % 5), true},
            {static_cast<int64_t>(i) + 1000, 0, false}};
      }
    }
  }
  for (const char* type : {"type1", "type4"}) {
    SnapshotOpinion shared;
    shared.entity = "Shared-Name";
    shared.type = type;
    shared.property = "cute";
    shared.posterior = std::string(type) == "type1" ? 0.95 : 0.15;
    shared.polarity = std::string(type) == "type1" ? Polarity::kPositive
                                                   : Polarity::kNegative;
    world.opinions.push_back(shared);
  }
  world.provenance[{"Shared-Name", "cute"}] = {{77, 3, true}};
  world.provenance[{"Ghost-Only", "cute"}] = {{78, 0, false}};
  for (const SnapshotOpinion& opinion : world.opinions) {
    world.entities.insert(opinion.entity);
    world.types.insert(opinion.type);
    world.properties.insert(opinion.property);
  }
  for (const auto& [key, refs] : world.provenance) {
    world.entities.insert(key.first);
  }
  return world;
}

/// An answer the index must give, owning its strings and refs (a
/// ServedOpinion only views a pinned snapshot).
struct ExpectedOpinion {
  std::string entity;
  std::string type;
  std::string property;
  double posterior = 0.5;
  Polarity polarity = Polarity::kNeutral;
  bool degraded = false;
  std::vector<StatementRef> provenance;
};

/// The answer the index must give for `opinion`: names as written, the
/// block's degraded flag, the pair's provenance.
ExpectedOpinion Expected(const OracleWorld& world,
                         const SnapshotOpinion& opinion) {
  ExpectedOpinion served;
  served.entity = opinion.entity;
  served.type = opinion.type;
  served.property = opinion.property;
  served.posterior = opinion.posterior;
  served.polarity = opinion.polarity;
  for (const SnapshotOpinion& other : world.opinions) {
    if (other.type == opinion.type && other.property == opinion.property) {
      served.degraded = served.degraded || other.degraded;
    }
  }
  auto prov = world.provenance.find({opinion.entity, opinion.property});
  if (prov != world.provenance.end()) served.provenance = prov->second;
  return served;
}

void ExpectSameAnswer(const ExpectedOpinion& want, const ServedOpinion& got,
                      const std::string& context) {
  EXPECT_EQ(got.entity, want.entity) << context;
  EXPECT_EQ(got.type, want.type) << context;
  EXPECT_EQ(got.property, want.property) << context;
  EXPECT_EQ(got.posterior, want.posterior) << context;
  EXPECT_EQ(got.polarity, want.polarity) << context;
  EXPECT_EQ(got.degraded, want.degraded) << context;
  ASSERT_EQ(got.provenance.size(), want.provenance.size()) << context;
  for (size_t i = 0; i < want.provenance.size(); ++i) {
    EXPECT_EQ(got.provenance[i].doc_id, want.provenance[i].doc_id) << context;
    EXPECT_EQ(got.provenance[i].sentence_index,
              want.provenance[i].sentence_index)
        << context;
    EXPECT_EQ(got.provenance[i].positive, want.provenance[i].positive)
        << context;
  }
}

TEST_F(OpinionIndexTest, AgreesWithBruteForceOracle) {
  const OracleWorld world = MakeOracleWorld();
  SnapshotWriter writer;
  writer.set_label("oracle");
  for (const SnapshotOpinion& opinion : world.opinions) {
    ASSERT_TRUE(writer.Add(opinion).ok());
  }
  for (const auto& [key, refs] : world.provenance) {
    const std::string type = key.first == "Ghost-Only" ? "type0" : "type1";
    writer.AddProvenance(key.first, type, key.second, refs);
  }
  const std::string path = testing::TempDir() + "/oracle.surv";
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  OpinionIndex index;
  ASSERT_TRUE(index.Load(path).ok());

  // Point lookups: a name with opinions on the same property under two
  // types answers from the type that sorts last.
  std::map<std::pair<std::string, std::string>, const SnapshotOpinion*> point;
  for (const SnapshotOpinion& opinion : world.opinions) {
    const SnapshotOpinion*& slot = point[{opinion.entity, opinion.property}];
    if (slot == nullptr || slot->type < opinion.type) slot = &opinion;
  }
  ASSERT_EQ(point.at({"Shared-Name", "cute"})->type, "type4");
  const GenerationPtr pin = index.generation();
  for (const auto& [key, opinion] : point) {
    const ExpectedOpinion want = Expected(world, *opinion);
    for (const auto& [entity, property] :
         {key, std::pair(Upper(key.first), Upper(key.second)),
          std::pair(MixedCase(key.first), MixedCase(key.second))}) {
      const auto got = index.Lookup(pin, entity, property);
      ASSERT_TRUE(got.ok()) << entity << "/" << property << ": "
                            << got.status();
      ExpectSameAnswer(want, *got, entity + "/" + property);
    }
  }

  // Misses keep today's messages.
  const auto unknown = index.Lookup("No-Such-Entity", "cute");
  EXPECT_EQ(unknown->status().code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown->status().message(), "unknown entity 'No-Such-Entity'");
  const auto no_property = index.Lookup("alpha-0", "Haunted");
  EXPECT_EQ(no_property->status().code(), StatusCode::kNotFound);
  EXPECT_EQ(no_property->status().message(),
            "no opinion for entity 'alpha-0' property 'Haunted'");
  EXPECT_EQ(index.Lookup("ghost-only", "cute")->status().code(),
            StatusCode::kNotFound);

  // Type scans: positives of the (type, property) block, posterior
  // descending, then entity name. Ties at the cut admit any valid top-k,
  // so the check is on posteriors by rank, membership and tie order.
  size_t cuts_inside_ties = 0;
  std::set<std::string> scan_types = world.types;
  scan_types.insert("type9");
  for (const std::string& type : scan_types) {
    for (const std::string& property : world.properties) {
      std::vector<const SnapshotOpinion*> ranked;
      for (const SnapshotOpinion& opinion : world.opinions) {
        if (opinion.type == type && opinion.property == property &&
            opinion.polarity == Polarity::kPositive) {
          ranked.push_back(&opinion);
        }
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const SnapshotOpinion* a, const SnapshotOpinion* b) {
                  return std::tie(b->posterior, a->entity) <
                         std::tie(a->posterior, b->entity);
                });
      for (const size_t limit : {size_t{0}, size_t{1}, size_t{10}}) {
        const std::string context =
            type + "/" + property + " limit " + std::to_string(limit);
        const ScanRange got =
            index.QueryType(pin, MixedCase(type), Upper(property), limit);
        const size_t want_size =
            limit == 0 ? ranked.size() : std::min(limit, ranked.size());
        ASSERT_EQ(got.size(), want_size) << context;
        if (want_size > 0 && want_size < ranked.size() &&
            ranked[want_size]->posterior == ranked[want_size - 1]->posterior) {
          ++cuts_inside_ties;
        }
        std::set<std::string_view> seen;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].posterior, ranked[i]->posterior) << context;
          EXPECT_TRUE(seen.insert(got[i].entity).second) << context;
          if (i > 0 && got[i].posterior == got[i - 1].posterior) {
            EXPECT_LT(got[i - 1].entity, got[i].entity) << context;
          }
          const auto match = std::find_if(
              ranked.begin(), ranked.end(), [&](const SnapshotOpinion* o) {
                return o->entity == got[i].entity;
              });
          ASSERT_NE(match, ranked.end()) << context << ": " << got[i].entity;
          ExpectSameAnswer(Expected(world, **match), got[i], context);
        }
      }
    }
  }
  EXPECT_GT(cuts_inside_ties, 0u) << "the world must put ties at a cut";

  // Prefix scans: every 1- and 2-character prefix over the names'
  // alphabet (plus one character no name holds), in snapshot casing,
  // sorted case-insensitively.
  std::vector<std::pair<std::string, std::string>> sorted_names;
  std::set<char> alphabet = {'~'};
  for (const std::string& name : world.entities) {
    sorted_names.emplace_back(Lower(name), name);
    for (const char c : Lower(name)) alphabet.insert(c);
  }
  std::sort(sorted_names.begin(), sorted_names.end());
  std::vector<std::string> prefixes;
  for (const char a : alphabet) {
    prefixes.emplace_back(1, a);
    for (const char b : alphabet) prefixes.push_back(std::string{a, b});
  }
  for (const std::string& prefix : prefixes) {
    for (const size_t limit : {size_t{0}, size_t{10}}) {
      std::vector<std::string> want;
      for (const auto& [lower, name] : sorted_names) {
        if (lower.compare(0, prefix.size(), prefix) != 0) continue;
        if (limit > 0 && want.size() >= limit) break;
        want.push_back(name);
      }
      const auto got = index.PrefixScan(Upper(prefix), limit);
      EXPECT_EQ(std::vector<std::string>(got->begin(), got->end()), want)
          << "prefix '" << prefix << "' limit " << limit;
    }
  }
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
