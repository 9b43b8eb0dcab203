// A deterministic mutation fuzzer for Snapshot::Open, the trust boundary
// between the bytes on disk and the index that serves them. It mutates
// three seed images (byte flips, truncations, splices, and u32/u64
// overwrites at structural offsets), re-stamps the section CRCs of half
// the mutants so the structural checks decide rather than the CRC, and
// asserts:
//   - Open returns OK, InvalidArgument or Internal, and never crashes;
//   - when it returns OK, every query shape runs over every name (point
//     lookups of every entity x property, type scans of every type x
//     property at limits 0, 1 and 10, prefix scans of every 1- and
//     2-character prefix) without a sanitizer report, and the answers keep
//     the invariants the validator promises.
// A second case validates each mutant at 1, 2, 3 and 4 parts and asserts
// one verdict and one message: the seed images are tiny, so their ranges
// are a few entries each and every range boundary gets mutated.
// The iteration count is fixed, so a run is reproducible; set
// SURVEYOR_FUZZ_ITERATIONS to run longer.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serving/opinion_index.h"
#include "serving/snapshot.h"
#include "serving/snapshot_internal.h"
#include "tests/serving/snapshot_image.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/string_util.h"

namespace surveyor {
namespace serving {
namespace {

constexpr int kDefaultIterations = 5000;

int Iterations() {
  const char* env = std::getenv("SURVEYOR_FUZZ_ITERATIONS");
  if (env != nullptr && std::atoi(env) > 0) return std::atoi(env);
  return kDefaultIterations;
}

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

/// An empty snapshot, snapshot_test's fixture (with provenance and two
/// types), and a two-type world where "Mercury" has opinions on one
/// property under both types.
std::vector<std::string> SeedImages() {
  std::vector<std::string> seeds;
  SnapshotWriter empty;
  empty.set_label("empty");
  seeds.push_back(empty.Serialize());

  SnapshotWriter fixture;
  fixture.set_label("test snapshot");
  for (const SnapshotOpinion& opinion :
       {MakeOpinion("kitten", "animal", "cute", 0.97, Polarity::kPositive),
        MakeOpinion("spider", "animal", "cute", 0.12, Polarity::kNegative),
        MakeOpinion("lisbon", "city", "hilly", 0.88, Polarity::kPositive)}) {
    EXPECT_TRUE(fixture.Add(opinion).ok());
  }
  fixture.AddProvenance("kitten", "animal", "cute",
                        {{1234, 2, true}, {5678, 0, false}});
  seeds.push_back(fixture.Serialize());

  SnapshotWriter shared;
  shared.set_label("shared name");
  for (const SnapshotOpinion& opinion :
       {MakeOpinion("Mercury", "planet", "hot", 0.9, Polarity::kPositive),
        MakeOpinion("Venus", "planet", "hot", 0.95, Polarity::kPositive),
        MakeOpinion("Mars", "planet", "hot", 0.2, Polarity::kNegative),
        MakeOpinion("Mercury", "element", "hot", 0.3, Polarity::kNegative),
        MakeOpinion("Mercury", "element", "toxic", 0.97,
                    Polarity::kPositive),
        MakeOpinion("Lead", "element", "toxic", 0.97, Polarity::kPositive),
        MakeOpinion("Neon", "element", "toxic", 0.1, Polarity::kNegative)}) {
    EXPECT_TRUE(shared.Add(opinion).ok());
  }
  shared.AddProvenance("Mercury", "element", "toxic", {{7, 1, true}});
  shared.AddProvenance("Venus", "planet", "hot", {{8, 0, false}});
  seeds.push_back(shared.Serialize());
  return seeds;
}

/// Byte offsets of the fields a mutator overwrites, with their widths: the
/// header, the section table, and every entry of the block, posting, pair,
/// entity, provenance and meta sections of `bytes`.
std::vector<std::pair<size_t, size_t>> StructuralFields(
    const std::string& bytes) {
  std::vector<std::pair<size_t, size_t>> fields = {{8, 4}, {12, 4}, {16, 8}};
  for (size_t i = 0; i < kSnapshotSectionCount; ++i) {
    const size_t entry = image::SectionEntryAt(i);
    if (entry + kSnapshotSectionEntrySize > bytes.size()) break;
    for (const auto& [at, width] :
         {std::pair<size_t, size_t>{0, 4}, {4, 4}, {8, 8}, {16, 8}}) {
      fields.emplace_back(entry + at, width);
    }
  }
  const struct {
    uint32_t id;
    size_t entry_size;
  } kTables[] = {{kSectionMeta, 8},
                 {kSectionEntities, kSnapshotEntityEntrySize},
                 {kSectionBlocks, kSnapshotBlockEntrySize},
                 {kSectionPostings, 4},
                 {kSectionPairs, kSnapshotPairEntrySize},
                 {kSectionProvenance, kSnapshotProvenanceEntrySize}};
  for (const auto& table : kTables) {
    const image::SectionSpan span = image::FindSection(bytes, table.id);
    const size_t width = table.id == kSectionMeta ? 8 : 4;
    for (size_t at = 0; at + width <= span.size; at += width) {
      fields.emplace_back(span.offset + at, width);
    }
  }
  return fields;
}

std::string Mutate(const std::vector<std::string>& seeds, std::mt19937* rng) {
  auto pick = [rng](size_t n) {
    return static_cast<size_t>((*rng)() % static_cast<uint32_t>(n));
  };
  std::string bytes = seeds[pick(seeds.size())];
  switch (pick(4)) {
    case 0: {  // byte flips
      const size_t flips = 1 + pick(4);
      for (size_t i = 0; i < flips; ++i) {
        bytes[pick(bytes.size())] ^= static_cast<char>(1 + pick(255));
      }
      break;
    }
    case 1:  // truncation
      bytes.resize(pick(bytes.size()));
      break;
    case 2: {  // splice: a prefix of one image, a suffix of another
      const std::string& other = seeds[pick(seeds.size())];
      bytes = bytes.substr(0, pick(bytes.size() + 1)) +
              other.substr(pick(other.size() + 1));
      break;
    }
    default: {  // u32/u64 overwrite at a structural offset
      const auto fields = StructuralFields(bytes);
      const auto [at, width] = fields[pick(fields.size())];
      const uint64_t original = image::Get(bytes, at, width);
      const uint64_t max = width == 4 ? std::numeric_limits<uint32_t>::max()
                                      : std::numeric_limits<uint64_t>::max();
      const uint64_t values[] = {0,           1,           max,
                                 bytes.size() - 1, bytes.size() + 1,
                                 original - 1, original + 1};
      image::Put(&bytes, at, values[pick(7)] & max, width);
      break;
    }
  }
  if (pick(2) == 0) image::RestampCrcs(&bytes);
  return bytes;
}

/// Runs every query shape over every name of an image that opened, and
/// checks what the validator promises about the answers.
void QueryEverything(const std::string& path, const Snapshot& snapshot) {
  OpinionIndexOptions options;
  options.retry.max_attempts = 1;
  OpinionIndex index(options);
  ASSERT_TRUE(index.Load(path).ok());
  std::set<char> alphabet = {'~'};
  // Every pair is asked once alone and once in one batch, which finds its
  // pairs a group at a time and must answer as the lookups did.
  std::vector<std::pair<std::string, std::string>> pairs = {{"~", "~"}};
  std::vector<std::pair<StatusCode, double>> alone = {
      {StatusCode::kNotFound, 0.0}};
  for (uint32_t e = 0; e < snapshot.num_entities(); ++e) {
    const std::string entity(snapshot.EntityName(e));
    for (const char c : ToLower(entity)) alphabet.insert(c);
    for (uint32_t p = 0; p < snapshot.num_properties(); ++p) {
      pairs.emplace_back(entity, snapshot.PropertyName(p));
      const auto pinned = index.Lookup(pairs.back().first, pairs.back().second);
      const StatusOr<ServedOpinion>& answer = *pinned;
      if (answer.ok()) {
        EXPECT_EQ(ToLower(answer->entity), ToLower(entity));
        alone.emplace_back(StatusCode::kOk, answer->posterior);
      } else {
        EXPECT_EQ(answer.status().code(), StatusCode::kNotFound);
        alone.emplace_back(answer.status().code(), 0.0);
      }
    }
  }
  const auto batch = index.BatchLookup(pairs);
  ASSERT_EQ(batch->size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const StatusOr<ServedOpinion>& answer = (*batch)[i];
    EXPECT_EQ(answer.status().code(), alone[i].first);
    if (answer.ok()) {
      EXPECT_EQ(answer->posterior, alone[i].second);
    }
  }
  for (uint32_t t = 0; t < snapshot.num_types(); ++t) {
    for (uint32_t p = 0; p < snapshot.num_properties(); ++p) {
      for (const size_t limit : {size_t{0}, size_t{1}, size_t{10}}) {
        const auto pinned = index.QueryType(snapshot.TypeName(t),
                                            snapshot.PropertyName(p), limit);
        const ScanRange& scan = *pinned;
        if (limit > 0) {
          EXPECT_LE(scan.size(), limit);
        }
        for (size_t i = 0; i < scan.size(); ++i) {
          EXPECT_EQ(scan[i].polarity, Polarity::kPositive);
          if (i > 0) {
            EXPECT_GE(scan[i - 1].posterior, scan[i].posterior);
          }
        }
      }
    }
  }
  for (const char a : alphabet) {
    index.PrefixScan(std::string(1, a));
    for (const char b : alphabet) index.PrefixScan(std::string{a, b}, 10);
  }
}

TEST(SnapshotFuzzTest, OpenRejectsOrServesEveryMutant) {
  ScopedFaults disarm{""};
  const std::vector<std::string> seeds = SeedImages();
  const std::string path = testing::TempDir() + "/snapshot_fuzz.surv";
  std::mt19937 rng(20150601);
  int opened = 0;
  int structural = 0;
  int corrupt = 0;
  const int iterations = Iterations();
  for (int i = 0; i < iterations; ++i) {
    const std::string bytes = Mutate(seeds, &rng);
    {
      // Rewritten in place: nothing may still map the previous mutant.
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    Snapshot snapshot;
    const Status status = snapshot.Open(path);
    switch (status.code()) {
      case StatusCode::kOk:
        ++opened;
        QueryEverything(path, snapshot);
        break;
      case StatusCode::kInvalidArgument:
        ++structural;
        break;
      case StatusCode::kInternal:
        ++corrupt;
        break;
      default:
        ADD_FAILURE() << "iteration " << i << ": " << status.ToString();
    }
    if (HasFatalFailure()) return;
  }
  // Each outcome must actually be reached, or the fuzzer tests nothing.
  EXPECT_GT(opened, 0);
  EXPECT_GT(structural, 0);
  EXPECT_GT(corrupt, 0);
  std::printf("snapshot fuzz: %d mutants, %d opened, %d invalid, %d corrupt\n",
              iterations, opened, structural, corrupt);
}

TEST(SnapshotFuzzTest, VerdictDoesNotDependOnThePartCount) {
  const std::vector<std::string> seeds = SeedImages();
  std::mt19937 rng(20150602);
  const int iterations = Iterations();
  int failed = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::string bytes = Mutate(seeds, &rng);
    const Status one = snapshot_internal::ValidateImage(bytes, 1);
    failed += one.ok() ? 0 : 1;
    for (const int parts : {2, 3, 4}) {
      const Status split = snapshot_internal::ValidateImage(bytes, parts);
      ASSERT_EQ(split.ToString(), one.ToString())
          << "mutant " << i << " at " << parts << " parts";
    }
  }
  EXPECT_GT(failed, 0);
  EXPECT_LT(failed, iterations);
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
