#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serving/opinion_index.h"
#include "serving/snapshot.h"
#include "util/fault.h"
#include "util/status.h"

namespace surveyor {
namespace serving {
namespace {

// The hot-swap consistency hammer (run under TSan in CI): query threads
// hammer point lookups, type scans and prefix scans while the main
// thread drives 100+ live generation swaps, some of them doomed loads of
// corrupt files. Every snapshot encodes its generation number into every
// answerable surface — posterior, provenance doc_id, and a marker entity
// name — so a query thread can prove each answer is internally consistent
// with exactly one generation: a torn swap (half old maps, half new
// snapshot) would decode to two different generation numbers inside one
// answer.

constexpr int kEntities = 8;

/// posterior = (100*g + i + 1) / 100000 encodes (generation, entity).
double EncodePosterior(uint64_t generation, int entity) {
  return static_cast<double>(100 * generation + entity + 1) / 100000.0;
}

/// Recovers 100*g + i + 1 from a posterior.
int64_t DecodePosterior(double posterior) {
  return std::llround(posterior * 100000.0);
}

std::string WriteGenerationSnapshot(uint64_t generation,
                                    const std::string& dir) {
  SnapshotWriter writer;
  writer.set_label("gen" + std::to_string(generation));
  for (int i = 0; i < kEntities; ++i) {
    SnapshotOpinion opinion;
    opinion.entity = "entity" + std::to_string(i);
    opinion.type = "thing";
    opinion.property = "score";
    opinion.posterior = EncodePosterior(generation, i);
    opinion.polarity = Polarity::kPositive;
    EXPECT_TRUE(writer.Add(opinion).ok());
    // Provenance doc_id carries the generation too: a point answer whose
    // posterior and provenance disagree would expose a cross-generation
    // mix inside one Materialize.
    writer.AddProvenance(opinion.entity, "thing", "score",
                         {{static_cast<int64_t>(generation), 0, true}});
  }
  // One marker entity per generation, for prefix-scan consistency: a
  // PrefixScan("marker") must see exactly one of these, never two.
  SnapshotOpinion marker;
  marker.entity = "marker-g" + std::to_string(generation);
  marker.type = "thing";
  marker.property = "score";
  marker.posterior = EncodePosterior(generation, kEntities);
  marker.polarity = Polarity::kPositive;
  EXPECT_TRUE(writer.Add(marker).ok());

  const std::string path =
      dir + "/swap-gen" + std::to_string(generation) + ".surv";
  EXPECT_TRUE(writer.WriteToFile(path).ok());
  return path;
}

TEST(GenerationSwapTest, QueriesStayConsistentAcross100LiveSwaps) {
  ScopedFaults disarm{""};
  const std::string dir = testing::TempDir() + "/generation_swap";
  std::filesystem::create_directories(dir);

  constexpr uint64_t kSwaps = 120;
  // Pre-build the snapshot files so the swap loop measures swaps, not
  // serialization; a handful of distinct files is enough because the
  // generation id is assigned at load time.
  std::vector<std::string> paths;
  for (uint64_t g = 1; g <= 8; ++g) {
    paths.push_back(WriteGenerationSnapshot(g, dir));
  }
  const std::string corrupt_path = dir + "/corrupt.surv";
  {
    std::ifstream in(paths[0], std::ios::binary);
    std::string image((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    image[image.size() / 2] ^= 0x5a;
    std::ofstream(corrupt_path, std::ios::binary) << image;
  }

  OpinionIndexOptions options;
  options.retry.max_attempts = 1;
  OpinionIndex index(options);
  // Load generation g from file (g-1)%8: the snapshot's *content*
  // encodes ((g-1)%8)+1, so queries must decode content generation, not
  // the LoadGeneration id. Map: file for generation f has content f.
  auto content_generation = [](uint64_t swap) -> uint64_t {
    return (swap - 1) % 8 + 1;
  };
  ASSERT_TRUE(index.LoadGeneration(paths[0], 1).ok());

  std::atomic<bool> done{false};
  std::atomic<int64_t> inconsistencies{0};
  std::atomic<int64_t> answers{0};

  std::vector<std::thread> readers;
  // Thread 0+1: point lookups. An answer must agree with itself: the
  // entity index decoded from the posterior matches the entity asked
  // for, and the provenance doc_id names the same generation.
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&index, &done, &inconsistencies, &answers, t] {
      int i = t;
      while (!done.load(std::memory_order_relaxed)) {
        const std::string entity = "entity" + std::to_string(i % kEntities);
        // The answer holds its generation pinned, so its views stay valid
        // while swaps retire that generation from the index.
        const auto pinned = index.Lookup(entity, "score");
        const StatusOr<ServedOpinion>& opinion = *pinned;
        if (opinion.ok()) {
          answers.fetch_add(1, std::memory_order_relaxed);
          const int64_t code = DecodePosterior(opinion->posterior);
          const int64_t generation = (code - 1) / 100;
          const int64_t entity_index = (code - 1) % 100;
          bool consistent = generation >= 1 && generation <= 8 &&
                            entity_index == i % kEntities;
          if (consistent && !opinion->provenance.empty()) {
            consistent = opinion->provenance[0].doc_id == generation;
          }
          if (!consistent) {
            inconsistencies.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ++i;
      }
    });
  }
  // Thread 2: type scans. Every row of one scan must decode to the SAME
  // generation — a swap landing mid-scan must not mix rows.
  readers.emplace_back([&index, &done, &inconsistencies, &answers] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto scan = index.QueryType("thing", "score");
      const ScanRange& rows = *scan;
      if (rows.empty()) continue;
      answers.fetch_add(1, std::memory_order_relaxed);
      const int64_t generation = (DecodePosterior(rows[0].posterior) - 1) / 100;
      bool consistent = rows.size() == kEntities + 1;
      for (const ServedOpinion& row : rows) {
        if ((DecodePosterior(row.posterior) - 1) / 100 != generation) {
          consistent = false;
        }
      }
      if (!consistent) {
        inconsistencies.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Thread 3: prefix scans. Exactly one generation marker may exist.
  readers.emplace_back([&index, &done, &inconsistencies, &answers] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto scan = index.PrefixScan("marker-");
      const NameRange& markers = *scan;
      if (markers.empty()) continue;
      answers.fetch_add(1, std::memory_order_relaxed);
      if (markers.size() != 1) {
        inconsistencies.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // The swap driver: 120 live swaps, every 5th a doomed load of the
  // corrupt file (which must fail and keep the old generation serving).
  // An optimized build can finish all 120 swaps before the readers land
  // a single query, so the driver paces itself on reader progress: each
  // swap waits until the answer count moved, and the run only ends once
  // the readers have produced a real sample.
  uint64_t failed_swaps = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (uint64_t swap = 2; swap <= kSwaps + 1; ++swap) {
    if (swap % 5 == 0) {
      EXPECT_FALSE(index.LoadGeneration(corrupt_path, swap).ok());
      ++failed_swaps;
      EXPECT_TRUE(index.loaded());
    } else {
      const uint64_t content = content_generation(swap);
      ASSERT_TRUE(
          index.LoadGeneration(paths[content - 1], swap).ok());
      EXPECT_EQ(index.generation_id(), swap);
    }
    const int64_t before = answers.load(std::memory_order_relaxed);
    while (answers.load(std::memory_order_relaxed) == before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  while (answers.load(std::memory_order_relaxed) < 1000 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GT(answers.load(), 0);
  EXPECT_GT(failed_swaps, 20u);
  EXPECT_EQ(index.metrics()
                .GetCounter("surveyor_generation_swap_failures_total")
                ->Value(),
            static_cast<int64_t>(failed_swaps));

  // The swap counter saw the initial load plus every successful swap.
  EXPECT_EQ(index.metrics()
                .GetCounter("surveyor_generation_swaps_total")
                ->Value(),
            static_cast<int64_t>(1 + kSwaps - failed_swaps));
}

// A pinned generation outlives the swap that replaced it: the RCU grace
// period is the shared_ptr refcount.
TEST(GenerationSwapTest, PinnedGenerationSurvivesSwap) {
  ScopedFaults disarm{""};
  const std::string dir = testing::TempDir() + "/generation_pin";
  std::filesystem::create_directories(dir);
  OpinionIndex index;
  ASSERT_TRUE(index.LoadGeneration(WriteGenerationSnapshot(1, dir), 1).ok());
  const GenerationPtr pinned = index.generation();
  ASSERT_TRUE(index.LoadGeneration(WriteGenerationSnapshot(2, dir), 2).ok());
  EXPECT_EQ(index.generation_id(), 2u);
  // The old generation's mapped snapshot is still alive and readable.
  EXPECT_EQ(pinned->id(), 1u);
  EXPECT_EQ(std::string(pinned->snapshot().label()), "gen1");
  EXPECT_EQ(pinned->snapshot().num_entities(), kEntities + 1u);
}

// The generation_swap fault fires after a fully successful build but
// before publication: the failure path the /metrics swap-failure counter
// exists for.
TEST(GenerationSwapTest, SwapFaultKeepsOldGenerationServing) {
  ScopedFaults disarm{""};
  const std::string dir = testing::TempDir() + "/generation_swapfault";
  std::filesystem::create_directories(dir);
  OpinionIndex index;
  ASSERT_TRUE(index.LoadGeneration(WriteGenerationSnapshot(1, dir), 1).ok());
  {
    ScopedFaults faults("generation_swap:@1");
    EXPECT_FALSE(
        index.LoadGeneration(WriteGenerationSnapshot(2, dir), 2).ok());
  }
  EXPECT_EQ(index.generation_id(), 1u);
  EXPECT_TRUE(index.Lookup("entity0", "score")->ok());
  EXPECT_EQ(index.metrics()
                .GetCounter("surveyor_generation_swap_failures_total")
                ->Value(),
            1);
  // Disarmed, the same load goes through.
  ASSERT_TRUE(index.LoadGeneration(WriteGenerationSnapshot(2, dir), 2).ok());
  EXPECT_EQ(index.generation_id(), 2u);
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
