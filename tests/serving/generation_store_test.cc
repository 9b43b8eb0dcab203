#include "serving/generation_store.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#define SURVEYOR_HAVE_FORK 1
#endif

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serving/snapshot.h"
#include "util/fault.h"
#include "util/status.h"

namespace surveyor {
namespace serving {
namespace {

namespace fs = std::filesystem;

/// A minimal valid snapshot image whose label identifies the version, so
/// tests can tell which publish a reopened store serves.
std::string MakeImage(const std::string& label) {
  SnapshotWriter writer;
  writer.set_label(label);
  SnapshotOpinion opinion;
  opinion.entity = "Kitten";
  opinion.type = "animal";
  opinion.property = "cute";
  opinion.posterior = 0.97;
  opinion.polarity = Polarity::kPositive;
  EXPECT_TRUE(writer.Add(opinion).ok());
  return writer.Serialize();
}

std::string LabelOf(const std::string& snapshot_path) {
  Snapshot snapshot;
  EXPECT_TRUE(snapshot.Open(snapshot_path).ok()) << snapshot_path;
  return std::string(snapshot.label());
}

std::string FreshRoot(const std::string& name) {
  const std::string root = testing::TempDir() + "/genstore_" + name;
  fs::remove_all(root);
  return root;
}

/// Generation tests assert exact store state; keep the CI chaos profile's
/// env-armed faults out of their way (fault tests arm their own specs).
class GenerationStoreTest : public testing::Test {
 protected:
  ScopedFaults disarm_{""};
};

TEST_F(GenerationStoreTest, OpenOnMissingRootIsAnEmptyStore) {
  GenerationStore store(FreshRoot("empty"));
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.latest(), 0u);
  EXPECT_TRUE(store.generations().empty());
  EXPECT_FALSE(store.Contains(1));
}

TEST_F(GenerationStoreTest, PublishCommitsAndSurvivesReopen) {
  const std::string root = FreshRoot("publish");
  GenerationStore store(root);
  ASSERT_TRUE(store.Open().ok());
  const auto first = store.PublishImage(MakeImage("v1"));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, 1u);
  const auto second = store.PublishImage(MakeImage("v2"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 2u);
  EXPECT_EQ(store.latest(), 2u);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_EQ(LabelOf(store.SnapshotPath(2)), "v2");

  // A second store (a fresh process) sees the committed state.
  GenerationStore reopened(root);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.latest(), 2u);
  EXPECT_EQ(reopened.generations(), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(LabelOf(reopened.SnapshotPath(1)), "v1");
}

TEST_F(GenerationStoreTest, PublishFileRoundTripsAndMissingFileIsNotFound) {
  const std::string root = FreshRoot("publish_file");
  const std::string source = root + "-source.surv";
  const std::string image = MakeImage("from a file");
  {
    std::ofstream out(source, std::ios::binary);
    out << image;
  }
  GenerationStore store(root);
  ASSERT_TRUE(store.Open().ok());
  const auto published = store.PublishFile(source);
  ASSERT_TRUE(published.ok()) << published.status();
  EXPECT_EQ(*published, 1u);
  EXPECT_EQ(LabelOf(store.SnapshotPath(1)), "from a file");
  std::ifstream copy(store.SnapshotPath(1), std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(copy), {}), image);

  const auto missing = store.PublishFile(root + "-no-such.surv");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.latest(), 1u);
}

TEST_F(GenerationStoreTest, RefreshPicksUpAnotherProcessesPublish) {
  const std::string root = FreshRoot("refresh");
  GenerationStore serving(root);
  ASSERT_TRUE(serving.Open().ok());

  GenerationStore miner(root);
  ASSERT_TRUE(miner.Open().ok());
  ASSERT_TRUE(miner.PublishImage(MakeImage("v1")).ok());

  EXPECT_EQ(serving.latest(), 0u);
  ASSERT_TRUE(serving.Refresh().ok());
  EXPECT_EQ(serving.latest(), 1u);
}

TEST_F(GenerationStoreTest, RetentionPrunesOldestAfterCommit) {
  const std::string root = FreshRoot("retain");
  GenerationStoreOptions options;
  options.retain = 2;
  GenerationStore store(root, options);
  ASSERT_TRUE(store.Open().ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(
        store.PublishImage(MakeImage("v" + std::to_string(i))).ok());
  }
  EXPECT_EQ(store.generations(), (std::vector<uint64_t>{3, 4}));
  EXPECT_FALSE(fs::exists(store.SnapshotPath(1)));
  EXPECT_FALSE(fs::exists(store.SnapshotPath(2)));
  EXPECT_TRUE(fs::exists(store.SnapshotPath(3)));
}

TEST_F(GenerationStoreTest, RejectsACorruptImageWithoutPublishing) {
  GenerationStore store(FreshRoot("corrupt_image"));
  ASSERT_TRUE(store.Open().ok());
  std::string image = MakeImage("v1");
  image[image.size() / 2] ^= 0x5a;
  EXPECT_FALSE(store.PublishImage(image).ok());
  EXPECT_EQ(store.latest(), 0u);
  // The scratch directory did not leak.
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(store.root())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
}

TEST_F(GenerationStoreTest, PublishCheckRetriesATransientRead) {
  obs::MetricRegistry metrics;
  GenerationStoreOptions options;
  options.metrics = &metrics;
  GenerationStore store(FreshRoot("transient_read"), options);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.PublishImage(MakeImage("v1")).ok());
  {
    // The check's first read fails as a transient I/O error would.
    ScopedFaults faults("snapshot_read:@1");
    const auto second = store.PublishImage(MakeImage("v2"));
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(*second, 2u);
  }
  const obs::Counter* failures =
      metrics.GetCounter("surveyor_generation_publish_failures_total");
  EXPECT_EQ(failures->Value(), 0);
  EXPECT_EQ(LabelOf(store.SnapshotPath(2)), "v2");

  // A corrupt image fails every read alike, and says why.
  std::string image = MakeImage("v3");
  image[image.size() / 2] ^= 0x5a;
  const auto corrupt = store.PublishImage(image);
  ASSERT_FALSE(corrupt.ok());
  const std::string& message = corrupt.status().message();
  EXPECT_NE(message.find("failed validation"), std::string::npos) << message;
  EXPECT_EQ(failures->Value(), 1);
  EXPECT_EQ(store.latest(), 2u);
}

TEST_F(GenerationStoreTest, CorruptManifestFailsOpenLoudly) {
  const std::string root = FreshRoot("corrupt_manifest");
  {
    GenerationStore store(root);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.PublishImage(MakeImage("v1")).ok());
  }
  // Flip one byte inside the committed manifest: the CRC footer must
  // refuse it — serving from a guessed manifest is worse than failing.
  std::string manifest;
  {
    std::ifstream in(root + "/MANIFEST", std::ios::binary);
    manifest.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  manifest[manifest.find("latest") + 7] = '9';
  std::ofstream(root + "/MANIFEST", std::ios::binary) << manifest;
  GenerationStore reopened(root);
  EXPECT_EQ(reopened.Open().code(), StatusCode::kInternal);
}

TEST_F(GenerationStoreTest, OpenSweepsTempAndUnlistedGenerationDirs) {
  const std::string root = FreshRoot("sweep");
  {
    GenerationStore store(root);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.PublishImage(MakeImage("v1")).ok());
  }
  // Fake the corpses of a crashed publish: an in-flight temp dir and a
  // renamed-but-never-committed generation.
  fs::create_directories(root + "/.tmp-gen-000009");
  fs::create_directories(root + "/gen-000002");
  std::ofstream(root + "/gen-000002/snapshot.surv") << "torn";
  GenerationStore reopened(root);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.latest(), 1u);
  EXPECT_FALSE(fs::exists(root + "/.tmp-gen-000009"));
  EXPECT_FALSE(fs::exists(root + "/gen-000002"));
}

// The kill-mid-publish matrix: arm each fault point in turn, verify the
// publish fails cleanly, the committed state is untouched, and a reopened
// store still serves the last complete generation. `@N` fires the N-th
// evaluation of the fault only, which walks the interruption through the
// protocol instruction by instruction.
TEST_F(GenerationStoreTest, FaultAtEveryPublishStepLeavesStoreIntact) {
  struct Step {
    const char* spec;
    const char* name;
  };
  const Step steps[] = {
      {"generation_publish:@1", "before snapshot write"},
      {"generation_publish:@2", "before generation rename"},
      {"generation_manifest:@1", "before manifest commit"},
  };
  int step_index = 0;
  for (const Step& step : steps) {
    SCOPED_TRACE(step.name);
    const std::string root =
        FreshRoot("fault_step" + std::to_string(step_index++));
    obs::MetricRegistry metrics;
    GenerationStoreOptions options;
    options.metrics = &metrics;
    GenerationStore store(root, options);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.PublishImage(MakeImage("good")).ok());

    {
      ScopedFaults faults(step.spec);
      EXPECT_FALSE(store.PublishImage(MakeImage("doomed")).ok());
    }
    EXPECT_EQ(store.latest(), 1u);
    EXPECT_EQ(
        metrics.GetCounter("surveyor_generation_publish_failures_total")
            ->Value(),
        1);

    // A fresh open (the restarted process) sees only the complete
    // generation, sweeps any leftovers, and can publish again.
    GenerationStore reopened(root);
    ASSERT_TRUE(reopened.Open().ok());
    EXPECT_EQ(reopened.latest(), 1u);
    EXPECT_EQ(LabelOf(reopened.SnapshotPath(1)), "good");
    const auto next = reopened.PublishImage(MakeImage("retried"));
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(*next, 2u);
    EXPECT_EQ(LabelOf(reopened.SnapshotPath(2)), "retried");
  }
}

// TSan/ASan and fork do not mix, and the point of this variant is a real
// SIGKILL at an arbitrary instruction — the fault-point matrix above
// covers sanitizer builds.
#if defined(SURVEYOR_HAVE_FORK) && !defined(SURVEYOR_SANITIZE_BUILD)
TEST_F(GenerationStoreTest, SigkillMidPublishNeverLeavesStoreUnopenable) {
  const std::string root = FreshRoot("sigkill");
  {
    GenerationStore store(root);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.PublishImage(MakeImage("base")).ok());
  }

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: publish as fast as possible until killed. _exit (not exit)
    // on any failure so gtest machinery never runs twice.
    GenerationStore store(root);
    if (!store.Open().ok()) _exit(1);
    for (int i = 0; i < 100000; ++i) {
      if (!store.PublishImage(MakeImage("spin" + std::to_string(i))).ok()) {
        _exit(1);
      }
    }
    _exit(0);
  }
  // Parent: let a few publishes land, then kill mid-flight.
  usleep(50 * 1000);
  kill(child, SIGKILL);
  int wait_status = 0;
  waitpid(child, &wait_status, 0);
  ASSERT_TRUE(WIFSIGNALED(wait_status));

  // Whatever instruction the kill landed on, the store must reopen to a
  // complete generation whose snapshots all validate.
  GenerationStore reopened(root);
  ASSERT_TRUE(reopened.Open().ok());
  ASSERT_GE(reopened.latest(), 1u);
  for (const uint64_t id : reopened.generations()) {
    Snapshot snapshot;
    EXPECT_TRUE(snapshot.Open(reopened.SnapshotPath(id)).ok())
        << "generation " << id;
  }
  // And keep working: the next publish gets the next id.
  const auto next = reopened.PublishImage(MakeImage("after"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, reopened.latest());
}
#endif  // SURVEYOR_HAVE_FORK && !SURVEYOR_SANITIZE_BUILD

}  // namespace
}  // namespace serving
}  // namespace surveyor
