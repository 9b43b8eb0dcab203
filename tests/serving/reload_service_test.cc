#include "serving/reload_service.h"

#include <filesystem>
#include <string>

#include "gtest/gtest.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "serving/generation_store.h"
#include "serving/opinion_index.h"
#include "serving/snapshot.h"
#include "util/fault.h"
#include "util/status.h"

namespace surveyor {
namespace serving {
namespace {

namespace fs = std::filesystem;

std::string MakeImage(const std::string& entity) {
  SnapshotWriter writer;
  writer.set_label("reload test");
  SnapshotOpinion opinion;
  opinion.entity = entity;
  opinion.type = "animal";
  opinion.property = "cute";
  opinion.posterior = 0.9;
  opinion.polarity = Polarity::kPositive;
  EXPECT_TRUE(writer.Add(opinion).ok());
  return writer.Serialize();
}

/// One wired serving stack: store + index + reload service mounted on a
/// socketless admin server (Handle() only).
class ReloadServiceTest : public testing::Test {
 protected:
  ReloadServiceTest()
      : root_(testing::TempDir() + "/reloadz_" +
              testing::UnitTest::GetInstance()->current_test_info()->name()),
        store_(root_, StoreOptions()),
        index_(IndexOptions()),
        reload_(&store_, &index_, &metrics_),
        admin_(&metrics_, nullptr, nullptr) {
    fs::remove_all(root_);
    EXPECT_TRUE(store_.Open().ok());
    reload_.Register(&admin_);
  }

  GenerationStoreOptions StoreOptions() {
    GenerationStoreOptions options;
    options.metrics = &metrics_;
    return options;
  }

  OpinionIndexOptions IndexOptions() {
    OpinionIndexOptions options;
    options.metrics = &metrics_;
    options.retry.max_attempts = 1;
    return options;
  }

  ScopedFaults disarm_{""};
  std::string root_;
  obs::MetricRegistry metrics_;
  GenerationStore store_;
  OpinionIndex index_;
  ReloadService reload_;
  obs::AdminServer admin_;
};

TEST_F(ReloadServiceTest, ReloadOnEmptyStoreIs404) {
  const auto response = admin_.Handle("POST", "/v1/admin/reload");
  EXPECT_EQ(response.status, 404);
  EXPECT_FALSE(index_.loaded());
}

TEST_F(ReloadServiceTest, GetIs405AndBadParamIs400) {
  EXPECT_EQ(admin_.Handle("GET", "/v1/admin/reload").status, 405);
  EXPECT_EQ(admin_.Handle("POST", "/v1/admin/reload?generation=abc").status,
            400);
  EXPECT_EQ(admin_.Handle("POST", "/v1/admin/reload?generation=").status, 400);
}

TEST_F(ReloadServiceTest, ReloadzSwapsToTheNewestPublish) {
  ASSERT_TRUE(store_.PublishImage(MakeImage("Kitten")).ok());
  auto response = admin_.Handle("POST", "/v1/admin/reload");
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(index_.generation_id(), 1u);
  EXPECT_TRUE(index_.Lookup("kitten", "cute")->ok());

  // A publish from *another* store handle (another process writing the
  // same directory): /v1/admin/reload must Refresh and pick it up.
  {
    GenerationStore miner(root_);
    ASSERT_TRUE(miner.Open().ok());
    ASSERT_TRUE(miner.PublishImage(MakeImage("Koala")).ok());
  }
  response = admin_.Handle("POST", "/v1/admin/reload");
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(index_.generation_id(), 2u);
  EXPECT_TRUE(index_.Lookup("koala", "cute")->ok());
  EXPECT_EQ(index_.Lookup("kitten", "cute")->status().code(),
            StatusCode::kNotFound);
  EXPECT_NE(response.body.find("\"previous\":1"), std::string::npos);
}

TEST_F(ReloadServiceTest, ExplicitGenerationRollsBack) {
  ASSERT_TRUE(store_.PublishImage(MakeImage("Kitten")).ok());
  ASSERT_TRUE(store_.PublishImage(MakeImage("Koala")).ok());
  ASSERT_EQ(admin_.Handle("POST", "/v1/admin/reload").status, 200);
  ASSERT_EQ(index_.generation_id(), 2u);

  const auto rollback = admin_.Handle("POST", "/v1/admin/reload?generation=1");
  EXPECT_EQ(rollback.status, 200) << rollback.body;
  EXPECT_EQ(index_.generation_id(), 1u);
  EXPECT_TRUE(index_.Lookup("kitten", "cute")->ok());

  // An id the store never had (or already pruned) is 404, not a crash.
  EXPECT_EQ(admin_.Handle("POST", "/v1/admin/reload?generation=9").status, 404);
  EXPECT_EQ(index_.generation_id(), 1u);
}

// An id past UINT64_MAX used to wrap: 2^64 + 1 rolled back to generation
// 1, and 10^20 - 1 looked up 7766279631452241919. Both are malformed ids.
TEST_F(ReloadServiceTest, IdBeyondUint64IsRejectedNotWrapped) {
  ASSERT_TRUE(store_.PublishImage(MakeImage("Kitten")).ok());
  ASSERT_TRUE(store_.PublishImage(MakeImage("Koala")).ok());
  ASSERT_EQ(admin_.Handle("POST", "/v1/admin/reload").status, 200);
  const std::string reload = "/v1/admin/reload?generation=";
  for (const char* id : {"18446744073709551617", "99999999999999999999"}) {
    const auto response = admin_.Handle("POST", reload + id);
    EXPECT_EQ(response.status, 400) << id;
    EXPECT_NE(response.body.find("must be a decimal id"), std::string::npos)
        << response.body;
  }
  EXPECT_EQ(index_.generation_id(), 2u);
  // The largest id still parses; the store just does not hold it.
  EXPECT_EQ(admin_.Handle("POST", reload + "18446744073709551615").status, 404);
}

TEST_F(ReloadServiceTest, RepeatReloadWithoutNewPublishIsANoOp) {
  ASSERT_TRUE(store_.PublishImage(MakeImage("Kitten")).ok());
  ASSERT_EQ(admin_.Handle("POST", "/v1/admin/reload").status, 200);
  const auto repeat = admin_.Handle("POST", "/v1/admin/reload");
  EXPECT_EQ(repeat.status, 200);
  EXPECT_NE(repeat.body.find("\"reloaded\":false"), std::string::npos);
  EXPECT_EQ(index_.generation_id(), 1u);
}

TEST_F(ReloadServiceTest, FailedSwapKeepsOldGenerationAndCounts) {
  ASSERT_TRUE(store_.PublishImage(MakeImage("Kitten")).ok());
  ASSERT_EQ(admin_.Handle("POST", "/v1/admin/reload").status, 200);
  ASSERT_TRUE(store_.PublishImage(MakeImage("Koala")).ok());

  {
    ScopedFaults faults("generation_swap:@1");
    const auto response = admin_.Handle("POST", "/v1/admin/reload");
    EXPECT_EQ(response.status, 500);
  }
  // The old generation never stopped serving.
  EXPECT_EQ(index_.generation_id(), 1u);
  EXPECT_TRUE(index_.Lookup("kitten", "cute")->ok());
  EXPECT_EQ(metrics_.GetCounter("surveyor_reload_failures_total")->Value(),
            1);
  EXPECT_EQ(
      metrics_.GetCounter("surveyor_generation_swap_failures_total")->Value(),
      1);

  // Disarmed, the retry lands.
  EXPECT_EQ(admin_.Handle("POST", "/v1/admin/reload").status, 200);
  EXPECT_EQ(index_.generation_id(), 2u);
}

TEST_F(ReloadServiceTest, StatuszGrowsAGenerationSection) {
  ASSERT_TRUE(store_.PublishImage(MakeImage("Kitten")).ok());
  ASSERT_EQ(admin_.Handle("POST", "/v1/admin/reload").status, 200);
  const auto statusz = admin_.Handle("GET", "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"generation\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"serving\":1"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"age_seconds\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"available\""), std::string::npos);
}

TEST_F(ReloadServiceTest, MetricsScrapeRefreshesGenerationGauges) {
  ASSERT_TRUE(store_.PublishImage(MakeImage("Kitten")).ok());
  ASSERT_EQ(admin_.Handle("POST", "/v1/admin/reload").status, 200);
  const auto metrics = admin_.Handle("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("surveyor_generation_age_seconds"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("surveyor_generation_id 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("surveyor_reloads_total 1"),
            std::string::npos);
  // The age gauge is computed at scrape time, not at swap time.
  EXPECT_GE(metrics_.GetGauge("surveyor_generation_age_seconds")->Value(),
            0.0);
}

TEST_F(ReloadServiceTest, ReloadTraceIsAlwaysRetainedOnTracez) {
  ASSERT_TRUE(store_.PublishImage(MakeImage("Kitten")).ok());
  ASSERT_EQ(admin_.Handle("POST", "/v1/admin/reload").status, 200);
  // Default head-sampling is 1%; the forced sample must retain the
  // reload trace anyway.
  const auto traces = admin_.request_tracer().Snapshot();
  bool found = false;
  for (const auto& trace : traces) {
    if (trace.target.rfind("/v1/admin/reload", 0) == 0) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
