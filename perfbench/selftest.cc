// Tests of the benchmark's own helpers. Built with the benchmark; run.py
// runs it after every build and refuses to measure if it fails.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace perfbench {
namespace {

TEST(SummarizeTest, P99NeedsTenSamplesBeyondIt) {
  std::vector<double> samples;
  for (int i = 1; i <= 999; ++i) samples.push_back(i);
  LatencySummary summary = Summarize(samples);
  EXPECT_EQ(summary.samples, 999u);
  EXPECT_EQ(summary.beyond_p99, 9u);
  EXPECT_FALSE(summary.supported);

  samples.push_back(1000);
  summary = Summarize(samples);
  EXPECT_EQ(summary.samples, 1000u);
  EXPECT_EQ(summary.p99, 990.0);
  EXPECT_EQ(summary.beyond_p99, 10u);
  EXPECT_TRUE(summary.supported);
  EXPECT_EQ(summary.p50, 500.5);
}

TEST(ZipfTest, SameSeedSameDraws) {
  const ZipfSampler zipf(1000, 1.0);
  SeededRng first(42), second(42), other(43);
  std::vector<size_t> a, b, c;
  for (int i = 0; i < 1000; ++i) {
    a.push_back(zipf.Sample(first));
    b.push_back(zipf.Sample(second));
    c.push_back(zipf.Sample(other));
  }
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ZipfTest, LowRanksDominate) {
  const ZipfSampler zipf(1000, 1.0);
  SeededRng rng(7);
  int rank0 = 0, rank999 = 0;
  for (int i = 0; i < 100000; ++i) {
    const size_t rank = zipf.Sample(rng);
    ASSERT_LT(rank, 1000u);
    if (rank == 0) ++rank0;
    if (rank == 999) ++rank999;
  }
  // P(rank 0) = 1/H(1000) ~ 13%; P(rank 999) ~ 0.013%.
  EXPECT_GT(rank0, 12000);
  EXPECT_LT(rank999, 100);
}

TEST(DigestTest, IndependentOfRowOrder) {
  std::vector<DigestRow> rows = {
      {"kitten", "animal", "cute", 1, 0.93},
      {"lion", "animal", "cute", -1, 0.12},
      {"paris", "city", "big", 1, 0.99},
  };
  const uint64_t digest = DigestRows(rows);
  std::vector<DigestRow> reversed(rows.rbegin(), rows.rend());
  EXPECT_EQ(DigestRows(reversed), digest);

  rows[1].posterior = std::nextafter(0.12, 1.0);
  EXPECT_NE(DigestRows(rows), digest);
}

TEST(OpCountsTest, FailuresCountAgainstAttempts) {
  OpCounts counts;
  counts.Record(true);
  counts.Record(false);
  counts.Record(true);
  counts.Record(true);
  EXPECT_EQ(counts.attempted, 4);
  EXPECT_EQ(counts.failed, 1);

  OpCounts more;
  more.Record(false);
  counts.Merge(more);
  EXPECT_EQ(counts.attempted, 5);
  EXPECT_EQ(counts.failed, 2);
}

TEST(CheckResponseTest, WrongAnswersAndErrorsFail) {
  surveyor::serving::SnapshotWriter writer;
  surveyor::serving::SnapshotOpinion kitten;
  kitten.entity = "Kitten";
  kitten.type = "animal";
  kitten.property = "cute";
  kitten.posterior = 0.9375;
  kitten.polarity = surveyor::Polarity::kPositive;
  ASSERT_TRUE(writer.Add(kitten).ok());
  // Relative: the test runs inside the build directory.
  const std::string path = "perfbench_selftest.surv";
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  surveyor::serving::Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  const ExpectedAnswers expected(snapshot);

  Request request;
  request.kind = RequestKind::kPoint;
  request.pairs = {{"kitten", "cute"}};
  const std::string good =
      R"({"data":{"entity":"Kitten","type":"animal","property":"cute",)"
      R"("posterior":0.9375,"polarity":"+","degraded":false}})";
  EXPECT_TRUE(CheckResponse(request, 200, good, expected, nullptr));
  std::string wrong = good;
  wrong.replace(wrong.find("0.9375"), 6, "0.9376");
  EXPECT_FALSE(CheckResponse(request, 200, wrong, expected, nullptr));
  EXPECT_FALSE(CheckResponse(request, 500, good, expected, nullptr));
  EXPECT_FALSE(CheckResponse(request, 200, "{\"data\":", expected, nullptr));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench
