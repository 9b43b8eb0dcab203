#include "text/document_source.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <set>
#include <thread>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "surveyor/pipeline.h"
#include "util/fault.h"

namespace surveyor {
namespace {

TEST(VectorDocumentSourceTest, StreamsAllDocuments) {
  std::vector<RawDocument> corpus(5);
  for (size_t i = 0; i < corpus.size(); ++i) {
    corpus[i].doc_id = static_cast<int64_t>(i);
  }
  VectorDocumentSource source(&corpus);
  for (size_t i = 0; i < corpus.size(); ++i) {
    auto doc = source.Next();
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->doc_id, static_cast<int64_t>(i));
  }
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_FALSE(source.Next().has_value());  // stays exhausted
}

TEST(VectorDocumentSourceTest, ConcurrentPullsSeeEachDocumentOnce) {
  std::vector<RawDocument> corpus(1000);
  for (size_t i = 0; i < corpus.size(); ++i) {
    corpus[i].doc_id = static_cast<int64_t>(i);
  }
  VectorDocumentSource source(&corpus);
  std::mutex mutex;
  std::set<int64_t> seen;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        auto doc = source.Next();
        if (!doc.has_value()) return;
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_TRUE(seen.insert(doc->doc_id).second);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(seen.size(), corpus.size());
}

TEST(FileDocumentSourceTest, StreamsCorpusFile) {
  const std::string path = testing::TempDir() + "/stream_corpus.tsv";
  {
    std::ofstream os(path);
    os << "# header\n";
    os << "1\tus\thello there. \n";
    os << "2\t\tsecond doc. \n";
  }
  FileDocumentSource source(path);
  ASSERT_TRUE(source.status().ok());
  auto first = source.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->doc_id, 1);
  EXPECT_EQ(first->domain, "us");
  auto second = source.Next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->domain, "");
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_TRUE(source.status().ok());
}

TEST(FileDocumentSourceTest, ReportsErrors) {
  FileDocumentSource missing("/nonexistent/corpus.tsv");
  EXPECT_FALSE(missing.status().ok());
  EXPECT_FALSE(missing.Next().has_value());

  const std::string path = testing::TempDir() + "/bad_corpus.tsv";
  {
    std::ofstream os(path);
    os << "not-tab-separated\n";
  }
  FileDocumentSource bad(path);
  ASSERT_TRUE(bad.status().ok());
  EXPECT_FALSE(bad.Next().has_value());
  EXPECT_FALSE(bad.status().ok());
}

TEST(FileDocumentSourceTest, QuarantineModeSkipsCorruptLines) {
  // Exact counters: an environment-armed doc_read fault would add a retry.
  ScopedFaults disarm{""};
  const std::string path = testing::TempDir() + "/quarantine_corpus.tsv";
  {
    std::ofstream os(path);
    os << "1\tus\tfirst doc. \n";
    os << "not-tab-separated\n";
    os << "not_a_number\tus\ttext. \n";
    os << "2\t\tsecond doc. \n";
  }
  FileDocumentSourceOptions options;
  options.quarantine_corrupt = true;
  FileDocumentSource source(path, options);
  ASSERT_TRUE(source.status().ok());
  auto first = source.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->doc_id, 1);
  auto second = source.Next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->doc_id, 2);
  EXPECT_FALSE(source.Next().has_value());
  // The stream ends healthy; the damage shows up in the counters.
  EXPECT_TRUE(source.status().ok());
  EXPECT_EQ(source.counters().quarantined_documents, 2);
  EXPECT_EQ(source.counters().read_retries, 0);
}

TEST(FileDocumentSourceTest, TransientReadFaultsAreRetriedAndCounted) {
  const std::string path = testing::TempDir() + "/retry_corpus.tsv";
  {
    std::ofstream os(path);
    for (int i = 0; i < 20; ++i) os << i << "\tus\tdoc text. \n";
  }
  // Single-threaded pulls make the shared trigger stream deterministic:
  // this seed recovers every fault within the retry budget.
  ScopedFaults faults("doc_read:0.3", /*seed=*/3);
  FileDocumentSourceOptions options;
  options.read_retry.initial_backoff_seconds = 1e-6;
  options.read_retry.max_backoff_seconds = 1e-5;
  FileDocumentSource source(path, options);
  int streamed = 0;
  while (source.Next().has_value()) ++streamed;
  EXPECT_EQ(streamed, 20);
  EXPECT_TRUE(source.status().ok());
  EXPECT_GT(source.counters().read_retries, 0);
  EXPECT_EQ(source.counters().read_retries,
            FaultInjector::Global().StatsFor("doc_read").injected);
}

TEST(FileDocumentSourceTest, ExhaustedReadRetriesEndTheStreamWithError) {
  const std::string path = testing::TempDir() + "/exhausted_corpus.tsv";
  {
    std::ofstream os(path);
    os << "1\tus\tdoc text. \n";
  }
  ScopedFaults faults("doc_read:1");  // every attempt fails
  FileDocumentSourceOptions options;
  options.read_retry.max_attempts = 2;
  options.read_retry.initial_backoff_seconds = 1e-6;
  FileDocumentSource source(path, options);
  EXPECT_FALSE(source.Next().has_value());
  const Status status = source.status();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("read failed"), std::string::npos);
}

TEST(StreamingPipelineTest, MatchesInMemoryRun) {
  World world = World::Generate(MakeTinyWorldConfig()).value();
  GeneratorOptions options;
  options.author_population = 5000;
  const auto corpus = CorpusGenerator(&world, options).Generate();

  SurveyorConfig config;
  config.min_statements = 20;
  SurveyorPipeline pipeline(&world.kb(), &world.lexicon(), config);

  auto in_memory = pipeline.Run(corpus);
  VectorDocumentSource source(&corpus);
  auto streamed = pipeline.RunStreaming(source);
  ASSERT_TRUE(in_memory.ok());
  ASSERT_TRUE(streamed.ok());

  EXPECT_EQ(in_memory->stats.num_documents, streamed->stats.num_documents);
  EXPECT_EQ(in_memory->stats.num_statements, streamed->stats.num_statements);
  EXPECT_EQ(in_memory->stats.num_opinions, streamed->stats.num_opinions);
  ASSERT_EQ(in_memory->pairs.size(), streamed->pairs.size());
  for (size_t p = 0; p < in_memory->pairs.size(); ++p) {
    EXPECT_EQ(in_memory->pairs[p].evidence.counts,
              streamed->pairs[p].evidence.counts);
    EXPECT_EQ(in_memory->pairs[p].polarity, streamed->pairs[p].polarity);
  }
}

TEST(StreamingPipelineTest, RunsFromDiskEndToEnd) {
  World world = World::Generate(MakeTinyWorldConfig()).value();
  GeneratorOptions options;
  options.author_population = 4000;
  const auto corpus = CorpusGenerator(&world, options).Generate();
  const std::string path = testing::TempDir() + "/full_corpus.tsv";
  ASSERT_TRUE(SaveCorpusToFile(corpus, path).ok());

  SurveyorConfig config;
  config.min_statements = 20;
  SurveyorPipeline pipeline(&world.kb(), &world.lexicon(), config);
  FileDocumentSource source(path);
  auto result = pipeline.RunStreaming(source);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(source.status().ok());
  EXPECT_EQ(result->stats.num_documents,
            static_cast<int64_t>(corpus.size()));
  EXPECT_GT(result->stats.num_opinions, 0);
}

}  // namespace
}  // namespace surveyor
