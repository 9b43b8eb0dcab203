// `perfbench_tool trace-mine`: the mining layers timed from outside.
//
// A single-thread replay of `mine` calls each layer's public entry point
// in pipeline order and times it. AnnotateSentence hides coreference, so
// the replay also calls Tokenize, Tag and Parse on their own and takes
// coref as AnnotateSentence minus those three; the order of the probe and
// the full call alternates per sentence so neither always runs on warm
// caches. Two threaded RunStreaming runs (nproc threads and one thread)
// give the source wait per document and the worker speed-up. Every run's
// snapshot must digest to --expect-digest, the digest the CLI's own mine
// recorded for this seed.
#include <atomic>
#include <iostream>
#include <thread>

#include "bench_lib.h"
#include "extraction/aggregator.h"
#include "extraction/extractor.h"
#include "kb/kb_io.h"
#include "obs/json_writer.h"
#include "serving/snapshot.h"
#include "surveyor/opinion_store.h"
#include "surveyor/pipeline.h"
#include "text/annotator.h"
#include "text/document_source.h"
#include "text/entity_tagger.h"
#include "text/lexicon_io.h"
#include "text/parser.h"
#include "text/tokenizer.h"
#include "tool.h"

namespace perfbench {
namespace {

using surveyor::Status;

/// Times every Next() of the wrapped source, lock wait included.
class TimingSource : public surveyor::DocumentSource {
 public:
  explicit TimingSource(surveyor::DocumentSource* inner) : inner_(inner) {}
  std::optional<surveyor::RawDocument> Next() override {
    const Clock::time_point start = Clock::now();
    std::optional<surveyor::RawDocument> doc = inner_->Next();
    wait_ns_.fetch_add(static_cast<int64_t>(NsSince(start)),
                       std::memory_order_relaxed);
    if (doc.has_value()) docs_.fetch_add(1, std::memory_order_relaxed);
    return doc;
  }
  Status status() const override { return inner_->status(); }
  surveyor::DocumentSourceCounters counters() const override {
    return inner_->counters();
  }
  int64_t wait_ns() const { return wait_ns_.load(); }
  int64_t docs() const { return docs_.load(); }

 private:
  surveyor::DocumentSource* inner_;
  std::atomic<int64_t> wait_ns_{0};
  std::atomic<int64_t> docs_{0};
};

surveyor::FileDocumentSourceOptions SourceOptions() {
  // As `mine` streams it: corrupt lines are quarantined, not fatal.
  surveyor::FileDocumentSourceOptions options;
  options.quarantine_corrupt = true;
  return options;
}

/// Writes `result` as a snapshot and digests it back.
bool WriteAndDigest(const surveyor::PipelineResult& result,
                    const surveyor::KnowledgeBase& kb, const std::string& path,
                    uint64_t* digest, std::string* error) {
  surveyor::serving::SnapshotWriter writer;
  Status status = writer.AddResult(result, kb);
  if (status.ok()) status = writer.WriteToFile(path);
  if (!status.ok()) {
    *error = status.ToString();
    return false;
  }
  SnapshotDigest read;
  if (!DigestSnapshotFile(path, &read, error)) return false;
  *digest = read.digest;
  return true;
}

/// One RunStreaming over the corpus with a timed source.
struct ThreadedRun {
  double wall_ns = 0;
  int64_t wait_ns = 0;
  int64_t docs = 0;
  uint64_t digest = 0;
};

bool RunThreaded(const surveyor::KnowledgeBase& kb,
                 const surveyor::Lexicon& lexicon, const std::string& ws,
                 const std::string& out, int num_threads, ThreadedRun* run,
                 std::string* error) {
  surveyor::SurveyorConfig config;
  config.num_threads = num_threads;
  const surveyor::SurveyorPipeline pipeline(&kb, &lexicon, config);
  surveyor::FileDocumentSource file(ws + "/corpus.tsv", SourceOptions());
  TimingSource source(&file);
  const Clock::time_point start = Clock::now();
  surveyor::StatusOr<surveyor::PipelineResult> result =
      pipeline.RunStreaming(source);
  run->wall_ns = NsSince(start);
  run->wait_ns = source.wait_ns();
  run->docs = source.docs();
  if (!result.ok()) {
    *error = result.status().ToString();
    return false;
  }
  return WriteAndDigest(*result, kb,
                        out + "/trace_" + std::to_string(num_threads) +
                            "t.surv",
                        &run->digest, error);
}

}  // namespace

int RunTraceMine(const Flags& flags) {
  const std::string ws = Flag(flags, "ws");
  const std::string out = Flag(flags, "out");
  const std::string expect = Flag(flags, "expect-digest");
  const int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (ws.empty() || out.empty() || expect.empty()) {
    std::cerr << "trace-mine: need --ws, --out and --expect-digest\n";
    return 2;
  }
  auto kb = surveyor::LoadKnowledgeBaseFromFile(ws + "/kb.tsv");
  if (!kb.ok()) {
    std::cerr << "trace-mine: " << kb.status().ToString() << "\n";
    return 1;
  }
  auto lexicon = surveyor::LoadLexiconFromFile(ws + "/lexicon.tsv");
  if (!lexicon.ok()) {
    std::cerr << "trace-mine: " << lexicon.status().ToString() << "\n";
    return 1;
  }

  surveyor::SurveyorConfig config;
  config.num_threads = 1;
  const surveyor::TextAnnotator annotator(&*kb, &*lexicon, config.tagger);
  const surveyor::EntityTagger tagger(&*kb, config.tagger);
  const surveyor::DependencyParser parser;
  const surveyor::EvidenceExtractor extractor(config.extraction);
  const surveyor::SurveyorPipeline pipeline(&*kb, &*lexicon, config);
  surveyor::FileDocumentSource source(ws + "/corpus.tsv", SourceOptions());
  if (!source.status().ok()) {
    std::cerr << "trace-mine: " << source.status().ToString() << "\n";
    return 1;
  }

  double source_ns = 0, split_ns = 0, tokenize_ns = 0, tag_ns = 0,
         parse_ns = 0, annotate_ns = 0, extract_ns = 0, aggregate_ns = 0;
  int64_t docs = 0, sentences = 0, tokens = 0, mentions = 0,
          parse_attempts = 0, parsed = 0, statements = 0;
  surveyor::EvidenceAggregator shard(config.max_provenance_samples);
  const Clock::time_point replay_start = Clock::now();
  for (;;) {
    Clock::time_point t = Clock::now();
    std::optional<surveyor::RawDocument> doc = source.Next();
    source_ns += NsSince(t);
    if (!doc.has_value()) break;
    ++docs;
    t = Clock::now();
    const std::vector<std::string> split = surveyor::SplitSentences(doc->text);
    split_ns += NsSince(t);
    std::vector<surveyor::EvidenceStatement> doc_statements;
    for (size_t i = 0; i < split.size(); ++i) {
      ++sentences;
      surveyor::AnnotatedSentence annotated;
      const auto annotate = [&] {
        const Clock::time_point a = Clock::now();
        annotated = annotator.AnnotateSentence(split[i]);
        annotate_ns += NsSince(a);
      };
      if (sentences % 2 == 0) annotate();
      t = Clock::now();
      const std::vector<surveyor::Token> sentence_tokens =
          surveyor::Tokenize(split[i], *lexicon);
      tokenize_ns += NsSince(t);
      t = Clock::now();
      const std::vector<surveyor::ParseUnit> units =
          tagger.Tag(sentence_tokens);
      tag_ns += NsSince(t);
      if (!units.empty()) {
        t = Clock::now();
        const auto tree = parser.Parse(units);
        parse_ns += NsSince(t);
      }
      if (sentences % 2 != 0) annotate();
      tokens += static_cast<int64_t>(sentence_tokens.size());
      for (const surveyor::ParseUnit& unit : units) {
        if (unit.IsEntityMention()) ++mentions;
      }
      if (!units.empty()) ++parse_attempts;
      if (annotated.parsed) ++parsed;
      t = Clock::now();
      std::vector<surveyor::EvidenceStatement> found =
          extractor.ExtractFromSentence(annotated, doc->doc_id,
                                        static_cast<int>(i));
      extract_ns += NsSince(t);
      statements += static_cast<int64_t>(found.size());
      doc_statements.insert(doc_statements.end(),
                            std::make_move_iterator(found.begin()),
                            std::make_move_iterator(found.end()));
    }
    t = Clock::now();
    shard.AddAll(doc_statements);
    aggregate_ns += NsSince(t);
  }
  if (!source.status().ok()) {
    std::cerr << "trace-mine: " << source.status().ToString() << "\n";
    return 1;
  }
  Clock::time_point t = Clock::now();
  surveyor::EvidenceAggregator merged(config.max_provenance_samples);
  merged.Merge(shard);
  aggregate_ns += NsSince(t);

  t = Clock::now();
  std::vector<surveyor::PropertyTypeEvidence> all_pairs =
      merged.GroupByType(*kb, /*min_statements=*/1);
  const size_t total_pairs = all_pairs.size();
  std::vector<surveyor::PropertyTypeEvidence> kept;
  for (surveyor::PropertyTypeEvidence& pair : all_pairs) {
    if (pair.total_statements >= config.min_statements) {
      kept.push_back(std::move(pair));
    }
  }
  const double group_ns = NsSince(t);

  t = Clock::now();
  surveyor::StatusOr<surveyor::PipelineResult> result =
      pipeline.RunFromEvidence(std::move(kept));
  const double em_ns = NsSince(t);
  if (!result.ok()) {
    std::cerr << "trace-mine: " << result.status().ToString() << "\n";
    return 1;
  }
  int64_t iterations = 0, degraded = 0;
  for (const surveyor::PropertyTypeResult& pair : result->pairs) {
    iterations += pair.em_iterations;
    if (pair.degraded) ++degraded;
  }

  const std::string snapshot_path = out + "/trace.surv";
  t = Clock::now();
  surveyor::serving::SnapshotWriter snapshot_writer;
  Status status = snapshot_writer.AddResult(*result, *kb);
  if (status.ok()) status = snapshot_writer.WriteToFile(snapshot_path);
  const double snapshot_ns = NsSince(t);
  t = Clock::now();
  surveyor::OpinionStore store(&*kb);
  store.AddAll(*result);
  if (status.ok()) status = store.SaveToFile(out + "/trace_opinions.tsv");
  const double tsv_ns = NsSince(t);
  const double replay_wall_ns = NsSince(replay_start);
  if (!status.ok()) {
    std::cerr << "trace-mine: " << status.ToString() << "\n";
    return 1;
  }
  const double spans_ns = source_ns + split_ns + tokenize_ns + tag_ns +
                          parse_ns + annotate_ns + extract_ns + aggregate_ns +
                          group_ns + em_ns + snapshot_ns + tsv_ns;

  SnapshotDigest replay_digest;
  std::string error;
  if (!DigestSnapshotFile(snapshot_path, &replay_digest, &error)) {
    std::cerr << "trace-mine: " << error << "\n";
    return 1;
  }

  // Threaded runs, as `mine` runs them (nproc threads), then one thread.
  ThreadedRun parallel, serial;
  if (!RunThreaded(*kb, *lexicon, ws, out, threads, &parallel, &error) ||
      !RunThreaded(*kb, *lexicon, ws, out, 1, &serial, &error)) {
    std::cerr << "trace-mine: " << error << "\n";
    return 1;
  }
  const std::string digests[] = {Hex64(replay_digest.digest),
                                 Hex64(parallel.digest), Hex64(serial.digest)};
  bool digests_match = true;
  for (const std::string& digest : digests) {
    if (digest != expect) digests_match = false;
  }

  const double per_doc = 1.0 / static_cast<double>(std::max<int64_t>(docs, 1));
  const double per_sentence =
      1.0 / static_cast<double>(std::max<int64_t>(sentences, 1));
  surveyor::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("digests_match").Value(digests_match);
  writer.Key("digest").Value(digests[0]);
  writer.Key("documents").Value(docs);
  writer.Key("wall_ns").Value(replay_wall_ns);
  writer.Key("spans_ns").Value(spans_ns);
  writer.Key("threaded_wall_ns").Value(parallel.wall_ns + serial.wall_ns);
  writer.Key("metrics").BeginObject();
  writer.Key("source.ns_per_doc").Value(source_ns * per_doc);
  writer.Key("split.ns_per_doc").Value(split_ns * per_doc);
  writer.Key("tokenize.ns_per_sentence").Value(tokenize_ns * per_sentence);
  writer.Key("tag.ns_per_sentence").Value(tag_ns * per_sentence);
  writer.Key("parse.ns_per_sentence").Value(parse_ns * per_sentence);
  writer.Key("coref.ns_per_sentence")
      .Value((annotate_ns - tokenize_ns - tag_ns - parse_ns) * per_sentence);
  writer.Key("extract.ns_per_sentence").Value(extract_ns * per_sentence);
  writer.Key("aggregate.ms").Value(aggregate_ns * 1e-6);
  writer.Key("group.ms").Value(group_ns * 1e-6);
  writer.Key("em.ms").Value(em_ns * 1e-6);
  writer.Key("persist.snapshot_ms").Value(snapshot_ns * 1e-6);
  writer.Key("persist.tsv_ms").Value(tsv_ns * 1e-6);
  writer.Key("split.sentences_per_doc")
      .Value(static_cast<double>(sentences) * per_doc);
  writer.Key("tokenize.tokens_per_sentence")
      .Value(static_cast<double>(tokens) * per_sentence);
  writer.Key("tag.mentions_per_sentence")
      .Value(static_cast<double>(mentions) * per_sentence);
  writer.Key("parse.parsed_ratio")
      .Value(static_cast<double>(parsed) /
             static_cast<double>(std::max<int64_t>(parse_attempts, 1)));
  writer.Key("extract.statements_per_sentence")
      .Value(static_cast<double>(statements) * per_sentence);
  writer.Key("group.kept_ratio")
      .Value(static_cast<double>(result->pairs.size()) /
             static_cast<double>(std::max<size_t>(total_pairs, 1)));
  writer.Key("em.iterations_per_pair")
      .Value(static_cast<double>(iterations) /
             static_cast<double>(std::max<size_t>(result->pairs.size(), 1)));
  writer.Key("em.degraded_pairs").Value(degraded);
  writer.Key("source.wait_ns_per_doc")
      .Value(static_cast<double>(parallel.wait_ns) /
             static_cast<double>(std::max<int64_t>(parallel.docs, 1)));
  writer.Key("workers.speedup").Value(serial.wall_ns / parallel.wall_ns);
  writer.Key("trace.docs_per_s")
      .Value(static_cast<double>(parallel.docs) / (parallel.wall_ns * 1e-9));
  writer.EndObject().EndObject();
  std::cout << writer.str() << std::endl;
  return 0;
}

}  // namespace perfbench
