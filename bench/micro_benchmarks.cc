// google-benchmark micro-benchmarks for the hot paths: tokenization,
// entity tagging, dependency parsing, evidence extraction, the EM
// iteration, posterior inference, serving lookups, and the observability
// primitives. The perf-budgets CI job gates ratios between some of them
// (tools/check_micro_budgets.py).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "extraction/extractor.h"
#include "model/em.h"
#include "obs/admin_server.h"
#include "obs/log_ring.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "serving/opinion_index.h"
#include "serving/query_service.h"
#include "serving/snapshot.h"
#include "text/annotator.h"
#include "text/tokenizer.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/profile_tag.h"
#include "util/rng.h"
#include "util/sample_ring.h"

namespace surveyor {
namespace {

const World& SharedWorld() {
  static const World& world =
      *new World(World::Generate(MakePaperWorldConfig(150)).value());
  return world;
}

const std::vector<std::string>& SharedSentences() {
  static const std::vector<std::string>& sentences = *[] {
    auto* result = new std::vector<std::string>();
    GeneratorOptions options;
    options.author_population = 2000;
    options.seed = 4242;
    for (const RawDocument& doc :
         CorpusGenerator(&SharedWorld(), options).Generate()) {
      for (const std::string& sentence : SplitSentences(doc.text)) {
        result->push_back(sentence);
      }
      if (result->size() >= 4096) break;
    }
    return result;
  }();
  return sentences;
}

void BM_Tokenize(benchmark::State& state) {
  const auto& sentences = SharedSentences();
  const Lexicon& lexicon = SharedWorld().lexicon();
  size_t i = 0;
  int64_t tokens = 0;
  for (auto _ : state) {
    tokens += static_cast<int64_t>(
        Tokenize(sentences[i++ % sentences.size()], lexicon).size());
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(tokens);
}
BENCHMARK(BM_Tokenize);

void BM_AnnotateSentence(benchmark::State& state) {
  const auto& sentences = SharedSentences();
  const World& world = SharedWorld();
  TextAnnotator annotator(&world.kb(), &world.lexicon());
  size_t i = 0;
  int64_t parsed = 0;
  for (auto _ : state) {
    parsed += annotator.AnnotateSentence(sentences[i++ % sentences.size()])
                      .parsed
                  ? 1
                  : 0;
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(parsed);
}
BENCHMARK(BM_AnnotateSentence);

void BM_ExtractFromSentence(benchmark::State& state) {
  const auto& sentences = SharedSentences();
  const World& world = SharedWorld();
  TextAnnotator annotator(&world.kb(), &world.lexicon());
  std::vector<AnnotatedSentence> annotated;
  for (const std::string& sentence : sentences) {
    annotated.push_back(annotator.AnnotateSentence(sentence));
  }
  EvidenceExtractor extractor;
  size_t i = 0;
  int64_t statements = 0;
  for (auto _ : state) {
    statements += static_cast<int64_t>(
        extractor.ExtractFromSentence(annotated[i++ % annotated.size()])
            .size());
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(statements);
}
BENCHMARK(BM_ExtractFromSentence);

std::vector<EvidenceCounts> SyntheticCounts(size_t entities) {
  Rng rng(99);
  std::vector<EvidenceCounts> counts(entities);
  const PoissonRates rates = RatesFromParams({0.9, 50.0, 5.0});
  for (auto& c : counts) {
    const bool positive = rng.Bernoulli(0.3);
    c.positive = rng.Poisson(positive ? rates.pos_given_pos : rates.pos_given_neg);
    c.negative = rng.Poisson(positive ? rates.neg_given_pos : rates.neg_given_neg);
  }
  return counts;
}

void BM_EmFit(benchmark::State& state) {
  const auto counts = SyntheticCounts(static_cast<size_t>(state.range(0)));
  EmOptions options;
  options.max_iterations = 20;
  options.tolerance = 0.0;
  EmLearner learner(options);
  for (auto _ : state) {
    auto fit = learner.Fit(counts);
    benchmark::DoNotOptimize(fit);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EmFit)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PosteriorInference(benchmark::State& state) {
  const ModelParams params{0.9, 50.0, 5.0};
  Rng rng(7);
  std::vector<EvidenceCounts> counts = SyntheticCounts(1024);
  size_t i = 0;
  double sum = 0.0;
  for (auto _ : state) {
    sum += PosteriorPositive(counts[i++ % counts.size()], params);
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_PosteriorInference);

// --- Fault-injection overhead ------------------------------------------------
// Fault points are compiled into the production binary (DESIGN.md §9), so
// the disarmed check must stay near-free: one relaxed atomic load. The
// acceptance budget is < 1% overhead on the extraction hot path.

void BM_FaultPointDisarmed(benchmark::State& state) {
  FaultInjector::Global().Disarm();
  int64_t fired = 0;
  for (auto _ : state) {
    if (SURVEYOR_FAULT("bench_point")) ++fired;
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_FaultPointDisarmed);

// The extraction inner loop with a disarmed fault point on every sentence —
// compare against BM_ExtractFromSentence to read the relative overhead.
void BM_ExtractFromSentenceFaultGuarded(benchmark::State& state) {
  FaultInjector::Global().Disarm();
  const auto& sentences = SharedSentences();
  const World& world = SharedWorld();
  TextAnnotator annotator(&world.kb(), &world.lexicon());
  std::vector<AnnotatedSentence> annotated;
  for (const std::string& sentence : sentences) {
    annotated.push_back(annotator.AnnotateSentence(sentence));
  }
  EvidenceExtractor extractor;
  size_t i = 0;
  int64_t statements = 0;
  for (auto _ : state) {
    if (SURVEYOR_FAULT("bench_extract")) continue;
    statements += static_cast<int64_t>(
        extractor.ExtractFromSentence(annotated[i++ % annotated.size()])
            .size());
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(statements);
}
BENCHMARK(BM_ExtractFromSentenceFaultGuarded);

// --- Profiler primitives -----------------------------------------------------
// ProfileScope tags ride inside Tokenize / Tag / Parse / ExtractFromSentence
// (DESIGN.md §12), so with the sampler off — the production default — their
// cost must stay under 1% of the per-sentence hot path: perf-budgets
// checks 4 x BM_ProfileScopeDisarmed < 0.01 x BM_AnnotateSentence (a
// mined sentence crosses ~4 scopes: tokenize, match, parse, extract).

void BM_ProfileScopeDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    SURVEYOR_PROFILE_SCOPE("bench");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileScopeDisarmed);

void BM_ProfileTagRead(benchmark::State& state) {
  SURVEYOR_PROFILE_SCOPE("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(CurrentProfileTag());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileTagRead);

// The extraction inner loop under a ProfileScope with the sampler off —
// compare against BM_ExtractFromSentence for the relative overhead (the
// in-tree scopes are already inside both, so this adds one extra scope,
// an upper bound on the marginal cost).
void BM_ExtractFromSentenceProfileScoped(benchmark::State& state) {
  const auto& sentences = SharedSentences();
  const World& world = SharedWorld();
  TextAnnotator annotator(&world.kb(), &world.lexicon());
  std::vector<AnnotatedSentence> annotated;
  for (const std::string& sentence : sentences) {
    annotated.push_back(annotator.AnnotateSentence(sentence));
  }
  EvidenceExtractor extractor;
  size_t i = 0;
  int64_t statements = 0;
  for (auto _ : state) {
    SURVEYOR_PROFILE_SCOPE("bench_extract");
    statements += static_cast<int64_t>(
        extractor.ExtractFromSentence(annotated[i++ % annotated.size()])
            .size());
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(statements);
}
BENCHMARK(BM_ExtractFromSentenceProfileScoped);

// What the SIGPROF handler pays per sample (minus the backtrace itself):
// one slot claim plus a struct copy into preallocated memory.
void BM_SampleRingAppend(benchmark::State& state) {
  SampleRing ring(1 << 22);
  StackSample sample;
  sample.depth = 16;
  for (auto _ : state) {
    if (!ring.TryAppend(sample)) {
      state.PauseTiming();
      ring.Reset();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleRingAppend);

// --- Observability primitives -----------------------------------------------
// The instrumentation rides inside extraction/EM inner loops, so its cost
// budget is tight: counter increment < 20 ns, disabled span < 5 ns.

void BM_ObsCounterIncrement(benchmark::State& state) {
  static obs::MetricRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench_counter_total");
  for (auto _ : state) {
    counter->Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncrement)->ThreadRange(1, 8);

void BM_ObsHistogramRecord(benchmark::State& state) {
  static obs::MetricRegistry registry;
  obs::Histogram* histogram = registry.GetHistogram("bench_histogram");
  double value = 0.0;
  for (auto _ : state) {
    histogram->Record(value);
    value += 1.0;
    if (value > 100000.0) value = 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

// A span outside any request, as at snapshot load: one thread-local read.
void BM_ObsSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::ScopedSpan span("bench.disabled");
    benchmark::DoNotOptimize(span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

// Log-ring appends ride on every SURVEYOR_LOG through the global tee;
// once the ring is full each append overwrites a slot in place (reusing
// its string capacity) instead of erasing from the front.
void BM_LogRingAppend(benchmark::State& state) {
  obs::LogRing ring;
  for (auto _ : state) {
    ring.Append(LogSeverity::kInfo, "bench line");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogRingAppend);

// --- Request tracing ---------------------------------------------------------
// Every admin request runs under a RequestScope. Disarmed (sampling and
// tail capture off) is the budget case: a trace-id fetch, a TLS install
// and a few atomics. Sampled adds span collection and ring retention.

void BM_RequestScopeDisarmed(benchmark::State& state) {
  obs::RequestTracerOptions options;
  options.sample_rate = 0.0;
  options.slow_threshold_seconds = 0.0;
  obs::RequestTracer tracer(options);
  for (auto _ : state) {
    obs::RequestScope scope(&tracer, nullptr, "GET", "/bench");
    benchmark::DoNotOptimize(scope);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestScopeDisarmed);

void BM_RequestScopeSampled(benchmark::State& state) {
  obs::RequestTracerOptions options;
  options.sample_rate = 1.0;
  obs::RequestTracer tracer(options);
  for (auto _ : state) {
    obs::RequestScope scope(&tracer, nullptr, "GET", "/bench");
    SURVEYOR_SPAN("bench.child");
    benchmark::DoNotOptimize(scope);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestScopeSampled);

// A span inside a disarmed request scope: the TLS-read + null-check cost
// the serving layer pays per SURVEYOR_SPAN when nobody is tracing.
void BM_SpanUnderDisarmedScope(benchmark::State& state) {
  obs::RequestTracerOptions options;
  options.sample_rate = 0.0;
  options.slow_threshold_seconds = 0.0;
  obs::RequestTracer tracer(options);
  obs::RequestScope scope(&tracer, nullptr, "GET", "/bench");
  for (auto _ : state) {
    SURVEYOR_SPAN("bench.inner");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanUnderDisarmedScope);

// CRC-32 over 4 MiB, about one mined snapshot: Snapshot::Open checksums
// every section before it validates anything.
void BM_Crc32(benchmark::State& state) {
  std::string bytes(4 << 20, '\0');
  Rng rng(77);
  for (char& c : bytes) c = static_cast<char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32);

// --- Serving lookups ---------------------------------------------------------
// A synthetic snapshot of 8 types x 500 entities x 12 properties = 48k
// opinions, queried on a hot set of 8 entities x 8 properties.
// perf-budgets holds hot point lookups >= 100k/s.

constexpr int kSnapshotTypes = 8;
constexpr int kSnapshotEntitiesPerType = 500;
constexpr int kSnapshotProperties = 12;
constexpr char kSnapshotPath[] = "/tmp/surveyor_micro_benchmarks.surv";

std::string SnapshotEntityName(int type, int entity) {
  char name[32];
  std::snprintf(name, sizeof(name), "entity-%d-%04d", type, entity);
  return name;
}

const serving::OpinionIndex& SharedIndex() {
  static const serving::OpinionIndex& index = *[] {
    serving::SnapshotWriter writer;
    writer.set_label("micro benchmarks");
    Rng rng(1234);
    for (int t = 0; t < kSnapshotTypes; ++t) {
      for (int e = 0; e < kSnapshotEntitiesPerType; ++e) {
        for (int p = 0; p < kSnapshotProperties; ++p) {
          serving::SnapshotOpinion opinion;
          opinion.entity = SnapshotEntityName(t, e);
          opinion.type = "type" + std::to_string(t);
          opinion.property = "prop" + std::to_string(p);
          opinion.posterior = rng.Uniform();
          opinion.polarity = opinion.posterior >= 0.5 ? Polarity::kPositive
                                                      : Polarity::kNegative;
          SURVEYOR_CHECK(writer.Add(opinion).ok());
        }
      }
    }
    SURVEYOR_CHECK(writer.WriteToFile(kSnapshotPath).ok());
    auto* loaded = new serving::OpinionIndex();
    SURVEYOR_CHECK(loaded->Load(kSnapshotPath).ok());
    return loaded;
  }();
  return index;
}

std::vector<std::pair<std::string, std::string>> HotPairs() {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int e = 0; e < 8; ++e) {
    for (int p = 0; p < 8; ++p) {
      pairs.emplace_back(SnapshotEntityName(0, e), "prop" + std::to_string(p));
    }
  }
  return pairs;
}

void BM_OpinionIndexHotLookup(benchmark::State& state) {
  const serving::OpinionIndex& index = SharedIndex();
  const auto pairs = HotPairs();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [entity, property] = pairs[i++ % pairs.size()];
    auto opinion = index.Lookup(entity, property);
    SURVEYOR_CHECK(opinion->ok());
    benchmark::DoNotOptimize(opinion);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpinionIndexHotLookup);

// A whole OpinionIndex::Load of the shared snapshot file: open, CRC check
// and validation, plus the swap that retires the previous generation.
// perf-budgets holds it to <= 80 ns per opinion.
void BM_OpinionIndexLoad(benchmark::State& state) {
  const size_t opinions = SharedIndex().generation()->snapshot().num_opinions();
  serving::OpinionIndex index;
  for (auto _ : state) {
    SURVEYOR_CHECK(index.Load(kSnapshotPath).ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(opinions));
}
BENCHMARK(BM_OpinionIndexLoad);

// Limit-10 type scans cycling over all 96 (type, property) blocks, each
// of the ten answers decoded. perf-budgets holds scans/s >= hot point
// lookups/s / 25.
void BM_OpinionIndexTypeScan(benchmark::State& state) {
  const serving::OpinionIndex& index = SharedIndex();
  std::vector<std::pair<std::string, std::string>> blocks;
  for (int t = 0; t < kSnapshotTypes; ++t) {
    for (int p = 0; p < kSnapshotProperties; ++p) {
      blocks.emplace_back("type" + std::to_string(t),
                          "prop" + std::to_string(p));
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [type, property] = blocks[i++ % blocks.size()];
    auto scan = index.QueryType(type, property, 10);
    SURVEYOR_CHECK(scan->size() == 10);
    for (const serving::ServedOpinion& answer : *scan) {
      benchmark::DoNotOptimize(answer);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpinionIndexTypeScan);

// The hot /v1/query through AdminServer::Handle: request scope, access log
// and dispatch around the lookup. /1 keeps the production defaults of
// AdminServerOptions (head sampling, slow-query capture, the access log);
// /0 turns all three off. perf-budgets holds /1 >= 0.5 x /0.
void BM_AdminQuery(benchmark::State& state) {
  obs::MetricRegistry metrics;
  serving::QueryService service(&SharedIndex(), nullptr, &metrics);
  obs::AdminServerOptions options;
  if (state.range(0) == 0) {
    options.trace_sample_rate = 0.0;
    options.slow_query_ms = 0.0;
    options.access_log_capacity = 0;
  }
  obs::AdminServer server(&metrics, nullptr, nullptr, options);
  service.Register(&server);
  std::vector<std::string> targets;
  for (const auto& [entity, property] : HotPairs()) {
    targets.push_back("/v1/query?entity=" + entity + "&property=" + property);
  }
  size_t i = 0;
  for (auto _ : state) {
    const obs::AdminResponse response =
        server.Handle("GET", targets[i++ % targets.size()]);
    SURVEYOR_CHECK(response.status == 200);
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdminQuery)->Arg(0)->Arg(1);

// A 32-pair /v1/query/batch through AdminServer::Handle with the
// production defaults of AdminServerOptions (the /1 of BM_AdminQuery/1):
// parse, one pin, the lookups and the rendered body. Items are pairs.
// perf-budgets holds its cost per pair to <= 4 hot point lookups.
void BM_AdminBatch(benchmark::State& state) {
  constexpr size_t kPairsPerBatch = 32;
  obs::MetricRegistry metrics;
  serving::QueryService service(&SharedIndex(), nullptr, &metrics);
  obs::AdminServer server(&metrics, nullptr, nullptr,
                          obs::AdminServerOptions{});
  service.Register(&server);
  const auto pairs = HotPairs();
  std::vector<std::string> bodies;
  for (size_t b = 0; b < pairs.size() / kPairsPerBatch; ++b) {
    std::string body = "{\"queries\":[";
    for (size_t k = 0; k < kPairsPerBatch; ++k) {
      const auto& [entity, property] = pairs[b * kPairsPerBatch + k];
      if (k > 0) body += ',';
      body += "{\"entity\":\"" + entity + "\",\"property\":\"" + property +
              "\"}";
    }
    bodies.push_back(body + "]}");
  }
  size_t i = 0;
  for (auto _ : state) {
    const obs::AdminResponse response =
        server.Handle("POST", "/v1/query/batch", bodies[i++ % bodies.size()]);
    SURVEYOR_CHECK(response.status == 200);
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kPairsPerBatch));
}
BENCHMARK(BM_AdminBatch)->Arg(1);

}  // namespace
}  // namespace surveyor

BENCHMARK_MAIN();
