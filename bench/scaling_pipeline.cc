// Reproduces the Section 7.1 deployment numbers at laptop scale: stage
// timings and data volumes of the full pipeline as the corpus grows, the
// thread-scaling of extraction (the paper's 1000 -> 5000 node story), and
// the linearity of the EM step in the number of entities (the property the
// paper credits for the 10-minute model-learning stage).
#include <algorithm>
#include <array>
#include <iostream>
#include <thread>

#include "bench/bench_util.h"
#include "model/em.h"
#include "surveyor/pipeline.h"
#include "util/string_util.h"

namespace surveyor {
namespace {

void CorpusScaleSweep() {
  bench::PrintHeader(
      "Section 7.1: pipeline stages vs corpus size (author population)");
  TextTable table({"authors", "docs", "MB", "sentences", "statements",
                   "pairs", "kept", "opinions", "extract s", "group s",
                   "EM s"});
  World world = World::Generate(MakeWebScaleWorldConfig(12, 23)).value();
  for (double authors : {1000.0, 4000.0, 16000.0}) {
    GeneratorOptions generator_options;
    generator_options.author_population = authors;
    generator_options.seed = 7100;
    const std::vector<RawDocument> corpus =
        CorpusGenerator(&world, generator_options).Generate();
    size_t bytes = 0;
    for (const RawDocument& doc : corpus) bytes += doc.text.size();

    SurveyorConfig config;
    config.min_statements = 100;
    SurveyorPipeline pipeline(&world.kb(), &world.lexicon(), config);
    auto result = pipeline.Run(corpus);
    SURVEYOR_CHECK(result.ok());
    const PipelineStats& stats = result->stats;
    table.AddRow({TextTable::Num(authors, 0),
                  StrFormat("%lld", static_cast<long long>(stats.num_documents)),
                  TextTable::Num(static_cast<double>(bytes) / 1e6, 1),
                  StrFormat("%lld", static_cast<long long>(stats.num_sentences)),
                  StrFormat("%lld", static_cast<long long>(stats.num_statements)),
                  StrFormat("%lld",
                            static_cast<long long>(stats.num_property_type_pairs)),
                  StrFormat("%lld", static_cast<long long>(
                                        stats.num_kept_property_type_pairs)),
                  StrFormat("%lld", static_cast<long long>(stats.num_opinions)),
                  TextTable::Num(stats.extraction_seconds, 2),
                  TextTable::Num(stats.grouping_seconds, 2),
                  TextTable::Num(stats.em_seconds, 2)});
  }
  table.Print(std::cout);
}

void ThreadScaleSweep() {
  bench::PrintHeader("Extraction thread scaling (cluster stand-in)");
  std::cout << "hardware threads on this machine: "
            << std::thread::hardware_concurrency()
            << " (speedup is bounded by physical cores; the sharding is\n"
               "embarrassingly parallel, like the paper's 1000->5000 nodes)\n\n";
  World world = World::Generate(MakeWebScaleWorldConfig(12, 23)).value();
  GeneratorOptions generator_options;
  generator_options.author_population = 8000;
  generator_options.seed = 7200;
  const std::vector<RawDocument> corpus =
      CorpusGenerator(&world, generator_options).Generate();
  const auto extraction_seconds = [&](int threads) {
    SurveyorConfig config;
    config.num_threads = threads;
    SurveyorPipeline pipeline(&world.kb(), &world.lexicon(), config);
    auto result = pipeline.Run(corpus);
    SURVEYOR_CHECK(result.ok());
    return result->stats.extraction_seconds;
  };
  // The first run in a process pays for page faults and cold caches that
  // later runs do not, and one run per thread count shows no spread. Warm
  // up untimed, then take the median of three runs per thread count.
  (void)extraction_seconds(0);
  TextTable table({"threads", "extract s (median of 3)", "min-max",
                   "speedup (medians)"});
  double base = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    std::array<double, 3> runs;
    for (double& seconds : runs) seconds = extraction_seconds(threads);
    std::sort(runs.begin(), runs.end());
    if (threads == 1) base = runs[1];
    table.AddRow({StrFormat("%d", threads), TextTable::Num(runs[1], 2),
                  TextTable::Num(runs[0], 2) + "-" + TextTable::Num(runs[2], 2),
                  TextTable::Num(base / runs[1], 2)});
  }
  table.Print(std::cout);
}

void EmLinearitySweep() {
  bench::PrintHeader("EM cost vs number of entities (closed-form steps)");
  TextTable table({"entities", "EM ms", "ms per 100k entities"});
  Rng rng(7300);
  for (size_t entities : {10000u, 40000u, 160000u, 640000u}) {
    std::vector<EvidenceCounts> counts(entities);
    const ModelParams truth{0.9, 50.0, 5.0};
    const PoissonRates rates = RatesFromParams(truth);
    for (auto& c : counts) {
      const bool positive = rng.Bernoulli(0.3);
      c.positive = rng.Poisson(positive ? rates.pos_given_pos : rates.pos_given_neg);
      c.negative = rng.Poisson(positive ? rates.neg_given_pos : rates.neg_given_neg);
    }
    EmOptions options;
    options.max_iterations = 20;
    options.tolerance = 0.0;  // fixed iteration count for fair scaling
    bench::Stopwatch timer;
    auto fit = EmLearner(options).Fit(counts);
    SURVEYOR_CHECK(fit.ok());
    const double ms = timer.ElapsedMillis();
    table.AddRow({StrFormat("%zu", entities), TextTable::Num(ms, 1),
                  TextTable::Num(ms / (static_cast<double>(entities) / 1e5), 2)});
  }
  table.Print(std::cout);
  std::cout << "\nShape check: ms per 100k entities stays ~constant — EM is\n"
               "linear in the number of entities and independent of the\n"
               "number of mentions (paper Section 6).\n";
}

}  // namespace
}  // namespace surveyor

int main() {
  surveyor::CorpusScaleSweep();
  surveyor::ThreadScaleSweep();
  surveyor::EmLinearitySweep();
  return 0;
}
