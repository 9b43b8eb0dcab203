#include "surveyor/pipeline.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "model/diagnostics.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/threadpool.h"

namespace surveyor {

std::vector<PairOpinion> PipelineResult::Opinions() const {
  std::vector<PairOpinion> opinions;
  for (const PropertyTypeResult& pair : pairs) {
    for (size_t i = 0; i < pair.evidence.entities.size(); ++i) {
      if (pair.polarity[i] == Polarity::kNeutral) continue;
      PairOpinion opinion;
      opinion.entity = pair.evidence.entities[i];
      opinion.type = pair.evidence.type;
      opinion.property = pair.evidence.property;
      opinion.probability = pair.posterior[i];
      opinion.polarity = pair.polarity[i];
      opinions.push_back(std::move(opinion));
    }
  }
  return opinions;
}

const PropertyTypeResult* PipelineResult::Find(
    TypeId type, const std::string& property) const {
  for (const PropertyTypeResult& pair : pairs) {
    if (pair.evidence.type == type && pair.evidence.property == property) {
      return &pair;
    }
  }
  return nullptr;
}

Status SurveyorConfig::Validate() const {
  if (min_statements < 0) {
    return Status::InvalidArgument(
        "min_statements (the rho occurrence threshold) must be >= 0");
  }
  if (!(decision_threshold >= 0.5 && decision_threshold < 1.0)) {
    return Status::InvalidArgument("decision threshold must be in [0.5, 1)");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = hardware concurrency)");
  }
  if (max_provenance_samples < 0) {
    return Status::InvalidArgument(
        "max_provenance_samples must be >= 0 (0 = provenance off)");
  }
  SURVEYOR_RETURN_IF_ERROR(ValidateEmOptions(em));
  if (!fault_spec.empty()) {
    const Status spec_status = FaultInjector::ValidateSpec(fault_spec);
    if (!spec_status.ok()) {
      return Status::InvalidArgument("fault_spec: " + spec_status.message());
    }
  }
  return Status::OK();
}

SurveyorPipeline::SurveyorPipeline(const KnowledgeBase* kb,
                                   const Lexicon* lexicon,
                                   SurveyorConfig config)
    : kb_(kb), lexicon_(lexicon), config_(std::move(config)) {
  SURVEYOR_CHECK(kb_ != nullptr);
  SURVEYOR_CHECK(lexicon_ != nullptr);
}

namespace {

constexpr int kNumPatternKinds = 4;

/// Seconds between extraction progress lines; runs shorter than this stay
/// silent.
constexpr double kProgressIntervalSeconds = 5.0;

size_t EffectiveThreads(int configured) {
  if (configured > 0) return static_cast<size_t>(configured);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

/// Wall seconds from `start` to now: how the run times its stages.
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Advances the admin plane's readiness machine when one is attached.
void EnterStage(obs::StageTracker* tracker, obs::PipelineStage stage) {
  if (tracker != nullptr) tracker->SetStage(stage);
}

/// Per-run fault accounting: arms the config's spec for the scope of one
/// Run* call and meters the injections it caused into the registry
/// (surveyor_faults_injected_total), whether they came from the config
/// spec or an environment-armed chaos profile.
class RunFaultScope {
 public:
  RunFaultScope(const SurveyorConfig& config, obs::MetricRegistry& registry)
      : registry_(registry),
        injected_before_(FaultInjector::Global().TotalInjected()) {
    if (!config.fault_spec.empty()) {
      scoped_.emplace(config.fault_spec, config.fault_seed);
    }
    if (config.stage_tracker != nullptr) {
      config.stage_tracker->SetDegraded(false);
    }
  }

  /// Flushes the injection delta into the registry; call before reading
  /// the counter (idempotent via re-snapshotting).
  void MeterInjected() {
    const int64_t now = FaultInjector::Global().TotalInjected();
    registry_.GetCounter("surveyor_faults_injected_total")
        ->Increment(now - injected_before_);
    injected_before_ = now;
  }

 private:
  obs::MetricRegistry& registry_;
  int64_t injected_before_;
  std::optional<ScopedFaults> scoped_;
};

/// Copies the degradation counters out of the registry into the stats
/// view (same single-source-of-truth scheme as the extraction counters).
void FillDegradationStats(obs::MetricRegistry& registry,
                          PipelineStats* stats) {
  stats->num_retries = registry.GetCounter("surveyor_retries_total")->Value();
  stats->num_faults_injected =
      registry.GetCounter("surveyor_faults_injected_total")->Value();
  stats->num_docs_quarantined =
      registry.GetCounter("surveyor_docs_quarantined_total")->Value();
  stats->num_degraded_pairs =
      registry.GetCounter("surveyor_pairs_degraded_total")->Value();
  stats->source_truncated =
      registry.GetCounter("surveyor_source_truncated_total")->Value();
}

/// True when every number the fit produced is usable for inference.
bool FitIsFinite(const EmFitResult& fit) {
  if (!std::isfinite(fit.params.agreement) ||
      !std::isfinite(fit.params.mu_positive) ||
      !std::isfinite(fit.params.mu_negative)) {
    return false;
  }
  for (double r : fit.responsibilities) {
    if (!std::isfinite(r)) return false;
  }
  return true;
}

/// The smoothed-majority-vote fallback of a failed fit: the same formula
/// EM uses to initialize responsibilities, so a degraded pair equals an
/// EM run stopped before its first iteration. Entities with no evidence
/// land on 0.5 (undecided) and emit no opinion.
void DegradePairToMajorityVote(const Status& why, double decision_threshold,
                               const ModelParams& initial_params,
                               PropertyTypeResult* pair) {
  pair->degraded = true;
  pair->degraded_reason = why.message();
  pair->params = initial_params;
  pair->em_iterations = 0;
  const std::vector<EvidenceCounts>& counts = pair->evidence.counts;
  pair->posterior.resize(counts.size());
  pair->polarity.resize(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    const double cp = static_cast<double>(counts[i].positive);
    const double cn = static_cast<double>(counts[i].negative);
    pair->posterior[i] = (cp + 0.5) / (cp + cn + 1.0);
    pair->polarity[i] = DecidePolarity(pair->posterior[i], decision_threshold);
  }
}

/// Counter handles of the extraction stage, resolved once per run so the
/// per-document hot path is pure lock-free increments.
struct ExtractionCounters {
  explicit ExtractionCounters(obs::MetricRegistry& registry) {
    documents = registry.GetCounter("surveyor_extract_documents_total");
    sentences = registry.GetCounter("surveyor_extract_sentences_total");
    parsed_sentences =
        registry.GetCounter("surveyor_extract_parsed_sentences_total");
    parse_failures =
        registry.GetCounter("surveyor_extract_parse_failures_total");
    statements = registry.GetCounter("surveyor_extract_statements_total");
    negative_statements =
        registry.GetCounter("surveyor_extract_negative_statements_total");
    for (int kind = 0; kind < kNumPatternKinds; ++kind) {
      by_pattern[static_cast<size_t>(kind)] = registry.GetCounter(
          "surveyor_extract_statements_" +
          std::string(PatternKindName(static_cast<PatternKind>(kind))) +
          "_total");
    }
  }

  void CountDocument(const AnnotatedDocument& doc,
                     const std::vector<EvidenceStatement>& extracted) const {
    documents->Increment();
    sentences->Increment(static_cast<int64_t>(doc.sentences.size()));
    int64_t parsed = 0;
    for (const AnnotatedSentence& sentence : doc.sentences) {
      if (sentence.parsed) ++parsed;
    }
    parsed_sentences->Increment(parsed);
    parse_failures->Increment(static_cast<int64_t>(doc.sentences.size()) -
                              parsed);
    statements->Increment(static_cast<int64_t>(extracted.size()));
    for (const EvidenceStatement& statement : extracted) {
      if (!statement.positive) negative_statements->Increment();
      by_pattern[static_cast<size_t>(statement.pattern)]->Increment();
    }
  }

  obs::Counter* documents = nullptr;
  obs::Counter* sentences = nullptr;
  obs::Counter* parsed_sentences = nullptr;
  obs::Counter* parse_failures = nullptr;
  obs::Counter* statements = nullptr;
  obs::Counter* negative_statements = nullptr;
  std::array<obs::Counter*, kNumPatternKinds> by_pattern{};
};

/// Derives the extraction slice of PipelineStats from the registry — the
/// registry is the single source of truth, the struct is a view.
void FillExtractionStats(const ExtractionCounters& counters,
                         obs::MetricRegistry& registry,
                         const EvidenceAggregator& merged,
                         PipelineStats* stats) {
  registry.GetGauge("surveyor_extract_entity_property_pairs")
      ->Set(static_cast<double>(merged.num_pairs()));
  stats->num_documents = counters.documents->Value();
  stats->num_sentences = counters.sentences->Value();
  stats->num_parsed_sentences = counters.parsed_sentences->Value();
  stats->parse_failure_count = counters.parse_failures->Value();
  stats->num_statements = counters.statements->Value();
  stats->num_negative_statements = counters.negative_statements->Value();
  stats->statements_by_pattern.clear();
  for (int kind = 0; kind < kNumPatternKinds; ++kind) {
    stats->statements_by_pattern[std::string(
        PatternKindName(static_cast<PatternKind>(kind)))] =
        counters.by_pattern[static_cast<size_t>(kind)]->Value();
  }
  stats->num_entity_property_pairs = static_cast<int64_t>(merged.num_pairs());
}

/// Copies a pool's usage counters into the registry under a stage prefix.
void RecordPoolMetrics(obs::MetricRegistry& registry, const ThreadPool& pool,
                       const std::string& stage) {
  const ThreadPoolStats pool_stats = pool.stats();
  registry.GetCounter("surveyor_" + stage + "_pool_tasks_total")
      ->Increment(pool_stats.tasks_submitted);
  registry.GetGauge("surveyor_" + stage + "_pool_idle_seconds")
      ->Add(pool_stats.idle_seconds);
  registry.GetGauge("surveyor_" + stage + "_pool_threads")
      ->Set(static_cast<double>(pool.num_threads()));
}

/// Mirrors PipelineStats as name -> value for the run report, so report
/// consumers can cross-check the struct against the raw counters.
std::map<std::string, double> StatsToMap(const PipelineStats& stats) {
  std::map<std::string, double> map = {
      {"num_documents", static_cast<double>(stats.num_documents)},
      {"num_sentences", static_cast<double>(stats.num_sentences)},
      {"num_parsed_sentences",
       static_cast<double>(stats.num_parsed_sentences)},
      {"parse_failure_count", static_cast<double>(stats.parse_failure_count)},
      {"num_statements", static_cast<double>(stats.num_statements)},
      {"num_negative_statements",
       static_cast<double>(stats.num_negative_statements)},
      {"num_entity_property_pairs",
       static_cast<double>(stats.num_entity_property_pairs)},
      {"num_property_type_pairs",
       static_cast<double>(stats.num_property_type_pairs)},
      {"num_kept_property_type_pairs",
       static_cast<double>(stats.num_kept_property_type_pairs)},
      {"num_opinions", static_cast<double>(stats.num_opinions)},
      {"num_retries", static_cast<double>(stats.num_retries)},
      {"num_faults_injected",
       static_cast<double>(stats.num_faults_injected)},
      {"num_docs_quarantined",
       static_cast<double>(stats.num_docs_quarantined)},
      {"num_degraded_pairs", static_cast<double>(stats.num_degraded_pairs)},
      {"source_truncated", static_cast<double>(stats.source_truncated)},
      {"extraction_seconds", stats.extraction_seconds},
      {"grouping_seconds", stats.grouping_seconds},
      {"em_seconds", stats.em_seconds},
  };
  for (const auto& [pattern, count] : stats.statements_by_pattern) {
    map["statements_" + pattern] = static_cast<double>(count);
  }
  return map;
}

/// Final report assembly: metric snapshot, stage seconds and the
/// PipelineStats mirror.
void AssembleReport(obs::MetricRegistry& registry, const PipelineStats& stats,
                    obs::RunReport* report) {
  report->metrics = registry.Snapshot();
  report->stage_seconds = {{"extract", stats.extraction_seconds},
                           {"group", stats.grouping_seconds},
                           {"em", stats.em_seconds}};
  report->pipeline_stats = StatsToMap(stats);
  // Recovered retries alone do not degrade a run — only lost documents,
  // fallback pairs, or a truncated source do.
  report->degradation.retries = stats.num_retries;
  report->degradation.faults_injected = stats.num_faults_injected;
  report->degradation.docs_quarantined = stats.num_docs_quarantined;
  report->degradation.pairs_degraded = stats.num_degraded_pairs;
  report->degradation.degraded = stats.num_docs_quarantined > 0 ||
                                 stats.num_degraded_pairs > 0 ||
                                 !report->degradation.notes.empty();
}

/// What every Run* entry point sets up and finishes the same way: the
/// registry the run counts into (the live one when attached, else a
/// run-local one), its report and its fault scope.
class RunContext {
 public:
  explicit RunContext(const SurveyorConfig& config)
      : config_(config),
        registry_(config.live_metrics != nullptr ? *config.live_metrics
                                                 : local_registry_),
        faults_(config, registry_) {}

  obs::MetricRegistry& registry() { return registry_; }
  obs::RunReport& report() { return report_; }

  /// The shared ending: meters the run's fault injections, derives the
  /// degradation stats, moves the assembled report into `result` and
  /// marks the run done, carrying its degraded flag to the stage tracker.
  void Finish(PipelineResult* result) {
    faults_.MeterInjected();
    FillDegradationStats(registry_, &result->stats);
    AssembleReport(registry_, result->stats, &report_);
    result->report = std::move(report_);
    EnterStage(config_.stage_tracker, obs::PipelineStage::kDone);
    if (config_.stage_tracker != nullptr) {
      config_.stage_tracker->SetDegraded(result->report.degradation.degraded);
    }
  }

 private:
  const SurveyorConfig& config_;
  obs::MetricRegistry local_registry_;
  obs::MetricRegistry& registry_;
  obs::RunReport report_;
  RunFaultScope faults_;
};

}  // namespace

EvidenceAggregator SurveyorPipeline::Extract(DocumentSource& source,
                                             obs::MetricRegistry& registry,
                                             PipelineStats* stats) const {
  const size_t num_threads = EffectiveThreads(config_.num_threads);
  ThreadPool pool(num_threads);

  std::vector<EvidenceAggregator> shards(num_threads);
  for (EvidenceAggregator& shard : shards) {
    shard = EvidenceAggregator(config_.max_provenance_samples);
  }

  ExtractionCounters counters(registry);
  TextAnnotator annotator(kb_, lexicon_, config_.tagger);
  EvidenceExtractor extractor(config_.extraction);

  // The corpus need not fit in memory, so the operator's only window into
  // a running extraction is this periodic progress line.
  struct RateState {
    int64_t documents = 0;
    int64_t statements = 0;
    std::chrono::steady_clock::time_point last =
        std::chrono::steady_clock::now();
  };
  auto previous = std::make_shared<RateState>();
  obs::Counter* documents_counter = counters.documents;
  obs::Counter* statements_counter = counters.statements;
  ThreadPool* pool_ptr = &pool;
  auto reporter = std::make_unique<obs::ProgressReporter>(
      kProgressIntervalSeconds,
      [previous, documents_counter, statements_counter, pool_ptr] {
        const int64_t documents = documents_counter->Value();
        const int64_t statements = statements_counter->Value();
        const auto now = std::chrono::steady_clock::now();
        const double seconds =
            std::chrono::duration<double>(now - previous->last).count();
        const double doc_rate =
            seconds > 0 ? (documents - previous->documents) / seconds : 0.0;
        const double statement_rate =
            seconds > 0 ? (statements - previous->statements) / seconds
                        : 0.0;
        previous->documents = documents;
        previous->statements = statements;
        previous->last = now;
        SURVEYOR_LOG(Info) << StrFormat(
            "extract: %lld docs (%.0f/s), %lld statements (%.0f/s), "
            "queue depth %zu",
            static_cast<long long>(documents), doc_rate,
            static_cast<long long>(statements), statement_rate,
            pool_ptr->queue_depth());
      });

  // Documents are independent: each worker pulls documents until the
  // source runs dry and counts into its own shard, and the shards merge at
  // the end — the paper's map-reduce at thread scale. The source is the
  // only point of coordination.
  for (size_t shard = 0; shard < num_threads; ++shard) {
    pool.Submit([&, shard] {
      EvidenceAggregator& aggregator = shards[shard];
      for (;;) {
        std::optional<RawDocument> doc = source.Next();
        if (!doc.has_value()) return;
        const AnnotatedDocument annotated =
            annotator.AnnotateDocument(doc->doc_id, doc->text);
        const std::vector<EvidenceStatement> statements =
            extractor.ExtractFromDocument(annotated);
        counters.CountDocument(annotated, statements);
        aggregator.AddAll(statements);
      }
    });
  }
  pool.Wait();
  reporter.reset();

  EvidenceAggregator merged(config_.max_provenance_samples);
  for (const EvidenceAggregator& shard : shards) merged.Merge(shard);
  RecordPoolMetrics(registry, pool, "extract");
  // The source's fault accounting (transparent retries, quarantined
  // corrupt documents) surfaces through the run's registry.
  const DocumentSourceCounters source_counters = source.counters();
  registry.GetCounter("surveyor_retries_total")
      ->Increment(source_counters.read_retries);
  registry.GetCounter("surveyor_docs_quarantined_total")
      ->Increment(source_counters.quarantined_documents);
  FillExtractionStats(counters, registry, merged, stats);
  return merged;
}

/// Everything RunStreaming does after extraction: group, filter, learn,
/// merge stats.
StatusOr<PipelineResult> SurveyorPipeline::GroupAndFit(
    EvidenceAggregator aggregator, PipelineStats stats,
    obs::MetricRegistry& registry, obs::RunReport& report) const {
  std::vector<PropertyTypeEvidence> kept;
  {
    const auto start = std::chrono::steady_clock::now();
    std::vector<PropertyTypeEvidence> all_pairs =
        aggregator.GroupByType(*kb_, /*min_statements=*/1);
    obs::Counter* total_pairs =
        registry.GetCounter("surveyor_group_property_type_pairs_total");
    obs::Counter* kept_pairs =
        registry.GetCounter("surveyor_group_pairs_kept_total");
    obs::Counter* dropped_pairs =
        registry.GetCounter("surveyor_group_pairs_dropped_total");
    obs::Counter* dropped_statements =
        registry.GetCounter("surveyor_group_statements_dropped_total");
    total_pairs->Increment(static_cast<int64_t>(all_pairs.size()));
    for (PropertyTypeEvidence& pair : all_pairs) {
      if (pair.total_statements >= config_.min_statements) {
        kept_pairs->Increment();
        kept.push_back(std::move(pair));
      } else {
        dropped_pairs->Increment();
        dropped_statements->Increment(pair.total_statements);
      }
    }
    stats.num_property_type_pairs = total_pairs->Value();
    stats.grouping_seconds = SecondsSince(start);
  }

  SURVEYOR_ASSIGN_OR_RETURN(
      PipelineResult result,
      RunFromEvidenceWithRegistry(std::move(kept), registry, report));
  if (config_.max_provenance_samples > 0) {
    for (auto& [entity, property, refs] :
         aggregator.AllSupportingStatements()) {
      result.provenance[{entity, property}] = std::move(refs);
    }
  }
  const double em_seconds = result.stats.em_seconds;
  const int64_t kept_pairs = result.stats.num_kept_property_type_pairs;
  const int64_t opinions = result.stats.num_opinions;
  result.stats = stats;
  result.stats.em_seconds = em_seconds;
  result.stats.num_kept_property_type_pairs = kept_pairs;
  result.stats.num_opinions = opinions;
  return result;
}

StatusOr<PipelineResult> SurveyorPipeline::RunStreaming(
    DocumentSource& source) const {
  SURVEYOR_RETURN_IF_ERROR(config_.Validate());
  RunContext run(config_);
  PipelineStats stats;
  EnterStage(config_.stage_tracker, obs::PipelineStage::kExtracting);
  const auto extract_start = std::chrono::steady_clock::now();
  EvidenceAggregator aggregator = Extract(source, run.registry(), &stats);
  stats.extraction_seconds = SecondsSince(extract_start);
  StatusOr<PipelineResult> result = GroupAndFit(
      std::move(aggregator), stats, run.registry(), run.report());
  if (!result.ok()) return result;
  // A source that ends with an error mid-stream means the corpus was only
  // partially read; warn rather than pretend the numbers are complete.
  const Status source_status = source.status();
  if (!source_status.ok()) {
    run.registry().GetCounter("surveyor_source_truncated_total")->Increment();
    SURVEYOR_LOG(Warning) << "document source truncated: "
                          << source_status.ToString();
    run.report().degradation.notes.push_back("document source truncated: " +
                                             source_status.ToString());
  }
  run.Finish(&*result);
  return result;
}

StatusOr<PipelineResult> SurveyorPipeline::RunFromEvidenceWithRegistry(
    std::vector<PropertyTypeEvidence> evidence, obs::MetricRegistry& registry,
    obs::RunReport& report) const {
  // A bad configuration fails every pair the same way; reject it once, up
  // front and loudly — degradation is only for per-pair failures. The
  // public entry points validate before extraction; this backstop covers
  // the internal path for callers the compiler cannot see.
  SURVEYOR_RETURN_IF_ERROR(config_.Validate());
  EnterStage(config_.stage_tracker, obs::PipelineStage::kFitting);
  PipelineResult result;
  result.pairs.resize(evidence.size());

  obs::Counter* fits = registry.GetCounter("surveyor_em_fits_total");
  obs::Counter* iterations =
      registry.GetCounter("surveyor_em_iterations_total");
  obs::Counter* grid_evaluations =
      registry.GetCounter("surveyor_em_grid_evaluations_total");
  obs::Counter* convergence_failures =
      registry.GetCounter("surveyor_em_convergence_failures_total");
  obs::Counter* degraded_pairs =
      registry.GetCounter("surveyor_pairs_degraded_total");
  obs::Histogram* iteration_histogram = registry.GetHistogram(
      "surveyor_em_iterations",
      obs::HistogramOptions{/*first_bound=*/1.0, /*growth=*/2.0,
                            /*num_finite_buckets=*/8});

  std::vector<obs::EmFitDiagnostics> fit_diagnostics(evidence.size());

  const EmLearner learner(config_.em);
  ThreadPool pool(EffectiveThreads(config_.num_threads));
  Mutex error_mutex;
  Status first_error = Status::OK();
  // Written by workers under error_mutex; read single-threaded after Wait.
  std::vector<obs::DegradedPairInfo> degraded_infos;

  const auto em_start = std::chrono::steady_clock::now();
  // Property-type combinations are independent: one EM per combination.
  ParallelFor(pool, evidence.size(), [&](size_t i) {
    PropertyTypeResult& pair = result.pairs[i];
    pair.evidence = std::move(evidence[i]);
    // A failed fit degrades this pair, not the run: an injected "em_fit"
    // fault, an internal error, or a non-finite result falls back to the
    // SMV baseline. Deterministic input errors (kInvalidArgument) still
    // abort — retrying or degrading those would hide bugs.
    Status fit_error = Status::OK();
    std::optional<EmFitResult> fit;
    if (SURVEYOR_FAULT("em_fit")) {
      fit_error = Status::Internal("injected fault: em_fit");
    } else {
      StatusOr<EmFitResult> fitted = learner.Fit(pair.evidence.counts);
      if (!fitted.ok()) {
        fit_error = fitted.status();
      } else if (!FitIsFinite(*fitted)) {
        fit_error = Status::Internal("non-finite fit result");
      } else {
        fit = std::move(*fitted);
      }
    }
    if (!fit_error.ok()) {
      const bool degradable =
          config_.degrade_failed_fits &&
          fit_error.code() != StatusCode::kInvalidArgument;
      if (!degradable) {
        MutexLock lock(error_mutex);
        if (first_error.ok()) first_error = fit_error;
        return;
      }
      DegradePairToMajorityVote(fit_error, config_.decision_threshold,
                                config_.em.initial_params, &pair);
      degraded_pairs->Increment();
      obs::DegradedPairInfo info;
      info.type_name = kb_->TypeName(pair.evidence.type);
      info.property = pair.evidence.property;
      info.reason = pair.degraded_reason;
      MutexLock lock(error_mutex);
      degraded_infos.push_back(std::move(info));
      return;
    }
    fits->Increment();
    iterations->Increment(fit->iterations);
    grid_evaluations->Increment(fit->grid_evaluations);
    if (!fit->converged) convergence_failures->Increment();
    iteration_histogram->Record(static_cast<double>(fit->iterations));
    const ModelDiagnostics diagnostics =
        DiagnoseFit(pair.evidence.counts, *fit);
    obs::EmFitDiagnostics& out = fit_diagnostics[i];
    out.type_name = kb_->TypeName(pair.evidence.type);
    out.property = pair.evidence.property;
    out.total_statements = pair.evidence.total_statements;
    out.iterations = fit->iterations;
    out.converged = fit->converged;
    out.log_likelihood = diagnostics.log_likelihood;
    out.aic = diagnostics.aic;
    out.chi2_positive = diagnostics.positive_count_chi2;
    out.chi2_negative = diagnostics.negative_count_chi2;
    pair.params = fit->params;
    pair.posterior = std::move(fit->responsibilities);
    pair.em_iterations = fit->iterations;
    pair.polarity.resize(pair.posterior.size());
    for (size_t e = 0; e < pair.posterior.size(); ++e) {
      pair.polarity[e] =
          DecidePolarity(pair.posterior[e], config_.decision_threshold);
    }
  });
  if (!first_error.ok()) return first_error;
  result.stats.em_seconds = SecondsSince(em_start);
  RecordPoolMetrics(registry, pool, "em");

  if (!degraded_infos.empty()) {
    // Collection order is scheduling-dependent; sort for a deterministic
    // report.
    std::sort(degraded_infos.begin(), degraded_infos.end(),
              [](const obs::DegradedPairInfo& a,
                 const obs::DegradedPairInfo& b) {
                if (a.type_name != b.type_name) {
                  return a.type_name < b.type_name;
                }
                return a.property < b.property;
              });
    for (const obs::DegradedPairInfo& info : degraded_infos) {
      SURVEYOR_LOG(Warning) << "degraded pair (" << info.type_name << ", "
                            << info.property
                            << ") fell back to majority vote: " << info.reason;
    }
    for (obs::DegradedPairInfo& info : degraded_infos) {
      report.degradation.degraded_pairs.push_back(std::move(info));
    }
  }

  for (obs::EmFitDiagnostics& diagnostics : fit_diagnostics) {
    report.em.Add(std::move(diagnostics));
  }

  result.stats.num_kept_property_type_pairs =
      static_cast<int64_t>(result.pairs.size());
  obs::Counter* opinions =
      registry.GetCounter("surveyor_infer_opinions_total");
  obs::Counter* neutral = registry.GetCounter("surveyor_infer_neutral_total");
  for (const PropertyTypeResult& pair : result.pairs) {
    for (Polarity polarity : pair.polarity) {
      if (polarity != Polarity::kNeutral) {
        opinions->Increment();
      } else {
        neutral->Increment();
      }
    }
  }
  result.stats.num_opinions = opinions->Value();
  return result;
}

StatusOr<PipelineResult> SurveyorPipeline::RunFromEvidence(
    std::vector<PropertyTypeEvidence> evidence) const {
  SURVEYOR_RETURN_IF_ERROR(config_.Validate());
  RunContext run(config_);
  StatusOr<PipelineResult> result = RunFromEvidenceWithRegistry(
      std::move(evidence), run.registry(), run.report());
  if (!result.ok()) return result;
  run.Finish(&*result);
  return result;
}

StatusOr<PipelineResult> SurveyorPipeline::Run(
    const std::vector<RawDocument>& corpus) const {
  VectorDocumentSource source(&corpus);
  return RunStreaming(source);
}

}  // namespace surveyor
