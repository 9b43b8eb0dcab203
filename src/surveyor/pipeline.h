#ifndef SURVEYOR_SURVEYOR_PIPELINE_H_
#define SURVEYOR_SURVEYOR_PIPELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "extraction/aggregator.h"
#include "extraction/extractor.h"
#include "kb/knowledge_base.h"
#include "model/em.h"
#include "obs/report.h"
#include "obs/stage.h"
#include "text/annotator.h"
#include "text/document.h"
#include "text/document_source.h"
#include "text/lexicon.h"
#include "util/statusor.h"

namespace surveyor {

/// End-to-end pipeline configuration (Algorithm 1 of the paper).
struct SurveyorConfig {
  /// The occurrence threshold rho: property-type combinations with fewer
  /// total statements are dropped (100 in the deployed system).
  int64_t min_statements = 100;
  ExtractionOptions extraction;
  EmOptions em;
  /// Posterior threshold for emitting a polarity (paper default 1/2).
  double decision_threshold = 0.5;
  /// Supporting-statement references kept per pair (0 = off); lets query
  /// results link back to the documents that asserted them.
  int max_provenance_samples = 0;
  /// Worker threads for document annotation/extraction and per-pair EM.
  /// 0 means hardware concurrency. This is the laptop-scale stand-in for
  /// the paper's 5000-node cluster.
  int num_threads = 0;
  EntityTaggerOptions tagger;
  /// Live metrics registry for the admin plane (not owned, must outlive
  /// the pipeline). When set, Run* records its counters here — so an
  /// embedded obs::AdminServer scraping the same registry sees them move
  /// mid-run — instead of into a run-local registry. Reports and
  /// PipelineStats are derived from the same registry either way.
  obs::MetricRegistry* live_metrics = nullptr;
  /// Readiness state machine for /readyz (not owned). When set, Run*
  /// advances it: extracting -> fitting -> done, and carries the degraded
  /// flag of the last run.
  obs::StageTracker* stage_tracker = nullptr;
  /// Fault-injection spec armed for the duration of every Run* call (see
  /// util/fault.h for the grammar, DESIGN.md §9 for the point names).
  /// Empty = leave the process-wide injector alone (including an
  /// environment-armed chaos profile).
  std::string fault_spec;
  /// Seed of the fault injector's trigger stream when fault_spec is set.
  uint64_t fault_seed = 42;
  /// When true (default), a property-type pair whose EM fit fails — an
  /// injected "em_fit" fault, a non-finite result, or an internal error —
  /// falls back to the smoothed-majority-vote baseline and is reported as
  /// degraded instead of failing the run. Configuration errors (invalid
  /// EmOptions, bad threshold) are always hard failures. When false, the
  /// first fit failure aborts the run (the pre-degradation behavior).
  bool degrade_failed_fits = true;

  /// One check for the whole configuration: range checks on
  /// min_statements / decision_threshold / thread counts / sample counts,
  /// EmOptions validity, fault-spec parseability. Every pipeline entry
  /// point (Run, RunStreaming, RunFromEvidence — and therefore Mine)
  /// calls this before doing any work, so a bad configuration fails fast
  /// with kInvalidArgument instead of mid-run; the CLI surfaces the
  /// message verbatim.
  Status Validate() const;
};

/// Fitted model and inferences for one property-type combination.
struct PropertyTypeResult {
  PropertyTypeEvidence evidence;
  ModelParams params;
  /// Posterior Pr(D=+|E) aligned with evidence.entities.
  std::vector<double> posterior;
  /// Decisions aligned with evidence.entities.
  std::vector<Polarity> polarity;
  int em_iterations = 0;
  /// True when the EM fit failed and this pair's posterior is the
  /// smoothed-majority-vote fallback (params are the initial guess,
  /// em_iterations is 0). Degraded pairs still emit opinions.
  bool degraded = false;
  /// Why the fit was abandoned; empty for healthy pairs.
  std::string degraded_reason;
};

/// One output tuple <entity, property, polarity> of Algorithm 1.
struct PairOpinion {
  EntityId entity = kInvalidEntity;
  TypeId type = kInvalidType;
  std::string property;
  double probability = 0.5;
  Polarity polarity = Polarity::kNeutral;
};

/// Throughput and volume statistics of one pipeline run (the Section 7.1
/// numbers at laptop scale). Every counter is derived from the run's
/// metrics registry, so the values match the run report exactly.
struct PipelineStats {
  int64_t num_documents = 0;
  int64_t num_sentences = 0;
  int64_t num_parsed_sentences = 0;
  int64_t parse_failure_count = 0;         ///< sentences the parser rejected
  int64_t num_statements = 0;
  int64_t num_negative_statements = 0;     ///< polarity flipped by negation
  /// Statements per extraction pattern, keyed by PatternKindName
  /// ("amod", "acomp", "conj", "xcomp").
  std::map<std::string, int64_t> statements_by_pattern;
  int64_t num_entity_property_pairs = 0;   ///< pairs with evidence (60M analog)
  int64_t num_property_type_pairs = 0;     ///< before the rho filter (7M analog)
  int64_t num_kept_property_type_pairs = 0;  ///< after the filter (380k analog)
  int64_t num_opinions = 0;                ///< emitted polarities (4B analog)
  int64_t num_retries = 0;                 ///< recovered transient failures
  int64_t num_faults_injected = 0;         ///< fault-point firings this run
  int64_t num_docs_quarantined = 0;        ///< corrupt documents dropped
  int64_t num_degraded_pairs = 0;          ///< pairs on the SMV fallback
  int64_t source_truncated = 0;            ///< 1 if the stream ended early
  double extraction_seconds = 0.0;
  double grouping_seconds = 0.0;
  double em_seconds = 0.0;
};

/// Full pipeline result.
struct PipelineResult {
  std::vector<PropertyTypeResult> pairs;
  PipelineStats stats;
  /// Machine-readable run artifact: every metric, stage seconds and
  /// aggregate EM diagnostics (see DESIGN.md §7).
  obs::RunReport report;
  /// Supporting-statement samples per (entity, property); populated only
  /// when SurveyorConfig::max_provenance_samples > 0. These are the
  /// "links to supporting content" a subjective-query result can show.
  std::map<std::pair<EntityId, std::string>, std::vector<StatementRef>>
      provenance;

  /// Flattens all non-neutral decisions into output tuples.
  std::vector<PairOpinion> Opinions() const;

  /// Finds the result for a (type, property) combination; nullptr if the
  /// combination fell under the rho threshold.
  const PropertyTypeResult* Find(TypeId type, const std::string& property) const;
};

/// The Surveyor system (Algorithm 1): extract evidence from raw documents,
/// group it by property-type combination, learn the user-behavior model
/// per combination with EM, and infer a dominant-opinion probability for
/// every entity of every kept combination.
class SurveyorPipeline {
 public:
  /// `kb` and `lexicon` must outlive the pipeline.
  SurveyorPipeline(const KnowledgeBase* kb, const Lexicon* lexicon,
                   SurveyorConfig config = {});

  /// Runs the full pipeline over an in-memory corpus: RunStreaming over a
  /// VectorDocumentSource.
  StatusOr<PipelineResult> Run(const std::vector<RawDocument>& corpus) const;

  /// Full pipeline over a document stream: workers pull documents from
  /// `source` until it is exhausted, so the corpus never needs to fit in
  /// memory (the deployed system's snapshot was 40 TB). `source` must be
  /// thread-safe.
  StatusOr<PipelineResult> RunStreaming(DocumentSource& source) const;

  /// Model learning + inference over pre-aggregated evidence (one entry
  /// per property-type combination that passed the rho filter).
  StatusOr<PipelineResult> RunFromEvidence(
      std::vector<PropertyTypeEvidence> evidence) const;

  const SurveyorConfig& config() const { return config_; }

 private:
  /// Annotation + extraction over `source`, sharded across worker
  /// threads; counts into `registry` and fills the extraction slice of
  /// `stats`.
  EvidenceAggregator Extract(DocumentSource& source,
                             obs::MetricRegistry& registry,
                             PipelineStats* stats) const;
  StatusOr<PipelineResult> RunFromEvidenceWithRegistry(
      std::vector<PropertyTypeEvidence> evidence,
      obs::MetricRegistry& registry, obs::RunReport& report) const;
  StatusOr<PipelineResult> GroupAndFit(EvidenceAggregator aggregator,
                                       PipelineStats stats,
                                       obs::MetricRegistry& registry,
                                       obs::RunReport& report) const;

  const KnowledgeBase* kb_;
  const Lexicon* lexicon_;
  SurveyorConfig config_;
};

}  // namespace surveyor

#endif  // SURVEYOR_SURVEYOR_PIPELINE_H_
