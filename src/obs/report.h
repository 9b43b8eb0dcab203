#ifndef SURVEYOR_OBS_REPORT_H_
#define SURVEYOR_OBS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace surveyor {
namespace obs {

/// Fit-quality summary of one property-type EM fit, for the run report's
/// misfit ranking (the quality-control instrument for a system that fits
/// hundreds of thousands of pairs unsupervised).
struct EmFitDiagnostics {
  std::string type_name;
  std::string property;
  int64_t total_statements = 0;
  int iterations = 0;
  bool converged = true;
  double log_likelihood = 0.0;
  double aic = 0.0;
  double chi2_positive = 0.0;
  double chi2_negative = 0.0;

  double worst_chi2() const {
    return chi2_positive > chi2_negative ? chi2_positive : chi2_negative;
  }
};

/// Aggregate EM diagnostics across every fitted pair, plus the worst fits
/// by chi-square so an operator can eyeball the pairs the two-Poisson
/// mixture describes worst.
struct EmAggregateDiagnostics {
  int64_t fits = 0;
  int64_t converged = 0;
  int64_t total_iterations = 0;
  double total_log_likelihood = 0.0;
  double max_chi2 = 0.0;
  double sum_worst_chi2 = 0.0;
  /// Worst fits by worst_chi2(), descending; at most `max_worst_fits`.
  std::vector<EmFitDiagnostics> worst_fits;
  int max_worst_fits = 10;

  void Add(EmFitDiagnostics fit);
  double mean_iterations() const {
    return fits > 0 ? static_cast<double>(total_iterations) / fits : 0.0;
  }
  double mean_worst_chi2() const {
    return fits > 0 ? sum_worst_chi2 / fits : 0.0;
  }
};

/// One property-type pair that fell back to the smoothed-majority-vote
/// baseline instead of an EM fit.
struct DegradedPairInfo {
  std::string type_name;
  std::string property;
  /// Why the fit was abandoned ("injected fault: em_fit", "non-finite
  /// posterior", the fit error's message, ...).
  std::string reason;
};

/// Fault-handling summary of one run (DESIGN.md §9): every retry,
/// quarantined document, and degraded pair is accounted for here, in
/// /metrics, and in PipelineStats — three views of the same counters.
struct DegradationReport {
  /// True when anything below is non-zero or a truncation note exists.
  bool degraded = false;
  /// Recovered transient failures (document reads).
  int64_t retries = 0;
  /// Fault-point firings during the run (0 outside chaos testing).
  int64_t faults_injected = 0;
  /// Documents dropped as corrupt instead of failing the run.
  int64_t docs_quarantined = 0;
  /// Pairs that fell back to the SMV baseline.
  int64_t pairs_degraded = 0;
  /// The degraded pairs, sorted by (type, property).
  std::vector<DegradedPairInfo> degraded_pairs;
  /// Human-readable warnings, e.g. a document source that ended with an
  /// error mid-stream (truncated corpus).
  std::vector<std::string> notes;
};

/// Machine-readable artifact of one pipeline run: every metric, per-stage
/// seconds, EM diagnostics and a mirror of PipelineStats.
/// `surveyor_cli mine --report FILE` serializes it with ToJson().
struct RunReport {
  /// Free-form label (the CLI stores the workspace directory).
  std::string label;
  /// Stage wall times, keyed by stage name ("extract", "group", "em").
  std::map<std::string, double> stage_seconds;
  /// Every metric of the run's registry, sorted by name.
  std::vector<MetricSnapshot> metrics;
  EmAggregateDiagnostics em;
  DegradationReport degradation;
  /// PipelineStats mirrored as name -> value, for exact cross-checking
  /// against the registry counters.
  std::map<std::string, double> pipeline_stats;

  /// Value of a metric by exact name; 0 when absent.
  double MetricValue(const std::string& name) const;

  /// Serializes the whole report as a JSON document.
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace surveyor

#endif  // SURVEYOR_OBS_REPORT_H_
