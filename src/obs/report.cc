#include "obs/report.h"

#include <algorithm>

#include "obs/json_writer.h"

namespace surveyor {
namespace obs {

void EmAggregateDiagnostics::Add(EmFitDiagnostics fit) {
  ++fits;
  if (fit.converged) ++converged;
  total_iterations += fit.iterations;
  total_log_likelihood += fit.log_likelihood;
  const double chi2 = fit.worst_chi2();
  sum_worst_chi2 += chi2;
  if (chi2 > max_chi2) max_chi2 = chi2;
  worst_fits.push_back(std::move(fit));
  std::sort(worst_fits.begin(), worst_fits.end(),
            [](const EmFitDiagnostics& a, const EmFitDiagnostics& b) {
              if (a.worst_chi2() != b.worst_chi2()) {
                return a.worst_chi2() > b.worst_chi2();
              }
              if (a.type_name != b.type_name) return a.type_name < b.type_name;
              return a.property < b.property;
            });
  if (worst_fits.size() > static_cast<size_t>(max_worst_fits)) {
    worst_fits.resize(static_cast<size_t>(max_worst_fits));
  }
}

double RunReport::MetricValue(const std::string& name) const {
  for (const MetricSnapshot& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

namespace {

void WriteMetric(const MetricSnapshot& metric, JsonWriter& writer) {
  writer.BeginObject()
      .Key("name")
      .Value(metric.name)
      .Key("kind")
      .Value(MetricKindName(metric.kind))
      .Key("value")
      .Value(metric.value);
  if (metric.kind == MetricSnapshot::Kind::kHistogram) {
    writer.Key("count").Value(metric.count).Key("bounds").BeginArray();
    for (const double bound : metric.bucket_bounds) writer.Value(bound);
    writer.EndArray().Key("buckets").BeginArray();
    for (const int64_t count : metric.bucket_counts) writer.Value(count);
    writer.EndArray();
  }
  writer.EndObject();
}

void WriteEmFit(const EmFitDiagnostics& fit, JsonWriter& writer) {
  writer.BeginObject()
      .Key("type")
      .Value(fit.type_name)
      .Key("property")
      .Value(fit.property)
      .Key("total_statements")
      .Value(fit.total_statements)
      .Key("iterations")
      .Value(fit.iterations)
      .Key("converged")
      .Value(fit.converged)
      .Key("log_likelihood")
      .Value(fit.log_likelihood)
      .Key("aic")
      .Value(fit.aic)
      .Key("chi2_positive")
      .Value(fit.chi2_positive)
      .Key("chi2_negative")
      .Value(fit.chi2_negative)
      .EndObject();
}

}  // namespace

std::string RunReport::ToJson() const {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("label").Value(label);

  writer.Key("stage_seconds").BeginObject();
  for (const auto& [stage, seconds] : stage_seconds) {
    writer.Key(stage + "_seconds").Value(seconds);
  }
  writer.EndObject();

  writer.Key("pipeline_stats").BeginObject();
  for (const auto& [name, value] : pipeline_stats) {
    writer.Key(name).Value(value);
  }
  writer.EndObject();

  writer.Key("metrics").BeginArray();
  for (const MetricSnapshot& metric : metrics) WriteMetric(metric, writer);
  writer.EndArray();

  writer.Key("em_diagnostics")
      .BeginObject()
      .Key("fits")
      .Value(em.fits)
      .Key("converged")
      .Value(em.converged)
      .Key("total_iterations")
      .Value(em.total_iterations)
      .Key("mean_iterations")
      .Value(em.mean_iterations())
      .Key("total_log_likelihood")
      .Value(em.total_log_likelihood)
      .Key("max_chi2")
      .Value(em.max_chi2)
      .Key("mean_worst_chi2")
      .Value(em.mean_worst_chi2())
      .Key("worst_fits")
      .BeginArray();
  for (const EmFitDiagnostics& fit : em.worst_fits) WriteEmFit(fit, writer);
  writer.EndArray().EndObject();

  writer.Key("degradation")
      .BeginObject()
      .Key("degraded")
      .Value(degradation.degraded)
      .Key("retries")
      .Value(degradation.retries)
      .Key("faults_injected")
      .Value(degradation.faults_injected)
      .Key("docs_quarantined")
      .Value(degradation.docs_quarantined)
      .Key("pairs_degraded")
      .Value(degradation.pairs_degraded)
      .Key("degraded_pairs")
      .BeginArray();
  for (const DegradedPairInfo& pair : degradation.degraded_pairs) {
    writer.BeginObject()
        .Key("type")
        .Value(pair.type_name)
        .Key("property")
        .Value(pair.property)
        .Key("reason")
        .Value(pair.reason)
        .EndObject();
  }
  writer.EndArray().Key("notes").BeginArray();
  for (const std::string& note : degradation.notes) writer.Value(note);
  writer.EndArray().EndObject();

  writer.EndObject();
  return writer.str();
}

}  // namespace obs
}  // namespace surveyor
