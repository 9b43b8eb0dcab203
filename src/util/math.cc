#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace surveyor {

double LogFactorial(int64_t k) {
  SURVEYOR_CHECK_GE(k, 0);
  // lgamma_r, not std::lgamma: the latter writes the global `signgam`,
  // a data race when EM fits run on several threads.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(k) + 1.0, &sign);
}

double SafeLog(double x) {
  return std::log(std::max(x, kMinPoissonRate));
}

double PoissonLogPmf(int64_t k, double lambda) {
  SURVEYOR_CHECK_GE(k, 0);
  const double rate = std::max(lambda, kMinPoissonRate);
  return static_cast<double>(k) * std::log(rate) - rate - LogFactorial(k);
}

double PoissonPmf(int64_t k, double lambda) {
  return std::exp(PoissonLogPmf(k, lambda));
}

double LogSumExp(double a, double b) {
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  if (std::isinf(hi) && hi < 0) return hi;  // both -inf
  return hi + std::log1p(std::exp(lo - hi));
}

double Sigmoid(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mean = Mean(values);
  double sum = 0.0;
  for (double v : values) sum += (v - mean) * (v - mean);
  return sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  SURVEYOR_CHECK_GE(q, 0.0);
  SURVEYOR_CHECK_LE(q, 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

namespace {

// Average ranks with tie handling.
std::vector<double> Ranks(const std::vector<double>& values) {
  const size_t n = values.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  SURVEYOR_CHECK_EQ(x.size(), y.size());
  if (x.size() < 2) return 0.0;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  SURVEYOR_CHECK_EQ(x.size(), y.size());
  if (x.size() < 2) return 0.0;
  return PearsonCorrelation(Ranks(x), Ranks(y));
}

}  // namespace surveyor
