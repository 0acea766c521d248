#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace hmpt {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel combination of Welford accumulators.
  double delta = other.mean_ - mean_;
  std::size_t total = n_ + other.n_;
  double na = static_cast<double>(n_);
  double nb = static_cast<double>(other.n_);
  mean_ += delta * nb / static_cast<double>(total);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(total);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = total;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
  running_.add(x);
}

double Summary::mean() const { return running_.mean(); }
double Summary::stddev() const { return running_.stddev(); }
double Summary::min() const { return running_.min(); }
double Summary::max() const { return running_.max(); }

double Summary::percentile(double p) const {
  HMPT_REQUIRE(!samples_.empty(), "percentile of empty summary");
  HMPT_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range");
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (samples_.size() == 1) return samples_[0];
  double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Summary::ci95_halfwidth() const {
  if (count() < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count()));
}

P2Quantile::P2Quantile(double q) : q_(q) {
  HMPT_REQUIRE(q > 0.0 && q < 1.0, "P2Quantile quantile must be in (0, 1)");
  increment_ = {0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0};
  desired_ = {1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0};
  positions_ = {1.0, 2.0, 3.0, 4.0, 5.0};
}

void P2Quantile::add(double x) {
  ++count_;
  if (count_ <= 5) {
    // Bootstrap: the first five observations are the markers themselves.
    heights_[count_ - 1] = x;
    std::sort(heights_.begin(), heights_.begin() + count_);
    return;
  }

  // Locate the cell [heights_[k], heights_[k+1]) holding x, stretching the
  // extreme markers when x falls outside the observed range.
  std::size_t k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = std::max(heights_[4], x);
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (std::size_t i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += increment_[i];

  // Nudge the three interior markers toward their desired positions by
  // piecewise-parabolic (P²) interpolation, falling back to linear when
  // the parabola would break marker monotonicity.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 0.0 ? 1.0 : -1.0;
      const double parabolic =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((below + sign) * (heights_[i + 1] - heights_[i]) / above +
               (above - sign) * (heights_[i] - heights_[i - 1]) / below);
      if (heights_[i - 1] < parabolic && parabolic < heights_[i + 1]) {
        heights_[i] = parabolic;
      } else {
        const std::size_t j = sign > 0.0 ? i + 1 : i - 1;
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ > 5) return heights_[2];
  // Exact small-sample quantile over the sorted bootstrap markers, with
  // the same linear interpolation Summary::percentile uses.
  const std::size_t n = count_;
  if (n == 1) return heights_[0];
  const double rank = q_ * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  return heights_[lo] * (1.0 - frac) + heights_[hi] * frac;
}

void QuantileTracker::add(double x) {
  running_.add(x);
  p50_.add(x);
  p95_.add(x);
  p99_.add(x);
}

void ConcurrentQuantileTracker::add(double x) {
  std::lock_guard<std::mutex> lock(mutex_);
  tracker_.add(x);
}

ConcurrentQuantileTracker::Snapshot ConcurrentQuantileTracker::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.count = tracker_.count();
  snap.mean = tracker_.mean();
  snap.min = tracker_.min();
  snap.max = tracker_.max();
  snap.p50 = tracker_.p50();
  snap.p95 = tracker_.p95();
  snap.p99 = tracker_.p99();
  return snap;
}

void ConcurrentQuantileTracker::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  tracker_ = QuantileTracker();
}

LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y) {
  HMPT_REQUIRE(x.size() == y.size(), "fit_linear size mismatch");
  HMPT_REQUIRE(x.size() >= 2, "fit_linear needs >= 2 points");
  double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (denom == 0.0) {
    fit.intercept = sy / n;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double r = y[i] - (fit.intercept + fit.slope * x[i]);
    ss_res += r * r;
  }
  fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

double harmonic_mean(const std::vector<double>& values) {
  HMPT_REQUIRE(!values.empty(), "harmonic_mean of empty vector");
  double acc = 0.0;
  for (double v : values) {
    HMPT_REQUIRE(v > 0.0, "harmonic_mean requires positive values");
    acc += 1.0 / v;
  }
  return static_cast<double>(values.size()) / acc;
}

double geometric_mean(const std::vector<double>& values) {
  HMPT_REQUIRE(!values.empty(), "geometric_mean of empty vector");
  double acc = 0.0;
  for (double v : values) {
    HMPT_REQUIRE(v > 0.0, "geometric_mean requires positive values");
    acc += std::log(v);
  }
  return std::exp(acc / static_cast<double>(values.size()));
}

}  // namespace hmpt
