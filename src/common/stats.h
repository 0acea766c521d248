// stats.h — streaming statistics and repeated-measurement summaries.
//
// ExperimentRunner averages over n runs per placement configuration (as the
// paper does); RunningStats provides numerically stable mean/variance, and
// Summary adds percentiles and confidence intervals over stored samples.
// P2Quantile estimates a single quantile in O(1) memory for unbounded
// streams (the daemon's latency tracker), with QuantileTracker bundling
// the service percentiles and ConcurrentQuantileTracker adding the lock.
#pragma once

#include <array>
#include <cstddef>
#include <mutex>
#include <vector>

namespace hmpt {

/// Welford one-pass mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for n < 2).
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample-retaining summary: percentiles, median, CI half-width.
class Summary {
 public:
  void add(double x);
  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  /// Half-width of the ~95 % normal-approximation confidence interval.
  double ci95_halfwidth() const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  RunningStats running_;
};

/// Streaming estimate of one quantile via the P² algorithm (Jain &
/// Chlamtac, CACM 1985): five markers track the quantile in O(1) memory,
/// so an unbounded observation stream (a long-running daemon's latency
/// feed) never accumulates samples the way Summary does. The first five
/// observations are exact; afterwards marker heights move by parabolic
/// (falling back to linear) interpolation. Accuracy is typically within a
/// few percent of the sample quantile for smooth distributions.
class P2Quantile {
 public:
  /// `q` in (0, 1), e.g. 0.5 for the median, 0.95 for the tail.
  explicit P2Quantile(double q);

  void add(double x);
  std::size_t count() const { return count_; }
  double quantile() const { return q_; }
  /// The current estimate (exact while count() <= 5; 0 when empty).
  double value() const;

 private:
  double q_ = 0.5;
  std::size_t count_ = 0;
  std::array<double, 5> heights_{};    ///< marker heights (sorted)
  std::array<double, 5> positions_{};  ///< marker positions (1-based)
  std::array<double, 5> desired_{};    ///< desired marker positions
  std::array<double, 5> increment_{};  ///< desired-position increments
};

/// The service latency digest: count/mean plus streaming p50/p95/p99, all
/// O(1) memory. Not thread-safe; see ConcurrentQuantileTracker.
class QuantileTracker {
 public:
  void add(double x);
  std::size_t count() const { return running_.count(); }
  double mean() const { return running_.mean(); }
  double min() const { return running_.min(); }
  double max() const { return running_.max(); }
  double p50() const { return p50_.value(); }
  double p95() const { return p95_.value(); }
  double p99() const { return p99_.value(); }

 private:
  RunningStats running_;
  P2Quantile p50_{0.50};
  P2Quantile p95_{0.95};
  P2Quantile p99_{0.99};
};

/// Thread-safe wrapper over QuantileTracker: writers add() concurrently,
/// readers take a consistent Snapshot — the daemon's stats endpoint reads
/// while workers record.
class ConcurrentQuantileTracker {
 public:
  struct Snapshot {
    std::size_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  void add(double x);
  Snapshot snapshot() const;
  /// Forget every sample.
  void reset();

 private:
  mutable std::mutex mutex_;
  QuantileTracker tracker_;
};

/// Ordinary least squares fit y = a + b·x over paired samples.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y);

/// Harmonic mean (used to average rates such as bandwidths over sub-tests).
double harmonic_mean(const std::vector<double>& values);

/// Geometric mean of positive values.
double geometric_mean(const std::vector<double>& values);

}  // namespace hmpt
