// Summary statistics used by the benchmark harnesses and evaluation code.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace tagwatch::util {

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Population variance (divide by n), matching Eqn. 8 in the paper.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

  /// Pools another accumulator's samples into this one.
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Returns the q-quantile (q in [0,1]) of `samples` by linear interpolation
/// between order statistics.  Copies and sorts; fine for bench-sized data.
double percentile(std::vector<double> samples, double q);

/// Median shorthand.
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// One (x, F(x)) point of an empirical CDF.
struct CdfPoint {
  double value;
  double cumulative_fraction;
};

/// Builds an empirical CDF with at most `max_points` evenly spaced points
/// (all points if the sample is small).
std::vector<CdfPoint> empirical_cdf(std::vector<double> samples,
                                    std::size_t max_points = 100);

/// Fixed-width bin histogram over [lo, hi).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds a sample; values outside [lo, hi) clamp into the edge bins.
  void add(double x) noexcept;

  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const noexcept { return total_; }
  /// Center value of a bin.
  double bin_center(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Formats `value` with `decimals` fractional digits (bench table output).
std::string format_fixed(double value, int decimals);

/// Jain's fairness index (Σx)²/(n·Σx²) over non-negative allocations:
/// 1 = perfectly equal, 1/n = one party takes everything.
/// Precondition: at least one value > 0.
double jain_fairness(std::span<const double> values);

}  // namespace tagwatch::util
