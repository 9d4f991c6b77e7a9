// Streaming and sample-based statistics used by the benchmark reporting
// layer: Welford running moments, exact percentiles over retained samples,
// CDFs, and both linear (Histogram) and log-scaled (LogHistogram)
// histograms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pcieb {

/// Numerically stable streaming mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Owns a full sample set and answers percentile queries exactly.
/// Mirrors the metrics the pcie-bench control programs report:
/// average, median, min, max, 95th and 99th percentile (§5.4).
class SampleSet {
 public:
  SampleSet() = default;
  explicit SampleSet(std::vector<double> samples);

  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double min() const;
  double max() const;
  double median() const { return percentile(50.0); }
  /// Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;

  /// Samples in ascending order (cached copy; the insertion order of
  /// raw() is preserved for time-series reporting).
  const std::vector<double>& sorted() const;

  /// Samples in insertion (measurement) order.
  const std::vector<double>& raw() const { return samples_; }

  /// Evenly spaced CDF points (value, cumulative fraction).
  std::vector<std::pair<double, double>> cdf(std::size_t points = 200) const;

 private:
  std::vector<double> samples_;          ///< insertion order
  mutable std::vector<double> sorted_;   ///< lazily built ascending copy
};

/// Fixed-bin histogram over a linear range; values outside the range land
/// in saturating edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Log-scaled histogram: bin i covers [lo*2^i, lo*2^(i+1)) — constant
/// relative resolution across orders of magnitude, the right shape for
/// latency distributions whose tail is multiplicative (used by the trace
/// latency-breakdown output). Values below `lo` land in bin 0; values at
/// or above the top edge land in the last bin.
class LogHistogram {
 public:
  /// `lo` is the lower edge of the first bin (> 0); `bins` log2 octaves.
  LogHistogram(double lo, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

 private:
  double lo_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Full summary line for a latency benchmark.
struct LatencySummary {
  std::size_t count = 0;
  double mean_ns = 0;
  double median_ns = 0;
  double min_ns = 0;
  double max_ns = 0;
  double p95_ns = 0;
  double p99_ns = 0;
  double p999_ns = 0;
};

LatencySummary summarize_latency(const SampleSet& s);

std::string format_latency_summary(const LatencySummary& s);

}  // namespace pcieb
