#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace pcieb {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

SampleSet::SampleSet(std::vector<double> samples)
    : samples_(std::move(samples)) {}

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_.clear();
}

const std::vector<double>& SampleSet::sorted() const {
  if (sorted_.size() != samples_.size()) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return sorted_;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSet::min() const { return samples_.empty() ? 0.0 : sorted().front(); }
double SampleSet::max() const { return samples_.empty() ? 0.0 : sorted().back(); }

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  const auto& v = sorted();
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

std::vector<std::pair<double, double>> SampleSet::cdf(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) return out;
  const auto& v = sorted();
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double frac =
        static_cast<double>(i + 1) / static_cast<double>(points);
    const auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(v.size() - 1));
    out.emplace_back(v[idx], frac);
  }
  return out;
}

namespace {

/// `bins`, once the shape is known to be valid: the width initializer
/// divides by it, so the check must come first.
std::size_t checked_bins(double lo, double hi, std::size_t bins) {
  if (bins == 0 || hi <= lo) {
    throw std::invalid_argument("Histogram: need bins > 0 and hi > lo");
  }
  return bins;
}

}  // namespace

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / static_cast<double>(checked_bins(lo, hi, bins))),
      counts_(bins, 0) {}

void Histogram::add(double x) {
  if (std::isnan(x)) return;  // NaN orders with nothing; no bin is right
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;  // also catches +inf (cast would be UB)
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

LogHistogram::LogHistogram(double lo, std::size_t bins)
    : lo_(lo), counts_(bins, 0) {
  if (bins == 0 || lo <= 0.0) {
    throw std::invalid_argument("LogHistogram: need bins > 0 and lo > 0");
  }
}

void LogHistogram::add(double x) {
  if (std::isnan(x)) return;  // NaN orders with nothing; no bin is right
  std::size_t idx = 0;
  if (std::isinf(x) && x > 0) {
    idx = counts_.size() - 1;  // log2(inf) can't be cast to an index
  } else if (x >= lo_) {
    idx = static_cast<std::size_t>(std::log2(x / lo_));
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

double LogHistogram::bin_lo(std::size_t i) const {
  return lo_ * std::exp2(static_cast<double>(i));
}

double LogHistogram::bin_hi(std::size_t i) const {
  return lo_ * std::exp2(static_cast<double>(i + 1));
}

LatencySummary summarize_latency(const SampleSet& s) {
  LatencySummary out;
  out.count = s.count();
  out.mean_ns = s.mean();
  out.median_ns = s.median();
  out.min_ns = s.min();
  out.max_ns = s.max();
  out.p95_ns = s.percentile(95.0);
  out.p99_ns = s.percentile(99.0);
  out.p999_ns = s.percentile(99.9);
  return out;
}

std::string format_latency_summary(const LatencySummary& s) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << "n=" << s.count << " mean=" << s.mean_ns << "ns"
     << " median=" << s.median_ns << "ns"
     << " min=" << s.min_ns << "ns"
     << " p95=" << s.p95_ns << "ns"
     << " p99=" << s.p99_ns << "ns"
     << " p99.9=" << s.p999_ns << "ns"
     << " max=" << s.max_ns << "ns";
  return os.str();
}

}  // namespace pcieb
