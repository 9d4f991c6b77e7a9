#include "core/loadgen.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace pcieb::core {

const char* to_string(ArrivalModel m) {
  switch (m) {
    case ArrivalModel::Poisson: return "poisson";
    case ArrivalModel::Burst: return "burst";
  }
  return "?";
}

LoadGen::LoadGen(const LoadGenConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.mean_gap_ps < 1.0) {
    throw std::invalid_argument("LoadGen: mean_gap_ps must be >= 1");
  }
  if (cfg_.burst_frames == 0) {
    throw std::invalid_argument("LoadGen: burst_frames must be >= 1");
  }
  if (cfg_.flows == 0) {
    throw std::invalid_argument("LoadGen: flows must be >= 1");
  }
  flow_cdf_.reserve(cfg_.flows);
  double total = 0.0;
  for (std::uint32_t i = 0; i < cfg_.flows; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), cfg_.zipf_s);
    flow_cdf_.push_back(total);
  }
  for (double& c : flow_cdf_) c /= total;
  flow_cdf_.back() = 1.0;  // guard against accumulated rounding
  // A power-of-two guide table, four slots per flow and at most 2^16,
  // leaves next_flow an expected flows / (2 * slots) forward steps: an
  // eighth of a step below the cap, whatever zipf_s is.
  const std::size_t slots =
      std::min<std::size_t>(std::bit_ceil(std::size_t{4} * cfg_.flows),
                            std::size_t{1} << 16);
  guide_.resize(slots);
  std::uint32_t i = 0;
  for (std::size_t j = 0; j < slots; ++j) {
    const double lo = static_cast<double>(j) / static_cast<double>(slots);
    while (i + 1 < cfg_.flows && flow_cdf_[i] <= lo) ++i;
    guide_[j] = i;
  }
}

Picos LoadGen::next_gap() {
  switch (cfg_.arrivals) {
    case ArrivalModel::Poisson: {
      // Inverse-CDF exponential; 1 - uniform() keeps the argument > 0.
      const double u = 1.0 - rng_.uniform();
      const double gap = -cfg_.mean_gap_ps * std::log(u);
      return std::max<Picos>(1, static_cast<Picos>(gap + 0.5));
    }
    case ArrivalModel::Burst: {
      const Picos tight = std::max<Picos>(
          1, static_cast<Picos>(cfg_.mean_gap_ps / 8.0 + 0.5));
      if (++burst_pos_ < cfg_.burst_frames) return tight;
      burst_pos_ = 0;
      // Compensating gap: a train of B frames must span B * mean on
      // average, so the trailing gap makes up what the tight gaps saved.
      const double span =
          cfg_.mean_gap_ps * static_cast<double>(cfg_.burst_frames);
      const double spent =
          static_cast<double>(tight) * static_cast<double>(cfg_.burst_frames - 1);
      return std::max<Picos>(1, static_cast<Picos>(span - spent + 0.5));
    }
  }
  return 1;
}

std::uint32_t LoadGen::next_flow() { return flow_for(rng_.uniform()); }

std::uint32_t LoadGen::flow_for(double u) const {
  // u * size is exact (a power-of-two scale), so j / size <= u and the
  // scan from guide_[j] ends at std::upper_bound(cdf, u), clamped to the
  // last flow.
  const auto j =
      static_cast<std::size_t>(u * static_cast<double>(guide_.size()));
  std::uint32_t i = guide_[j];
  while (i + 1 < cfg_.flows && flow_cdf_[i] <= u) ++i;
  return i;
}

std::uint64_t FlowTable::total_offered() const {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.offered;
  return n;
}

std::uint64_t FlowTable::total_delivered() const {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.delivered;
  return n;
}

std::uint64_t FlowTable::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.dropped;
  return n;
}

}  // namespace pcieb::core
