// Open-loop traffic generation for overload experiments.
//
// A LoadGen produces an arrival *schedule* — inter-arrival gaps and a
// Zipf-weighted flow identity per frame — that is independent of what the
// consumer manages to complete. That open-loop property is the whole
// point: a closed-loop benchmark (core/runner, nic/nic_sim driven at line
// rate with a saturating driver) measures capacity, while an open-loop
// generator driven *past* capacity measures how the system degrades —
// drops, backlog growth, livelock (docs/OVERLOAD.md).
//
// Determinism: gaps and flow picks come from one Xoshiro256 stream seeded
// by the config, so a (seed, rate) pair replays the identical arrival
// schedule anywhere — chaos trials built on a LoadGen stay pure functions
// of (master_seed, index).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace pcieb::core {

/// Arrival process shapes. Poisson models aggregated independent senders
/// (exponential gaps); Burst models a small number of senders emitting
/// back-to-back trains with compensating idle gaps — same mean rate,
/// maximally different instantaneous pressure on the RX freelist.
enum class ArrivalModel : std::uint8_t { Poisson, Burst };
const char* to_string(ArrivalModel m);

struct LoadGenConfig {
  ArrivalModel arrivals = ArrivalModel::Poisson;
  /// Mean inter-arrival gap (picoseconds); 1/gap is the offered rate.
  double mean_gap_ps = 1000.0;
  /// Frames per train in Burst mode (>= 1).
  std::uint32_t burst_frames = 16;
  /// Flow population for next_flow(); weights follow Zipf(zipf_s), so a
  /// handful of elephant flows dominate while a long tail of mice keeps
  /// per-flow state churning (flow 0 is the heaviest).
  std::uint32_t flows = 64;
  double zipf_s = 1.1;
  std::uint64_t seed = 42;
};

class LoadGen {
 public:
  explicit LoadGen(const LoadGenConfig& cfg);

  /// Gap to the next arrival (>= 1 ps). Poisson draws an exponential;
  /// Burst emits burst_frames tight gaps (mean/8) then one compensating
  /// long gap, preserving the configured mean rate exactly.
  Picos next_gap();

  /// Zipf-weighted flow identity for the next frame: flow_for(uniform).
  std::uint32_t next_flow();

  /// The flow a uniform draw u maps to: the first flow whose cumulative
  /// weight exceeds u (std::upper_bound over the CDF). Requires u in
  /// [0, 1), the range of Xoshiro256::uniform().
  std::uint32_t flow_for(double u) const;

  const LoadGenConfig& config() const { return cfg_; }

 private:
  LoadGenConfig cfg_;
  Xoshiro256 rng_;
  std::vector<double> flow_cdf_;  ///< cumulative normalized Zipf weights
  /// guide_[j] = first index i with flow_cdf_[i] > j / guide_.size():
  /// next_flow's scan for u starts at guide_[floor(u * size)].
  std::vector<std::uint32_t> guide_;
  std::uint32_t burst_pos_ = 0;
};

/// Per-flow frame accounting: a second conservation axis for the overload
/// monitors — summed per-flow tallies must equal the aggregate counters.
struct FlowStats {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

class FlowTable {
 public:
  explicit FlowTable(std::uint32_t flows) : stats_(flows) {}

  void offered(std::uint32_t flow) { ++stats_.at(flow).offered; }
  void delivered(std::uint32_t flow) { ++stats_.at(flow).delivered; }
  void dropped(std::uint32_t flow) { ++stats_.at(flow).dropped; }

  const std::vector<FlowStats>& stats() const { return stats_; }
  std::uint64_t total_offered() const;
  std::uint64_t total_delivered() const;
  std::uint64_t total_dropped() const;

 private:
  std::vector<FlowStats> stats_;
};

}  // namespace pcieb::core
