// The host memory path behind the root complex: LLC (with DDIO), DRAM
// channels per NUMA node, the socket interconnect, and the per-transaction
// jitter model. Produces the latency and contention behaviour the paper
// measures in §6.3 (caching/DDIO) and §6.4 (NUMA).
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"
#include "sim/cache.hpp"
#include "sim/jitter.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace pcieb::sim {

struct MemoryConfig {
  /// Data return from the LLC to the root complex.
  Picos llc_hit = from_nanos(40);
  /// Additional latency when the LLC misses and DRAM is accessed — the
  /// ~70 ns warm-vs-cold delta of §6.3.
  Picos dram_extra = from_nanos(70);
  /// Aggregate DRAM bandwidth of one node.
  double dram_gbps = 320.0;  // 40 GB/s
  /// Extra latency for requests that hit the remote node's cache (§6.4).
  Picos numa_hop = from_nanos(130);
  /// Extra latency for remote requests that miss to DRAM — smaller, since
  /// the directory lookup overlaps the interconnect transit; this is why
  /// the paper's cold-cache remote penalty (~10 %) is half the warm one.
  Picos numa_hop_miss = from_nanos(60);
  /// Socket interconnect bandwidth (QPI/UPI class).
  double interconnect_gbps = 160.0;  // 20 GB/s
  /// Flush of a dirty victim before a DDIO allocation can complete.
  Picos flush_penalty = from_nanos(70);
  /// Uncore ingest ceiling for inbound DMA writes. Effectively unbounded
  /// on Xeon E5 parts; the Xeon E3 profile sets it below 40 Gb/s, which is
  /// why that system never sustains 40GbE writes (§6.2).
  double write_ingest_gbps = 800.0;
  /// Machine-wide stall events (the suspected power-management events of
  /// §6.2): a Poisson process in *time* — not per transaction — that
  /// pauses the whole memory path for a uniformly drawn duration. They
  /// produce the E3's millisecond-scale latency excursions (Fig 6) while
  /// costing well under 1 % of aggregate throughput, which is why the
  /// E3's read bandwidth still matches the E5 for large transfers.
  /// stall_interval == 0 disables the mechanism (all E5 profiles).
  Picos stall_interval = 0;  ///< mean time between events
  Picos stall_min = from_millis(1.0);
  Picos stall_max = from_millis(5.3);
  /// Read-side pipeline between root complex and LLC/DRAM.
  double read_pipeline_gbps = 400.0;
};

class MemorySystem {
 public:
  MemorySystem(Simulator& sim, const CacheConfig& cache_cfg,
               const MemoryConfig& mem_cfg, const JitterModel& jitter,
               std::uint64_t seed);

  /// Fetch [addr, addr+len) for a DMA read. `local` selects whether the
  /// backing memory is on the device's node. `done` runs when the data is
  /// available at the root complex. `done` is forwarded straight into the
  /// event engine's inline storage — no std::function is built.
  template <typename F>
  void fetch(std::uint64_t addr, std::uint32_t len, bool local, F&& done) {
    sim_.at(fetch_ready(addr, len, local), std::forward<F>(done));
  }

  /// Commit a DMA write (DDIO allocation policy). `done` runs when the
  /// write is globally visible (the ordering point for later reads).
  template <typename F>
  void write(std::uint64_t addr, std::uint32_t len, bool local, F&& done) {
    sim_.at(write_ready(addr, len, local), std::forward<F>(done));
  }

  LastLevelCache& cache() { return cache_; }
  const MemoryConfig& config() const { return mem_cfg_; }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

  /// Stable addresses of the monotonic totals, for obs::CounterRegistry's
  /// raw readers. Valid for the memory system's lifetime.
  struct CounterSources {
    const std::uint64_t* reads;
    const std::uint64_t* writes;
  };
  CounterSources counter_sources() const { return {&reads_, &writes_}; }

  /// Attach tracing (nullptr detaches).
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

 private:
  /// Advance the cache/bandwidth/jitter state for one access and return
  /// the completion time (all the work of fetch/write minus scheduling).
  Picos fetch_ready(std::uint64_t addr, std::uint32_t len, bool local);
  Picos write_ready(std::uint64_t addr, std::uint32_t len, bool local);

  Simulator& sim_;
  MemoryConfig mem_cfg_;
  LastLevelCache cache_;
  BandwidthResource dram_;
  BandwidthResource remote_dram_;
  BandwidthResource interconnect_;
  BandwidthResource write_ingest_;
  BandwidthResource read_pipeline_;
  /// Returns the time until which the memory path is stalled, advancing
  /// the lazily evaluated stall schedule first.
  Picos stall_gate();

  unsigned line_shift_ = 0;  ///< log2(cache line) for addr→line splits
  JitterModel jitter_;
  Xoshiro256 rng_;
  obs::TraceSink* trace_ = nullptr;
  Picos stall_until_ = 0;
  Picos next_stall_at_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace pcieb::sim
