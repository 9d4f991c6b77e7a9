#include "sim/memory_system.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace pcieb::sim {

Picos MemorySystem::stall_gate() {
  if (mem_cfg_.stall_interval <= 0) return 0;
  const Picos now = sim_.now();
  if (now >= next_stall_at_) {
    // An event is due: pause the memory path for a drawn duration. The
    // lazy evaluation keeps the event queue clean and the run terminating.
    const Picos span = mem_cfg_.stall_max - mem_cfg_.stall_min;
    const Picos duration =
        mem_cfg_.stall_min +
        static_cast<Picos>(rng_.uniform() * static_cast<double>(span));
    stall_until_ = std::max(stall_until_, now + duration);
    // Exponential inter-arrival, inverted from a uniform draw.
    const double u = std::max(rng_.uniform(), 1e-12);
    next_stall_at_ =
        now + static_cast<Picos>(-std::log(u) *
                                 static_cast<double>(mem_cfg_.stall_interval));
  }
  return stall_until_;
}

MemorySystem::MemorySystem(Simulator& sim, const CacheConfig& cache_cfg,
                           const MemoryConfig& mem_cfg,
                           const JitterModel& jitter, std::uint64_t seed)
    : sim_(sim),
      mem_cfg_(mem_cfg),
      cache_(cache_cfg),
      dram_(sim, mem_cfg.dram_gbps),
      remote_dram_(sim, mem_cfg.dram_gbps),
      interconnect_(sim, mem_cfg.interconnect_gbps),
      write_ingest_(sim, mem_cfg.write_ingest_gbps),
      read_pipeline_(sim, mem_cfg.read_pipeline_gbps),
      line_shift_(static_cast<unsigned>(std::countr_zero(
          static_cast<std::uint64_t>(cache_.config().line_bytes)))),
      jitter_(jitter),
      rng_(seed) {
  if (mem_cfg_.stall_interval > 0) {
    const double u = std::max(rng_.uniform(), 1e-12);
    next_stall_at_ = static_cast<Picos>(
        -std::log(u) * static_cast<double>(mem_cfg_.stall_interval));
  } else {
    next_stall_at_ = std::numeric_limits<Picos>::max();
  }
}

Picos MemorySystem::fetch_ready(std::uint64_t addr, std::uint32_t len,
                                bool local) {
  ++reads_;
  // Line size is a power of two (validated by the cache), so the
  // addr→line splits are shifts, not divisions.
  const unsigned line = cache_.config().line_bytes;
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + len - 1) >> line_shift_;
  std::uint32_t miss_bytes = 0;
  for (std::uint64_t l = first; l <= last; ++l) {
    // PCIe reads are serviced from the LLC when resident but do not
    // allocate on miss (Fig 7a: cold-read latency is flat in window size).
    if (!cache_.read_probe(l << line_shift_)) miss_bytes += line;
  }

  const Picos started = sim_.now();
  if (trace_) {
    trace_->record({started, 0, addr, 0, miss_bytes,
                    obs::EventKind::LlcLookup, obs::Component::Memory,
                    static_cast<std::uint8_t>(miss_bytes > 0 ? 1 : 0)});
  }
  Picos ready = sim_.now() + mem_cfg_.llc_hit + jitter_.sample(rng_);
  ready = std::max(ready, stall_gate());
  ready = std::max(ready, read_pipeline_.transfer(len));
  if (!local) {
    // Remote node: the interconnect carries the data and adds a hop.
    const Picos t_ic = interconnect_.transfer(len);
    const Picos hop =
        miss_bytes > 0 ? mem_cfg_.numa_hop_miss : mem_cfg_.numa_hop;
    ready = std::max(ready, t_ic) + hop;
  }
  if (miss_bytes > 0) {
    BandwidthResource& mem = local ? dram_ : remote_dram_;
    const Picos t_dram = mem.transfer(miss_bytes);
    const Picos dram_done = std::max(ready, t_dram) + mem_cfg_.dram_extra;
    if (trace_) {
      trace_->record({ready, dram_done - ready, addr, 0, miss_bytes,
                      obs::EventKind::DramRead, obs::Component::Memory, 0});
    }
    ready = dram_done;
  }
  if (trace_) {
    trace_->record({started, ready - started, addr, 0, len,
                    obs::EventKind::MemRead, obs::Component::Memory,
                    static_cast<std::uint8_t>(miss_bytes > 0 ? 1 : 0)});
  }
  return ready;
}

Picos MemorySystem::write_ready(std::uint64_t addr, std::uint32_t len,
                                bool local) {
  ++writes_;
  const unsigned line = cache_.config().line_bytes;
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + len - 1) >> line_shift_;
  std::uint32_t flushed_bytes = 0;
  for (std::uint64_t l = first; l <= last; ++l) {
    // DDIO: inbound writes always land in the (local) LLC regardless of
    // buffer locality — the paper's §6.4 observation that write
    // throughput is NUMA-insensitive.
    if (cache_.write_allocate(l << line_shift_) ==
        LastLevelCache::WriteOutcome::AllocatedDirty) {
      flushed_bytes += line;
    }
  }

  const Picos started = sim_.now();
  Picos ready = sim_.now() + mem_cfg_.llc_hit;
  ready = std::max(ready, write_ingest_.transfer(len));
  if (flushed_bytes > 0) {
    // Dirty victims must be flushed to their home node before the
    // allocation completes (§6.3's +70 ns beyond the DDIO quota).
    BandwidthResource& mem = local ? dram_ : remote_dram_;
    mem.transfer(flushed_bytes);
    ready += mem_cfg_.flush_penalty;
  }
  if (trace_) {
    trace_->record({started, ready - started, addr, 0, len,
                    obs::EventKind::MemWrite, obs::Component::Memory,
                    static_cast<std::uint8_t>(flushed_bytes > 0 ? 1 : 0)});
  }
  return ready;
}

}  // namespace pcieb::sim
