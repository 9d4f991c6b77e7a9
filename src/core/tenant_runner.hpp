// Multi-tenant benchmark driver: one closed-loop DMA workload per VF, all
// tenants running concurrently on one sim::System port.
//
// Each VF gets its own HostBuffer at a distinct IOVA base (no aliasing in
// caches or the IO-TLB) and a seed-perturbed copy of the shared
// BenchParams, and executes its ops strictly serially — op N+1 issues when
// op N completes — while the VFs interleave on the shared fabric. Per-op
// latency lands in a per-VF obs::Digest whose canonical serialization,
// together with System::counters_line, is the victim artifact
// the tenant chaos campaign compares byte-for-byte between
// attacker-armed and attacker-stripped runs (docs/ISOLATION.md).
//
// Reads complete at data delivery (dma_read's done). A posted write
// completes when its payload retires at the root complex — committed or
// accounted lost — which the serial op order makes unambiguous; a faulted
// write stream therefore terminates and reports lost goodput instead of
// hanging.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "obs/digest.hpp"
#include "sim/host_buffer.hpp"
#include "sim/system.hpp"

namespace pcieb::core {

/// One VF's outcome: measurement-phase digest + counters + goodput.
struct TenantResult {
  unsigned vf = 0;
  obs::Digest latency;        ///< per-op latency, picoseconds
  std::string counters;       ///< System::counters_line(vf)
  std::uint64_t ops = 0;      ///< measured ops (excludes warmup)
  std::uint64_t payload_bytes = 0;       ///< offered payload (measured ops)
  std::uint64_t lost_payload_bytes = 0;  ///< lost to faults in-phase
  Picos elapsed = 0;          ///< measurement-phase wall-clock
  double goodput_gbps = 0.0;  ///< delivered payload over elapsed
};

class TenantRunner {
 public:
  /// Prepares per-VF buffers and cache state. `params` applies to every
  /// tenant; each VF's address stream and buffer layout are perturbed by
  /// its index so tenants never share a reference pattern.
  TenantRunner(sim::System& system, const BenchParams& params);
  ~TenantRunner();  ///< detaches every VF's buffer from the system

  /// Run every tenant's workload to completion (one sim::run) and return
  /// one result per VF.
  std::vector<TenantResult> run();

  const sim::HostBuffer& buffer(unsigned vf) const { return *buffers_.at(vf); }

 private:
  sim::System& system_;
  BenchParams params_;
  std::vector<std::unique_ptr<sim::HostBuffer>> buffers_;
};

/// Convenience wrapper: construct + run.
std::vector<TenantResult> run_tenant_bench(sim::System& system,
                                           const BenchParams& params);

}  // namespace pcieb::core
