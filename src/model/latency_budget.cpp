#include "model/latency_budget.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "pcie/bandwidth.hpp"
#include "pcie/packetizer.hpp"
#include "pcie/tlp.hpp"

namespace pcieb::model {

double inter_packet_time_ns(double wire_gbps, std::uint32_t frame_bytes) {
  if (wire_gbps <= 0.0 || frame_bytes == 0) {
    throw std::invalid_argument("inter_packet_time_ns: invalid arguments");
  }
  const double wire_bytes =
      static_cast<double>(frame_bytes + proto::kEthernetWireOverhead);
  return wire_bytes * 8.0 / wire_gbps;
}

unsigned required_inflight_dmas(double dma_latency_ns, double wire_gbps,
                                std::uint32_t frame_bytes) {
  const double ipt = inter_packet_time_ns(wire_gbps, frame_bytes);
  return std::max(1u, static_cast<unsigned>(std::ceil(dma_latency_ns / ipt)));
}

double cycle_budget_per_dma(double wire_gbps, std::uint32_t frame_bytes,
                            unsigned engines, double clock_ghz) {
  if (engines == 0 || clock_ghz <= 0.0) {
    throw std::invalid_argument("cycle_budget_per_dma: invalid arguments");
  }
  const double ipt = inter_packet_time_ns(wire_gbps, frame_bytes);
  return ipt * static_cast<double>(engines) * clock_ghz;
}

double ReadStageBudget::total_ns() const {
  return device_issue_ns + link_up_ns + rc_pipeline_ns + iommu_ns +
         order_wait_ns + memory_llc_ns + memory_dram_ns + link_down_ns +
         device_done_ns;
}

ReadStageBudget dma_read_stage_budget(const StageBudgetInputs& in,
                                      std::uint64_t addr, std::uint32_t size) {
  if (size == 0) {
    throw std::invalid_argument("dma_read_stage_budget: zero size");
  }
  proto::TlpVec tlps;
  proto::segment_read_requests(in.link, addr, size, tlps);
  if (tlps.size() != 1) {
    throw std::invalid_argument(
        "dma_read_stage_budget: size must fit one read request "
        "(<= MRRS, no 4 KB crossing)");
  }
  const double rate = in.link.tlp_gbps();

  // Stage times are computed in integer picoseconds with the exact same
  // helpers the simulator uses, so the prediction reproduces its rounding.
  ReadStageBudget b;
  b.device_issue_ns =
      to_nanos(from_nanos(in.device_front_ns) + from_nanos(in.issue_interval_ns));
  b.link_up_ns = to_nanos(serialization_ps(tlps[0].wire_bytes(in.link), rate) +
                          from_nanos(in.up_propagation_ns));
  b.rc_pipeline_ns = to_nanos(from_nanos(in.rc_pipeline_ns));
  b.iommu_ns = to_nanos(from_nanos(in.iommu_walk_ns));
  b.order_wait_ns = 0.0;

  // Memory fetch: ready = max(llc_hit, read-pipeline transfer), plus the
  // DRAM leg when the fetch is expected to miss. A miss attributes the
  // whole span to the DRAM stage, matching obs::LatencyBreakdown.
  Picos fetch = from_nanos(in.llc_hit_ns);
  if (in.read_pipeline_gbps > 0.0) {
    fetch = std::max(fetch, serialization_ps(size, in.read_pipeline_gbps));
  }
  if (in.expect_llc_miss) {
    const unsigned line = in.cache_line_bytes ? in.cache_line_bytes : 64;
    const std::uint64_t first = addr / line;
    const std::uint64_t last = (addr + size - 1) / line;
    const std::uint64_t miss_bytes = (last - first + 1) * line;
    if (in.dram_gbps > 0.0) {
      fetch = std::max(fetch, serialization_ps(miss_bytes, in.dram_gbps));
    }
    fetch += from_nanos(in.dram_extra_ns);
    b.memory_dram_ns = to_nanos(fetch);
  } else {
    b.memory_llc_ns = to_nanos(fetch);
  }

  // Completions stream back-to-back down the wire; the last one's arrival
  // closes the link-down stage.
  Picos down_ser = 0;
  proto::segment_completions(in.link, addr, size, tlps);
  for (const proto::Tlp& cpl : tlps) {
    down_ser += serialization_ps(cpl.wire_bytes(in.link), rate);
  }
  b.link_down_ns = to_nanos(down_ser + from_nanos(in.down_propagation_ns));

  Picos tail = from_nanos(in.completion_fixed_ns);
  if (in.staging_gbps > 0.0) {
    tail += from_nanos(in.staging_base_ns) +
            serialization_ps(size, in.staging_gbps);
  }
  b.device_done_ns = to_nanos(tail);
  return b;
}

}  // namespace pcieb::model
