// Discrete-event NIC simulation over the PCIe substrate.
//
// Runs a full descriptor-ring TX/RX datapath — doorbells, descriptor
// fetches, packet DMA, descriptor write-backs, interrupts, driver
// replenishment — against the simulated link/root complex, under
// saturating bidirectional load. This validates the §3 analytic
// interaction models (Fig 1) against an executable implementation: the
// same batching knobs produce the same goodput curves, and RX drops
// appear when the freelist starves, exactly the failure mode the paper's
// "Simple NIC" suffers at small frame sizes.
#pragma once

#include <cstdint>

#include "sim/system.hpp"

namespace pcieb::nic {

struct NicSimConfig {
  /// Slots in each of the TX ring and the RX freelist.
  static constexpr std::uint32_t kRingSlots = 512;

  std::uint32_t frame_bytes = 256;

  unsigned desc_batch = 32;      ///< descriptors per fetch DMA
  unsigned tx_wb_batch = 8;      ///< TX descriptors per write-back DMA
  unsigned rx_wb_batch = 4;      ///< RX descriptors per write-back DMA
  unsigned doorbell_batch = 8;   ///< packets per tail-pointer doorbell
  unsigned irq_moderation = 0;   ///< packets per interrupt; 0 = poll mode
  bool mmio_status_reads = false;///< kernel driver reads a register per IRQ

  std::uint64_t packets = 20000; ///< per direction

  /// Presets mirroring the Fig 1 models.
  static NicSimConfig simple();
  static NicSimConfig modern_kernel();
  static NicSimConfig modern_dpdk();

  void validate() const;  ///< throws std::invalid_argument on bad knobs
};

struct NicSimResult {
  double tx_goodput_gbps = 0.0;  ///< payload rate achieved, host -> wire
  double rx_goodput_gbps = 0.0;  ///< payload rate achieved, wire -> host
  double tx_pps = 0.0;
  double rx_pps = 0.0;
  std::uint64_t rx_dropped = 0;  ///< arrivals lost to freelist starvation
  /// Ring occupancy high-watermarks — how close the descriptor protocol
  /// came to its structural bound (== ring_slots when the NIC consumed a
  /// full ring's worth before the driver caught up).
  std::uint32_t tx_ring_max_pending = 0;
  std::uint32_t rx_ring_max_pending = 0;
  /// min(tx, rx): the symmetric per-direction goodput comparable with
  /// model::bidirectional_goodput_gbps.
  double per_direction_goodput_gbps = 0.0;
};

/// Throws std::invalid_argument (cfg.validate()) before touching `system`.
NicSimResult run_nic_sim(sim::System& system, const NicSimConfig& cfg);

}  // namespace pcieb::nic
