// Open-loop RX overload datapath: what happens when the wire offers more
// frames than the PCIe/NIC path can sink (docs/OVERLOAD.md).
//
// The closed-loop NIC models (nic/nic_sim) measure capacity — the driver
// only offers work the rings can hold. This runner inverts the contract:
// a core::LoadGen keeps offering frames at a configured multiple of the
// measured capacity regardless of completions, and every offered frame is
// accounted to exactly one terminal state:
//
//   delivered            host service completed the frame
//   dropped at the MAC   backpressure armed but the pause budget could
//                        not protect the freelist (PAUSE exhausted)
//   dropped at the ring  RX freelist exhausted, no backpressure (the
//                        classic rx_no_buffer NIC drop)
//   dropped by admission host backlog over the tail-drop threshold (the
//                        frame crossed PCIe, then the driver refused it)
//
// Frames that did get a freelist buffer traverse the real simulated PCIe
// path (descriptor fetch DMA reads, packet DMA writes, write-back and MSI
// DMAs, MMIO doorbells), so overload composes with fault plans, recovery
// and the PCIe-level invariant monitors. Host service runs in one of two
// models — BusyPoll (continuous polling, no interrupt cost) or Coalesce
// (IRQ moderation with a per-interrupt wakeup cost) — which is exactly
// where receive-livelock vs graceful-drop behaviour diverges.
//
// check::OverloadMonitorSuite consumes the OverloadProbe hooks to prove
// frame-accounting conservation, forward progress under saturation and
// bounded occupancy; `test_livelock_bug` plants a broken-moderation IRQ
// storm so the forward-progress monitor has a known bug to catch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/loadgen.hpp"
#include "obs/counters.hpp"
#include "obs/digest.hpp"
#include "sim/system.hpp"

namespace pcieb::nic {

/// Host service model for received frames.
enum class ServiceMode : std::uint8_t {
  BusyPoll,  ///< host polls continuously; no interrupts, no wakeup cost
  Coalesce,  ///< MSI per kIrqModeration frames; kIrqCost per wakeup
};
const char* to_string(ServiceMode m);
/// "poll" | "coalesce"; throws std::invalid_argument otherwise.
ServiceMode parse_service_mode(const std::string& s);

struct OverloadConfig {
  // ---- datapath: the ring engine's RX freelist (nic/ring.hpp) ----
  std::uint32_t frame_bytes = 256;
  std::uint32_t ring_slots = 512;
  static constexpr std::uint32_t kDescBatch = 32;     ///< per fetch DMA
  static constexpr std::uint32_t kWbBatch = 4;        ///< per write-back DMA
  static constexpr std::uint32_t kDoorbellBatch = 8;  ///< per MMIO doorbell

  // ---- host service ----
  ServiceMode service = ServiceMode::BusyPoll;
  static constexpr std::uint32_t kIrqModeration = 16;     ///< frames per MSI
  static constexpr Picos kIrqCost = from_nanos(1500);     ///< per wakeup
  static constexpr Picos kHostService = from_nanos(150);  ///< per frame

  // ---- MAC-level backpressure (PAUSE) ----
  bool backpressure = false;
  /// Assert PAUSE when resident freelist credits fall below this.
  static constexpr std::uint32_t kPauseThreshold = 16;
  /// One PAUSE assertion lasts this many frame wire times.
  static constexpr std::uint32_t kPauseQuantumFrames = 8;
  /// Cumulative PAUSE cap: beyond it the sender can no longer be held
  /// off and overrun frames die at the MAC (bounded-occupancy monitor
  /// checks pause time never exceeds this).
  Picos pause_budget = from_micros(500);

  // ---- per-queue admission control ----
  /// Host-backlog tail-drop threshold; 0 disables admission control.
  std::uint32_t admission_slots = 0;

  // ---- open-loop load ----
  /// Offered load as a multiple of capacity_pps (0.5 - 4 in the paper's
  /// hockey-stick sweeps).
  double offered_load = 2.0;
  std::uint64_t frames = 20000;  ///< offered frames per run
  /// Sustainable delivered rate (frames/s) measured by
  /// calibrate_capacity(); run_overload requires it to be set.
  std::uint64_t capacity_pps = 0;
  core::ArrivalModel arrivals = core::ArrivalModel::Poisson;
  std::uint32_t burst_frames = 16;
  std::uint32_t flows = 64;
  double zipf_s = 1.1;
  std::uint64_t seed = 42;

  /// Monitor-epoch granularity: the OverloadProbe on_epoch hook fires
  /// every this many arrivals while load is sustained.
  static constexpr std::uint32_t kEpochArrivals = 256;

  /// TEST-ONLY: break IRQ moderation (every frame raises an MSI and each
  /// interrupt postpones in-progress service by kIrqCost) — a receive
  /// livelock the forward-progress monitor demonstrably catches.
  bool test_livelock_bug = false;

  void validate() const;  ///< throws std::invalid_argument on bad knobs
};

/// Frame-accounting ledger, updated as the run progresses. At all times
///   offered == delivered + dropped_mac + dropped_ring
///             + dropped_admission + in_flight()
/// and at quiesce in_flight() == 0 — the conservation invariant the
/// overload monitors enforce (no silent loss).
struct OverloadStats {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_mac = 0;
  std::uint64_t dropped_ring = 0;
  std::uint64_t dropped_admission = 0;

  std::uint64_t dma_inflight = 0;  ///< credit consumed, DMA not complete
  std::uint64_t backlog = 0;       ///< awaiting host service
  std::uint64_t in_service = 0;    ///< popped, service timer pending

  std::uint64_t pause_events = 0;
  Picos pause_ps = 0;              ///< total PAUSE time asserted
  std::uint64_t irqs = 0;          ///< MSIs raised (Coalesce)

  // Occupancy high-watermarks for the bounded-occupancy monitor.
  std::uint32_t ring_slots = 0;
  std::uint32_t ring_max_pending = 0;
  std::uint32_t creds_max = 0;     ///< resident freelist credits peak
  std::uint64_t backlog_max = 0;
  std::uint32_t admission_slots = 0;
  Picos pause_budget = 0;

  std::uint64_t in_flight() const {
    return dma_inflight + backlog + in_service;
  }
  std::uint64_t dropped_total() const {
    return dropped_mac + dropped_ring + dropped_admission;
  }
};

/// Observer hooks for the overload monitors. `on_epoch` fires every
/// kEpochArrivals arrivals while the offered load is sustained;
/// `on_quiesce` fires once after the event queue drains.
struct OverloadProbe {
  std::function<void(const OverloadStats&, Picos)> on_epoch;
  std::function<void(const OverloadStats&, const std::vector<core::FlowStats>&,
                     Picos)>
      on_quiesce;
};

struct OverloadResult {
  OverloadStats stats;
  std::uint64_t capacity_pps = 0;   ///< what the run was scaled against
  double offered_pps = 0.0;
  double goodput_pps = 0.0;
  double goodput_gbps = 0.0;
  Picos elapsed = 0;                ///< first arrival -> quiesce
  obs::Digest latency;              ///< arrival -> service completion (ps)
  std::vector<core::FlowStats> flows;

  /// Canonical integer-only one-liner ("offered=N delivered=N ..."),
  /// journal-carried by chaos records so resumed campaigns summarize
  /// byte-identically.
  std::string ledger() const;
};

/// Register the run's frame counters ("nic.overload.offered", ...) on a
/// CounterRegistry snapshotting `result` (docs/OBSERVABILITY.md).
void register_overload_counters(obs::CounterRegistry& reg,
                                const OverloadResult& result);

/// Measure sustainable capacity (delivered frames/s) of `sys_cfg`'s PCIe
/// path under this datapath configuration: the same RX pipeline run
/// closed-loop (line-rate arrivals throttled by an unbounded PAUSE), so
/// nothing drops and the delivered rate IS the capacity. Deterministic
/// pure function of (sys_cfg, cfg).
std::uint64_t calibrate_capacity(const sim::SystemConfig& sys_cfg,
                                 const OverloadConfig& cfg);

/// Run the open-loop overload datapath on `system`. Requires
/// cfg.capacity_pps > 0 (from calibrate_capacity). Frames traverse the
/// real simulated PCIe path; `probe` (optional) feeds the overload
/// monitors. Throws std::invalid_argument on bad config.
OverloadResult run_overload(sim::System& system, const OverloadConfig& cfg,
                            const OverloadProbe* probe = nullptr);

/// Convenience point-runner: calibrate on a fresh fault-free System, then
/// run the overload on a second fresh System built from `sys_cfg` as
/// given (fault plan / recovery included).
OverloadResult run_overload_point(const sim::SystemConfig& sys_cfg,
                                  const OverloadConfig& cfg,
                                  const OverloadProbe* probe = nullptr);

}  // namespace pcieb::nic
