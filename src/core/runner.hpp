// Benchmark execution: drives a simulated System through the pcie-bench
// micro-benchmarks (§4.1 latency, §4.2 bandwidth) and collects results.
//
// Latency runs are strictly serial — one transaction at a time, as the
// NFP/NetFPGA firmware does — with per-transaction timestamps quantized to
// the device's counter resolution. Bandwidth runs emulate the NFP's
// worker-thread scheme: a pool of logical workers each keeps one DMA in
// flight and decrements a shared counter, which saturates the engine's
// tags/credits exactly the way the firmware's 12 cores x 8 threads do.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/params.hpp"
#include "sim/host_buffer.hpp"
#include "sim/system.hpp"

namespace pcieb::core {

struct LatencyResult {
  BenchParams params;
  SampleSet samples_ns;
  LatencySummary summary;
};

struct BandwidthResult {
  BenchParams params;
  std::uint64_t payload_bytes = 0;  ///< offered payload (measurement phase)
  Picos elapsed = 0;
  double gbps = 0.0;  ///< offered payload rate (legacy headline number)
  double mtps = 0.0;  ///< millions of DMA transactions per second

  // Fault accounting (all zero on a fault-free run, where goodput == gbps).
  std::uint64_t lost_payload_bytes = 0;  ///< dropped writes + failed reads
  std::uint64_t wire_bytes = 0;  ///< link bytes moved, incl. headers/replays
  double goodput_gbps = 0.0;     ///< payload actually delivered
  double wire_gbps = 0.0;        ///< wire rate on the payload direction(s)

  /// Delivered-payload rate split around the recovery ladder's activity:
  /// `before` covers measurement start up to the first transition out of
  /// full health, `during` covers the ladder's active window (to the last
  /// Operational/Quarantined verdict, or run end if it never converged
  /// in-phase), `after` the remainder. Present only when a recovery
  /// policy was armed AND the ladder transitioned during the measurement
  /// phase.
  struct RecoveryPhases {
    Picos first_activation = 0;  ///< absolute sim time of first transition
    Picos last_recovery = 0;     ///< absolute sim time closing `during`
    double before_gbps = 0.0;
    double during_gbps = 0.0;
    double after_gbps = 0.0;
    std::string final_state;     ///< recovery state at run end
    std::uint64_t transitions = 0;  ///< ladder transitions in-phase
  };
  std::optional<RecoveryPhases> recovery;
};

/// Number of logical DMA workers for bandwidth runs (NFP firmware uses
/// 12 cores x 8 threads = 96).
constexpr unsigned kBandwidthWorkers = 96;

class BenchRunner {
 public:
  /// The runner prepares cache/IOMMU state per `params` before measuring;
  /// the system's simulator must be idle.
  BenchRunner(sim::System& system, const BenchParams& params);
  ~BenchRunner();  ///< detaches the buffer from the system
  BenchRunner(const BenchRunner&) = delete;
  BenchRunner& operator=(const BenchRunner&) = delete;

  LatencyResult run_latency();
  BandwidthResult run_bandwidth();

  const sim::HostBuffer& buffer() const { return buffer_; }

 private:
  void prepare_state();
  Picos quantize(Picos t) const;
  /// Emit a BenchPhase trace marker (0 = warmup, 1 = measurement start)
  /// when the system has a trace sink attached.
  void mark_phase(std::uint8_t phase) const;

  sim::System& system_;
  BenchParams params_;
  sim::HostBuffer buffer_;
};

/// Convenience: build a fresh runner and dispatch on params.kind.
LatencyResult run_latency_bench(sim::System& system, const BenchParams& p);
BandwidthResult run_bandwidth_bench(sim::System& system, const BenchParams& p);

}  // namespace pcieb::core
