// Benchmark execution: drives a simulated System through the pcie-bench
// micro-benchmarks (§4.1 latency, §4.2 bandwidth) and collects results.
//
// Latency runs are strictly serial — one transaction at a time, as the
// NFP/NetFPGA firmware does — with per-transaction timestamps quantized to
// the device's counter resolution. Bandwidth runs emulate the NFP's
// worker-thread scheme: a pool of logical workers each keeps one DMA in
// flight and decrements a shared counter, which saturates the engine's
// tags/credits exactly the way the firmware's 12 cores x 8 threads do.
//
// A per-function run (run_tenant_bench) drives every PCIe function at
// once, each over its own buffer with the latency runs' serial loop,
// whatever the kind; a posted write's op ends when its payload retires,
// committed or dropped. Each function's digest and counters_line are
// tenant chaos's victim artifact (docs/ISOLATION.md).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/params.hpp"
#include "obs/digest.hpp"
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

/// One function's outcome of a per-function run: measurement-phase digest,
/// counters and goodput.
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

/// Number of logical DMA workers for bandwidth runs (NFP firmware uses
/// 12 cores x 8 threads = 96).
constexpr unsigned kBandwidthWorkers = 96;

class BenchRunner {
 public:
  /// Drives function 0 alone. The runner prepares cache/IOMMU state per
  /// `params` before measuring; the system's simulator must be idle.
  BenchRunner(sim::System& system, const BenchParams& params);
  /// Drives every function of `system`, each over its own buffer at a
  /// distinct IOVA base and with its buffer and address stream seeded
  /// apart, so functions never share a reference pattern.
  static BenchRunner per_function(sim::System& system,
                                  const BenchParams& params);
  ~BenchRunner();  ///< detaches every buffer it attached
  BenchRunner(const BenchRunner&) = delete;
  BenchRunner& operator=(const BenchRunner&) = delete;

  /// Function 0's serial latency run.
  LatencyResult run_latency();
  /// Function 0's worker-pool bandwidth run.
  BandwidthResult run_bandwidth();
  /// Every driven function's serial stream to completion (one sim::run),
  /// one result per function.
  std::vector<TenantResult> run_tenants();

  const sim::HostBuffer& buffer(unsigned f = 0) const {
    return targets_.at(f).buffer;
  }

 private:
  /// A driven function's buffer, and the params of its address stream.
  struct Target {
    sim::HostBuffer buffer;
    BenchParams params;
  };
  struct Stream;

  BenchRunner(sim::System& system, const BenchParams& params,
              bool per_function);
  void prepare_state();
  /// The serial loop over functions 0..functions-1: `sample` gets each
  /// measured op's quantized latency, `measuring` (if set) fires when a
  /// function's measurement phase starts.
  std::vector<Stream> run_serial(
      unsigned functions, const std::function<void(unsigned, Picos)>& sample,
      const std::function<void()>& measuring);
  /// Emit a BenchPhase trace marker (0 = warmup, 1 = measurement start)
  /// when the system has a trace sink attached.
  void mark_phase(std::uint8_t phase) const;

  sim::System& system_;
  BenchParams params_;
  std::vector<Target> targets_;  ///< one per driven function, in order
};

/// Convenience: build a fresh runner and dispatch on params.kind.
LatencyResult run_latency_bench(sim::System& system, const BenchParams& p);
BandwidthResult run_bandwidth_bench(sim::System& system, const BenchParams& p);
/// Convenience: BenchRunner::per_function(system, params).run_tenants().
std::vector<TenantResult> run_tenant_bench(sim::System& system,
                                           const BenchParams& params);

}  // namespace pcieb::core
