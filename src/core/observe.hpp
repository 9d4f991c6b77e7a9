// Observability bundle for benchmark runs.
//
// ObsSession wires the obs/ subsystem into a sim::System for the duration
// of one or more benchmark runs: a TraceSink capturing per-TLP lifecycle
// events, the CounterRegistry over every component's counters, and (for
// latency runs) a live LatencyBreakdown attributing each serial DMA read's
// wall time to pipeline stages. Detaches everything on destruction, so the
// system is back to zero-overhead operation afterwards.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/params.hpp"
#include "model/latency_budget.hpp"
#include "obs/counters.hpp"
#include "obs/latency_breakdown.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/system.hpp"

namespace pcieb::core {

class ObsSession {
 public:
  struct Options {
    bool trace = false;      ///< capture events for Chrome-JSON export
    bool breakdown = false;  ///< attribute latency stages live
    bool telemetry = false;  ///< stream counter deltas per sim interval
    Picos telemetry_interval_ps = 1'000'000;  ///< sampling cadence (1 us)
  };

  /// Trace ring size (events).
  static constexpr std::size_t kTraceCapacity = 1 << 16;

  /// Attaches to `system`; counters are always registered (they read the
  /// components' existing tallies and cost nothing until sampled), the
  /// trace sink only when `trace` or `breakdown` asks for events.
  ObsSession(sim::System& system, const Options& opts);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Null when neither tracing nor breakdown was requested.
  obs::TraceSink* sink() { return sink_.get(); }
  obs::CounterRegistry& counters() { return counters_; }
  /// Null when telemetry was not requested.
  obs::TimeSeries* telemetry() { return series_.get(); }
  const obs::TimeSeries* telemetry() const { return series_.get(); }

  /// Close the partial tail interval at the system's current sim time.
  /// Idempotent; called automatically before telemetry export.
  void finish_telemetry();

  void write_trace_json(const std::string& path) const;
  obs::BreakdownReport breakdown_report() const;
  /// Null breakdown -> empty set.
  obs::DigestSet stage_digests() const;

 private:
  sim::System& system_;
  obs::CounterRegistry counters_;
  std::unique_ptr<obs::TraceSink> sink_;
  std::unique_ptr<obs::LatencyBreakdown> breakdown_;
  std::unique_ptr<obs::TimeSeries> series_;
  bool sample_hook_set_ = false;
};

/// Map a system configuration plus bench parameters onto the model's
/// stage-budget inputs. Assumes the steady state the latency benchmarks
/// settle into: IO-TLB hits (warm window), LLC hits unless the cache state
/// is Thrash (DMA reads never allocate, so a thrashed cache misses on
/// every iteration).
model::StageBudgetInputs stage_budget_inputs(const sim::SystemConfig& cfg,
                                             const BenchParams& params);

}  // namespace pcieb::core
