// Performance-regression harness: fixed workloads, exact event and TLP
// counts, wall-clock ns per simulated TLP — the data behind `pciebench
// perf` and BENCH_perf.json.
//
// The simulator is deterministic, so every workload here executes an
// EXACT number of events and TLPs on every run and every machine; only
// wall-clock varies. That split is what makes the harness CI-able:
// tests/test_perf_harness.cpp asserts the counts (non-flaky), while ns per
// simulated TLP is recorded as trajectory data in BENCH_perf.json rather
// than gated. The TLP count is the simulated workload; the event count is
// what the engine spent on it. A change that cuts events keeps the TLPs,
// so the rate is per TLP, never per event.
//
// Three workloads, chosen to exercise the three distinct hot-path mixes:
//  * fig04_bw_sweep  — the paper's Figure 4 bandwidth sweep (BW_RD,
//    64..2048 B on NFP6000-HSW): deep outstanding-transaction pipelines,
//    the packetizer, the LLC probe loop. This is the headline workload
//    the seed baseline (kBaselineNsPerTlp) was measured on.
//  * fig05_latency   — serial DMA latency (LAT_RD / LAT_WRRD): one
//    transaction in flight, so per-event engine overhead dominates.
//  * chaos_dry_run   — a shrink-free chaos campaign: thousands of small
//    heterogeneous systems built and torn down, fault machinery armed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pcieb::check {

/// Seed baseline on the full (non-quick) fig04_bw_sweep workload: the
/// seed-commit simulator (std::priority_queue + std::function event loop)
/// ran its 2,226,000 events at 7.03 M events/s on the reference
/// container, for 567,000 TLPs. Recorded here so BENCH_perf.json always
/// carries both sides of the before/after comparison.
inline constexpr double kBaselineNsPerTlp = 2'226'000 / 7.03e6 / 567'000 * 1e9;

struct PerfConfig {
  /// Quick mode: ~10x fewer iterations/trials per workload. Event counts
  /// are still exact — just different constants from the full run.
  bool quick = false;
  /// Arm an obs::Profiler around each workload and attach the ranked
  /// cost-center table to its result. Profiling distorts the measured
  /// rates (two clock reads per scope), so use it to localize cost, never
  /// to record trajectory numbers.
  bool profile = false;
};

struct PerfWorkloadResult {
  std::string name;
  std::uint64_t events = 0;  ///< simulator events executed (exact)
  std::uint64_t tlps = 0;    ///< TLPs sent on both link directions (exact)
  double wall_seconds = 0.0;
  double ns_per_tlp = 0.0;  ///< wall nanoseconds per simulated TLP
  std::string profile_table;  ///< ranked cost centers (PerfConfig::profile)
};

struct PerfReport {
  bool quick = false;
  std::vector<PerfWorkloadResult> workloads;
  double baseline_ns_per_tlp = kBaselineNsPerTlp;
  /// The baseline's ns/TLP divided by fig04's. Quick mode runs a smaller
  /// sweep, so treat the quick-mode value as indicative only.
  double fig04_speedup_vs_baseline = 0.0;

  const PerfWorkloadResult* find(const std::string& name) const;
  /// BENCH_perf.json payload (schema "pcieb-perf-v2").
  std::string to_json() const;
  /// Human-readable table for stdout.
  std::string summary() const;
};

/// Run all three workloads serially (rates are meaningless under
/// co-scheduling) and assemble the report.
PerfReport run_perf(const PerfConfig& cfg);

}  // namespace pcieb::check
