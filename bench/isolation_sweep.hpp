// Victim-tenant goodput and tail latency under a noisy neighbour with the
// SR-IOV isolation knobs individually ablated, shared between the
// ablation_isolation reproduction binary and the tier-2 snapshot test
// (tests/test_isolation_goodput_snapshot.cpp) so both always run the
// exact same configuration. The committed CSV lives at
// bench/expected/isolation_goodput.csv; regenerate it with
//   ./build/bench/ablation_isolation bench/expected/isolation_goodput.csv
//
// Every CSV column is an integer or enum string from the deterministic
// simulation, so the snapshot comparison is exact — any drift is a
// semantic change to the tenant, fault or recovery machinery, not
// numeric noise. The isolation=armed rows double as the containment
// contract: the victim columns must be identical whether the attacker's
// fault plan is "none" or a storm, which is the same differential
// identity the tenant chaos campaign verifies per-trial.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb::bench {

struct IsolationSweepRow {
  std::string isolation;  ///< knob set name ("armed", "no-tdm", ...)
  std::string faults;     ///< attacker fault plan ("none" = quiet neighbour)
  // Victim VF (vf1, the attacker's neighbour) measurement phase.
  std::uint64_t victim_p50_ps = 0;
  std::uint64_t victim_p99_ps = 0;
  std::uint64_t victim_payload = 0;
  std::uint64_t victim_lost = 0;
  std::int64_t victim_elapsed_ps = 0;
  // Attacker VF (vf0) damage and fabric-wide fallout.
  std::uint64_t attacker_lost = 0;
  std::uint64_t injected = 0;
  std::uint64_t device_wide_actions = 0;
};

inline sim::TenantIsolation isolation_by_name(const std::string& name) {
  sim::TenantIsolation iso;  // armed
  if (name == "armed") return iso;
  if (name == "no-tdm") iso.tdm_link = false;
  else if (name == "no-iotlb") iso.per_vf_iotlb = false;
  else if (name == "no-uncore") iso.per_vf_uncore = false;
  else if (name == "shared-recovery") iso.vf_scoped_recovery = false;
  else if (name == "weakened") iso = sim::TenantIsolation::all_weakened();
  return iso;
}

/// One point: four VFs of 256 B posted writes over per-VF 1 MB windows on
/// NFP6000-HSW, attacker vf0 carrying `faults` (every clause vf-scoped),
/// victim vf1 reported. With isolation armed the attacker's replay storms
/// serialize on its own TDM slice, miss storms evict only its IO-TLB
/// partition, and its recovery ladder derates only its own lane — the
/// victim columns stay constant across fault plans. Each ablated knob
/// opens one specific coupling path; `weakened` opens them all.
inline IsolationSweepRow run_isolation_sweep_point(const std::string& isolation,
                                                   const std::string& faults) {
  sim::SystemConfig cfg = sys::profile_by_name("NFP6000-HSW").config;
  if (faults != "none") cfg.fault_plan = fault::parse_plan(faults);
  cfg.recovery = fault::parse_recovery_policy("default");
  cfg.tenants = 4;
  cfg.isolation = isolation_by_name(isolation);

  sim::System system(cfg);
  core::BenchParams p;
  p.kind = core::BenchKind::BwWr;
  p.transfer_size = 256;
  p.window_bytes = 1ull << 20;
  p.iterations = 1500;
  p.warmup = 0;  // keep fault nth counters aligned with the measured phase
  p.seed = 7;
  const auto results = core::run_tenant_bench(system, p);

  IsolationSweepRow row;
  row.isolation = isolation;
  row.faults = faults;
  const core::TenantResult& victim = results.at(1);
  row.victim_p50_ps = victim.latency.quantile(0.50);
  row.victim_p99_ps = victim.latency.quantile(0.99);
  row.victim_payload = victim.payload_bytes;
  row.victim_lost = victim.lost_payload_bytes;
  row.victim_elapsed_ps = victim.elapsed;
  row.attacker_lost = results.at(0).lost_payload_bytes;
  if (auto* inj = system.fault_injector()) row.injected = inj->injected_total();
  row.device_wide_actions = system.device_wide_actions();
  return row;
}

inline std::vector<IsolationSweepRow> run_isolation_sweep() {
  // Attacker intensity escalates from a quiet neighbour through a
  // correctable drizzle to a drop storm that keeps the attacker's lane in
  // replay and its ladder busy. Crossed with full isolation, each knob
  // ablated alone, and everything weakened at once.
  static const char* kFaults[] = {
      "none",
      "ack-loss@every=40,vf=0",
      "drop@every=15,dir=up,vf=0",
  };
  static const char* kIsolation[] = {
      "armed", "no-tdm", "no-iotlb", "no-uncore", "shared-recovery",
      "weakened",
  };
  std::vector<IsolationSweepRow> rows;
  for (const char* iso : kIsolation) {
    for (const char* faults : kFaults) {
      rows.push_back(run_isolation_sweep_point(iso, faults));
    }
  }
  return rows;
}

inline std::string isolation_sweep_csv(
    const std::vector<IsolationSweepRow>& rows) {
  std::string out =
      "isolation,faults,victim_p50_ps,victim_p99_ps,victim_payload,"
      "victim_lost,victim_elapsed_ps,attacker_lost,injected,"
      "device_wide_actions\n";
  for (const auto& r : rows) {
    // Fault specs contain commas; quote the spec cells unconditionally.
    char line[256];
    std::snprintf(line, sizeof line,
                  "\"%s\",\"%s\",%llu,%llu,%llu,%llu,%lld,%llu,%llu,%llu\n",
                  r.isolation.c_str(), r.faults.c_str(),
                  static_cast<unsigned long long>(r.victim_p50_ps),
                  static_cast<unsigned long long>(r.victim_p99_ps),
                  static_cast<unsigned long long>(r.victim_payload),
                  static_cast<unsigned long long>(r.victim_lost),
                  static_cast<long long>(r.victim_elapsed_ps),
                  static_cast<unsigned long long>(r.attacker_lost),
                  static_cast<unsigned long long>(r.injected),
                  static_cast<unsigned long long>(r.device_wide_actions));
    out += line;
  }
  return out;
}

}  // namespace pcieb::bench
