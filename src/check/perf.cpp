#include "check/perf.hpp"

#include <chrono>
#include <sstream>

#include "check/chaos.hpp"
#include "obs/profiler.hpp"

#include "core/params.hpp"
#include "core/runner.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb::check {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void finalize(PerfWorkloadResult& r) {
  if (r.wall_seconds > 0.0 && r.tlps > 0) {
    r.ns_per_tlp = r.wall_seconds * 1e9 / static_cast<double>(r.tlps);
  }
}

/// The paper's Figure 4 bandwidth sweep: BW_RD on NFP6000-HSW, one system
/// per transfer size. Matches the workload the pre-change baseline was
/// measured on (see kBaselineNsPerTlp).
PerfWorkloadResult run_fig04(bool quick) {
  PerfWorkloadResult r;
  r.name = "fig04_bw_sweep";
  const auto& prof = sys::profile_by_name("NFP6000-HSW");
  static constexpr std::uint32_t kSizes[] = {64, 128, 256, 512, 1024, 2048};
  for (const std::uint32_t size : kSizes) {
    core::BenchParams p;
    p.kind = core::BenchKind::BwRd;
    p.transfer_size = size;
    p.window_bytes = 8ull << 20;
    p.iterations = quick ? 2000 : 20000;
    p.warmup = quick ? 100 : 1000;
    sim::System system(prof.config);
    const auto t0 = Clock::now();
    core::run_bandwidth_bench(system, p);
    r.wall_seconds += seconds_since(t0);
    r.events += system.sim().executed();
    r.tlps += system.upstream().tlps_sent() + system.downstream().tlps_sent();
  }
  finalize(r);
  return r;
}

/// Figure 5-style serial latency: LAT_RD and LAT_WRRD with exactly one
/// transaction in flight, so the event engine's per-event overhead is the
/// whole cost.
PerfWorkloadResult run_fig05(bool quick) {
  PerfWorkloadResult r;
  r.name = "fig05_latency";
  const auto& prof = sys::profile_by_name("NFP6000-HSW");
  static constexpr std::uint32_t kSizes[] = {8, 64, 256, 1024, 2048};
  for (const core::BenchKind kind :
       {core::BenchKind::LatRd, core::BenchKind::LatWrRd}) {
    for (const std::uint32_t size : kSizes) {
      core::BenchParams p;
      p.kind = kind;
      p.transfer_size = size;
      p.window_bytes = 8ull << 10;
      p.iterations = quick ? 800 : 8000;
      sim::System system(prof.config);
      const auto t0 = Clock::now();
      core::run_latency_bench(system, p);
      r.wall_seconds += seconds_since(t0);
      r.events += system.sim().executed();
      r.tlps +=
          system.upstream().tlps_sent() + system.downstream().tlps_sent();
    }
  }
  finalize(r);
  return r;
}

/// Shrink-free chaos campaign: many small heterogeneous systems with the
/// monitors armed and fault machinery active — the construction/teardown
/// and monitor-overhead mix the figure sweeps never touch. Runs serially
/// (threads=1): the harness measures per-core rates.
PerfWorkloadResult run_chaos_dry(bool quick) {
  PerfWorkloadResult r;
  r.name = "chaos_dry_run";
  ChaosConfig cfg;
  cfg.trials = quick ? 100 : 1000;
  cfg.iterations = 100;
  cfg.shrink = false;
  const auto t0 = Clock::now();
  run_campaign(cfg, [&r](const TrialSpec&, const TrialOutcome& out) {
    r.events += out.events;
    r.tlps += out.tlps;
  });
  r.wall_seconds = seconds_since(t0);
  finalize(r);
  return r;
}

/// Run one workload, optionally under an armed profiler. The profiler is
/// armed before the workload constructs its systems (the Simulator caches
/// the armed pointer at construction) and disarmed right after.
PerfWorkloadResult run_workload(PerfWorkloadResult (*fn)(bool), bool quick,
                                bool profile) {
  if (!profile) return fn(quick);
  obs::Profiler prof;
  obs::Profiler* prev = obs::Profiler::set_current(&prof);
  prof.start();
  PerfWorkloadResult r = fn(quick);
  prof.stop();
  obs::Profiler::set_current(prev);
  r.profile_table = prof.table();
  return r;
}

void json_workload(std::ostringstream& os, const PerfWorkloadResult& r) {
  os << "    {\"name\": \"" << r.name << "\", \"events\": " << r.events
     << ", \"tlps\": " << r.tlps << ", \"wall_seconds\": " << r.wall_seconds
     << ", \"ns_per_tlp\": " << r.ns_per_tlp << "}";
}

}  // namespace

const PerfWorkloadResult* PerfReport::find(const std::string& name) const {
  for (const auto& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string PerfReport::to_json() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  os << "{\n  \"schema\": \"pcieb-perf-v2\",\n  \"quick\": "
     << (quick ? "true" : "false") << ",\n  \"baseline\": {\"workload\": "
     << "\"fig04_bw_sweep\", \"ns_per_tlp\": " << baseline_ns_per_tlp
     << "},\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    json_workload(os, workloads[i]);
    os << (i + 1 < workloads.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"fig04_speedup_vs_baseline\": " << fig04_speedup_vs_baseline
     << "\n}\n";
  return os.str();
}

std::string PerfReport::summary() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os << "perf" << (quick ? " (--quick)" : "") << ":\n";
  for (const auto& w : workloads) {
    os.precision(3);
    os << "  " << w.name << ": " << w.events << " events, " << w.tlps
       << " TLPs, " << w.wall_seconds << "s";
    os.precision(1);
    os << " -> " << w.ns_per_tlp << " ns/TLP\n";
    if (!w.profile_table.empty()) {
      std::istringstream table(w.profile_table);
      std::string line;
      while (std::getline(table, line)) os << "    " << line << '\n';
    }
  }
  os.precision(1);
  os << "  baseline (seed, fig04): " << baseline_ns_per_tlp << " ns/TLP";
  os.precision(2);
  os << "; speedup " << fig04_speedup_vs_baseline << "x\n";
  return os.str();
}

PerfReport run_perf(const PerfConfig& cfg) {
  PerfReport report;
  report.quick = cfg.quick;
  report.workloads.push_back(run_workload(run_fig04, cfg.quick, cfg.profile));
  report.workloads.push_back(run_workload(run_fig05, cfg.quick, cfg.profile));
  report.workloads.push_back(
      run_workload(run_chaos_dry, cfg.quick, cfg.profile));
  if (const auto* fig04 = report.find("fig04_bw_sweep")) {
    report.fig04_speedup_vs_baseline =
        report.baseline_ns_per_tlp / fig04->ns_per_tlp;
  }
  return report;
}

}  // namespace pcieb::check
