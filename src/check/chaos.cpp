#include "check/chaos.hpp"

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>

#include "check/overload_monitors.hpp"
#include "common/rng.hpp"
#include "core/runner.hpp"
#include "exec/thread_pool.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb::check {
namespace {

/// Sim-time ceiling per trial: generous against the few ms a trial
/// needs, tight enough that a livelocked one aborts in bounded wall time
/// (the abort then IS the finding).
constexpr Picos kTrialMaxSimTime = from_micros(2'000'000);  // 2 s sim time

const char* cache_cli(core::CacheState s) {
  switch (s) {
    case core::CacheState::HostWarm: return "warm";
    case core::CacheState::Thrash: return "cold";
    case core::CacheState::DeviceWarm: return "device";
  }
  return "?";
}

/// One random fault clause. A tenant trial passes its `attacker`: the
/// clause then draws only the first seven kinds, the TLP-scoped ones
/// (Downtrain and LinkDown change physical port state that is not
/// attributable to one requester ID), and carries the attacker's vf:
/// predicate, so the plan names exactly whose traffic it may touch.
fault::FaultRule random_rule(Xoshiro256& rng,
                             std::optional<unsigned> attacker) {
  using fault::FaultKind;
  static constexpr FaultKind kinds[] = {
      FaultKind::LinkDrop,   FaultKind::LinkCorrupt, FaultKind::AckLoss,
      FaultKind::Poison,     FaultKind::CplUr,       FaultKind::CplCa,
      FaultKind::IommuFault, FaultKind::Downtrain,   FaultKind::LinkDown};
  fault::FaultRule r;
  r.kind = kinds[rng.below(attacker ? 7 : std::size(kinds))];
  if (attacker) r.vf = static_cast<int>(*attacker);

  if (r.kind == FaultKind::Downtrain) {
    // A degradation window, not a per-TLP event: lanes and/or gen plus a
    // bounded time window inside the trial's runtime.
    static constexpr unsigned lane_opts[] = {1, 2, 4};
    if (rng.below(2) == 0) r.lanes = lane_opts[rng.below(std::size(lane_opts))];
    if (r.lanes == 0 || rng.below(2) == 0) {
      r.gen = 1 + static_cast<unsigned>(rng.below(3));
    }
    const Picos lo = from_micros(rng.below(200));
    r.from = lo;
    r.until = lo + from_micros(20 + rng.below(300));
    return r;
  }

  if (r.kind == FaultKind::LinkDown) {
    // A surprise link-down is a one-shot catastrophic event, not a rate:
    // the port goes dark at some TLP index and only the recovery ladder's
    // hot reset can bring it back (after which a later rule firing again
    // burns another reset out of the quarantine budget).
    r.nth = 1 + rng.below(1500);
    if (rng.below(2) == 0) {
      r.dir = rng.below(2) == 0 ? fault::LinkDir::Up : fault::LinkDir::Down;
    }
    return r;
  }

  // Exactly one trigger: a one-shot index, a period, or a probability.
  switch (rng.below(3)) {
    case 0: r.nth = 1 + rng.below(1500); break;
    case 1: r.every = 50 + rng.below(450); break;
    default: r.prob = 0.001 + 0.02 * rng.uniform(); break;
  }

  const bool link_site =
      r.kind == FaultKind::LinkDrop || r.kind == FaultKind::LinkCorrupt ||
      r.kind == FaultKind::AckLoss || r.kind == FaultKind::Poison;
  if (link_site && rng.below(2) == 0) {
    r.dir = rng.below(2) == 0 ? fault::LinkDir::Up : fault::LinkDir::Down;
  }
  if (r.kind == FaultKind::LinkCorrupt && rng.below(3) == 0) {
    r.count = 2 + rng.below(3);  // bursts drive REPLAY_NUM escalation
  }
  if (rng.below(5) == 0) {
    const Picos lo = from_micros(rng.below(300));
    r.from = lo;
    r.until = lo + from_micros(50 + rng.below(400));
  }
  return r;
}

/// Simpler variants of one rule: each clears one optional predicate back
/// to its default (a cleared predicate admits MORE TLPs, so a failure
/// that survives is a strictly smaller reproducer in spec terms).
/// `keep_vf` pins the vf: clause — in a tenant trial it is the plan's
/// meaning (which RID the attacker may touch); clearing it would fault
/// victim traffic directly and "fail" for the wrong reason.
std::vector<fault::FaultRule> simplified_rules(const fault::FaultRule& r,
                                               bool keep_vf) {
  std::vector<fault::FaultRule> out;
  const auto push_if_changed = [&](fault::FaultRule c) {
    if (!(c == r)) out.push_back(std::move(c));
  };
  if (!keep_vf) {
    fault::FaultRule c = r;
    c.vf = -1;
    push_if_changed(c);
  }
  {
    fault::FaultRule c = r;
    c.from = 0;
    c.until = std::numeric_limits<Picos>::max();
    push_if_changed(c);
  }
  {
    fault::FaultRule c = r;
    c.addr_lo = 0;
    c.addr_hi = std::numeric_limits<std::uint64_t>::max();
    push_if_changed(c);
  }
  {
    fault::FaultRule c = r;
    c.dir = fault::LinkDir::Both;
    push_if_changed(c);
  }
  {
    fault::FaultRule c = r;
    c.count = 1;
    push_if_changed(c);
  }
  return out;
}

std::string first_line(const std::string& s) {
  const auto nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

}  // namespace

std::string TrialSpec::describe() const {
  std::ostringstream os;
  os << "trial " << index << ": " << system << " "
     << core::to_string(params.kind) << " size=" << params.transfer_size
     << " window=" << params.window_bytes
     << (params.pattern == core::AccessPattern::Random ? " rand" : " seq")
     << " cache=" << cache_cli(params.cache_state)
     << (params.numa_local ? "" : " numa=remote") << (iommu ? " iommu" : "")
     << " iters=" << params.iterations
     << " faults=" << (plan.empty() ? "none" : plan.describe());
  if (recovery.enabled) os << " recovery=" << recovery.describe();
  if (tenants > 0) {
    os << " tenants=" << tenants << " attacker=" << attacker
       << " isolation=" << (isolation_weakened ? "weakened" : "armed");
    if (seed_misroute_bug) os << " seed-misroute-bug";
  }
  if (overload_armed) {
    os << " overload=" << overload.offered_load << "x "
       << nic::to_string(overload.service)
       << " bp=" << (overload.backpressure ? "on" : "off")
       << " frame=" << overload.frame_bytes
       << " arrivals=" << core::to_string(overload.arrivals)
       << " ring=" << overload.ring_slots
       << " adm=" << overload.admission_slots;
  }
  return os.str();
}

std::string TrialSpec::repro_command() const {
  if (overload_armed) {
    std::ostringstream os;
    os << "pciebench overload --system " << system
       << " --offered-load " << overload.offered_load
       << " --service-mode " << nic::to_string(overload.service)
       << " --backpressure " << (overload.backpressure ? "on" : "off")
       << " --frame " << overload.frame_bytes
       << " --arrivals " << core::to_string(overload.arrivals)
       << " --ring-slots " << overload.ring_slots
       << " --admission " << overload.admission_slots
       << " --frames " << overload.frames << " --seed " << overload.seed;
    if (!plan.empty()) {
      os << " --faults '" << plan.describe() << "' --fault-seed " << plan.seed;
    }
    if (recovery.enabled) os << " --recovery '" << recovery.describe() << "'";
    os << " --monitors";
    return os.str();
  }
  std::string cmd =
      core::cli_run_command(system, params, iommu,
                           plan.empty() ? "" : plan.describe(), plan.seed,
                           /*monitors=*/true,
                           recovery.enabled ? recovery.describe() : "");
  if (tenants > 0) {
    cmd += " --tenants " + std::to_string(tenants) + " --attacker " +
           std::to_string(attacker);
    if (isolation_weakened) cmd += " --isolation weakened";
  }
  return cmd;
}

std::string TrialOutcome::summary() const {
  if (!failed) {
    if (!overload.empty()) return "ok (" + overload + ")";
    if (perturbed_victims == 0 && device_wide_actions == 0) return "ok";
    // Weakened-isolation trial: the blast radius is the result.
    std::ostringstream ok;
    ok << "ok (blast radius: " << perturbed_victims << " perturbed tenant"
       << (perturbed_victims == 1 ? "" : "s") << ", " << device_wide_actions
       << " device-wide action" << (device_wide_actions == 1 ? "" : "s")
       << ")";
    return ok.str();
  }
  std::ostringstream os;
  os << "FAILED:";
  if (!error.empty()) os << " " << first_line(error);
  if (total_violations > 0) {
    os << " " << total_violations << " invariant violation"
       << (total_violations == 1 ? "" : "s");
    if (!violations.empty()) os << " (first: " << violations.front().format() << ")";
  }
  if (!overload.empty()) os << " [" << overload << "]";
  return os.str();
}

bool parse_overload_ledger(const std::string& ledger, std::uint64_t& offered,
                           std::uint64_t& delivered, std::uint64_t& dropped) {
  if (ledger.empty()) return false;
  unsigned long long off = 0, del = 0, mac = 0, ring = 0, adm = 0;
  long long pause = 0;
  unsigned long long irqs = 0;
  if (std::sscanf(ledger.c_str(),
                  "offered=%llu delivered=%llu mac=%llu ring=%llu "
                  "admission=%llu pause_ps=%lld irqs=%llu",
                  &off, &del, &mac, &ring, &adm, &pause, &irqs) != 7) {
    return false;
  }
  offered = off;
  delivered = del;
  dropped = mac + ring + adm;
  return true;
}

TrialRecord TrialRecord::of(const TrialSpec& spec, const TrialOutcome& out) {
  TrialRecord rec;
  rec.index = spec.index;
  rec.status = out.failed ? Status::Violation : Status::Ok;
  rec.violations = out.total_violations;
  if (!out.violations.empty()) {
    rec.first_violation = out.violations.front().format();
  }
  rec.error = out.error;
  rec.spec = spec.describe();
  rec.repro = spec.repro_command();
  rec.digests = out.digests.serialize();
  rec.recovery = out.recovery_digest;
  rec.recovery_state = out.recovery_state;
  rec.perturbed = out.perturbed_victims;
  rec.device_wide = out.device_wide_actions;
  rec.overload = out.overload;
  return rec;
}

void CampaignTally::add(const TrialRecord& rec) {
  obs::DigestSet set;
  if (!rec.digests.empty() && obs::DigestSet::deserialize(rec.digests, &set)) {
    digests.merge(set);
  }
  if (!rec.recovery.empty()) ++trials_recovered;
  if (rec.recovery_state == "quarantined") ++trials_quarantined;
  perturbed_victims += rec.perturbed;
  device_wide_actions += rec.device_wide;
  std::uint64_t off = 0, del = 0, drop = 0;
  if (parse_overload_ledger(rec.overload, off, del, drop)) {
    overload_offered += off;
    overload_delivered += del;
    overload_dropped += drop;
  }
}

TrialSpec generate_trial(const ChaosConfig& cfg, std::uint64_t index) {
  // Stateless per-index stream: any trial regenerates without replaying
  // the campaign prefix (SplitMix decorrelates master seed from index).
  SplitMix64 mix(cfg.master_seed);
  Xoshiro256 rng(mix.next() ^ (0x9e3779b97f4a7c15ULL * (index + 1)));

  TrialSpec t;
  t.index = index;
  const auto& profiles = sys::all_profiles();
  const auto& prof = profiles[rng.below(profiles.size())];
  t.system = prof.name;

  auto& p = t.params;
  static constexpr core::BenchKind kinds[] = {
      core::BenchKind::BwWr, core::BenchKind::BwRd, core::BenchKind::BwRdWr};
  p.kind = kinds[rng.below(std::size(kinds))];
  static constexpr std::uint32_t sizes[] = {64,  128,  256,  257,
                                            512, 1024, 1536, 2048};
  p.transfer_size = sizes[rng.below(std::size(sizes))];
  static constexpr std::uint64_t windows[] = {8ull << 10, 64ull << 10,
                                              256ull << 10, 1ull << 20};
  p.window_bytes = windows[rng.below(std::size(windows))];
  p.pattern = rng.below(2) == 0 ? core::AccessPattern::Sequential
                                : core::AccessPattern::Random;
  static constexpr core::CacheState caches[] = {core::CacheState::HostWarm,
                                                core::CacheState::Thrash,
                                                core::CacheState::DeviceWarm};
  p.cache_state = caches[rng.below(std::size(caches))];
  p.numa_local = prof.has_remote_node() ? rng.below(2) == 0 : true;
  t.iommu = rng.below(4) == 0;
  p.page_bytes = (t.iommu && rng.below(2) == 0) ? (2ull << 20) : 4096;
  p.iterations = cfg.iterations;
  p.warmup = 0;
  p.seed = rng.next();

  const std::size_t nrules = rng.below(7);  // 0..6; 0 = fault-free trial
  std::optional<unsigned> attacker;
  if (cfg.tenants > 0) attacker = cfg.attacker;
  for (std::size_t i = 0; i < nrules; ++i) {
    t.plan.rules.push_back(random_rule(rng, attacker));
  }
  t.plan.seed = rng.next();
  t.seed_credit_leak_bug = cfg.seed_credit_leak_bug && cfg.tenants == 0;
  // Campaign-level knobs ride along after the RNG stream is spent, so a
  // recovery-armed campaign visits the exact same trial specs as a plain
  // one — the ladder is the only delta.
  t.recovery = cfg.recovery;
  t.tenants = cfg.tenants;
  t.attacker = cfg.attacker;
  t.isolation_weakened = cfg.isolation_weakened;
  t.seed_misroute_bug = cfg.seed_misroute_bug && cfg.tenants > 0;
  // Overload variety is drawn strictly AFTER the classic stream, so an
  // overload campaign visits the exact same (system, fault-plan) specs a
  // classic one does — sustained load is the only delta.
  if (cfg.offered_load > 0 && cfg.tenants == 0) {
    t.overload_armed = true;
    auto& o = t.overload;
    static constexpr std::uint32_t frame_sizes[] = {64, 256, 1024, 1514};
    o.frame_bytes = frame_sizes[rng.below(std::size(frame_sizes))];
    o.arrivals = rng.below(2) == 0 ? core::ArrivalModel::Poisson
                                   : core::ArrivalModel::Burst;
    static constexpr std::uint32_t ring_sizes[] = {128, 256, 512};
    o.ring_slots = ring_sizes[rng.below(std::size(ring_sizes))];
    o.admission_slots =
        rng.below(2) == 0 ? 0 : 64 + static_cast<std::uint32_t>(rng.below(192));
    o.seed = rng.next();
    o.frames = cfg.iterations;
    o.offered_load = cfg.offered_load;
    o.service = cfg.service;
    o.backpressure = cfg.backpressure;
    // The overload datapath owns its buffer layout; IOMMU chaos and the
    // credit-leak seed stay the classic campaigns' concern.
    t.iommu = false;
    t.seed_credit_leak_bug = false;
  }
  return t;
}

namespace {

/// One run of a trial's system. A tenant trial also keeps each VF's
/// victim artifact for the differential: its serialized latency digest
/// and counter line, "" in the attacker's slot, which is not compared.
struct SystemRun {
  TrialOutcome out;
  std::vector<std::string> victims;
};

/// Build the trial's system, arm the monitors (record mode unless
/// `throw_monitors`), run its one workload and collect the outcome.
/// `armed` = false strips the fault plan and the seeded bugs and keeps
/// everything else: a tenant trial's control run. An overload trial first
/// calibrates its datapath's capacity (calibrate_capacity strips the plan
/// itself) on its own frames, as its repro does, then drives the
/// open-loop datapath at the configured multiple of it with the
/// OverloadMonitorSuite attached too: PCIe-level conservation and frame
/// accounting must hold at once.
SystemRun run_system(const TrialSpec& spec, bool armed, bool telemetry,
                     bool throw_monitors) {
  SystemRun run;
  TrialOutcome& out = run.out;
  sim::SystemConfig cfg = sys::profile_by_name(spec.system).config;
  if (spec.iommu) cfg = sys::with_iommu(cfg, true, spec.params.page_bytes);
  if (armed) cfg.fault_plan = spec.plan;
  cfg.recovery = spec.recovery;
  // The watchdog arms only with a plan or on a shared port, so the
  // ceiling has no effect on a lone function without a plan. A shared
  // port arms it in both runs of the differential: the victims' event
  // schedule must not depend on whether the attacker's plan rides along.
  cfg.watchdog.max_sim_time = kTrialMaxSimTime;
  if (spec.tenants > 0) {
    cfg.tenants = spec.tenants;
    cfg.isolation = spec.isolation_weakened
                        ? sim::TenantIsolation::all_weakened()
                        : sim::TenantIsolation::all_armed();
  }

  try {
    nic::OverloadConfig ocfg = spec.overload;
    if (spec.overload_armed) {
      ocfg.capacity_pps = nic::calibrate_capacity(cfg, ocfg);
    }
    sim::System system(cfg);
    if (armed) {
      system.test_leak_credits_on_drop(spec.seed_credit_leak_bug);
      system.test_misroute_completions(spec.seed_misroute_bug);
    }
    MonitorConfig mon_cfg;
    mon_cfg.throw_on_violation = throw_monitors;
    MonitorSuite monitors(system, mon_cfg);
    OverloadMonitorSuite overload_monitors(mon_cfg);
    // Telemetry rides the trace stream: a minimal ring (the recorder is a
    // listener, so ring capacity is irrelevant to it) feeding per-DMA
    // latency digests. A tenant trial digests each VF's op latencies.
    std::unique_ptr<obs::TraceSink> sink;
    obs::DmaLatencyRecorder recorder;
    if (telemetry && spec.tenants == 0) {
      sink = std::make_unique<obs::TraceSink>(/*capacity=*/1);
      sink->set_listener(
          [&recorder](const obs::TraceEvent& e) { recorder.on_event(e); });
      system.set_trace_sink(sink.get());
    }
    nic::OverloadResult overload;
    std::vector<core::TenantResult> tenants;
    try {
      if (spec.overload_armed) {
        overload = nic::run_overload(system, ocfg, overload_monitors.probe());
      } else if (spec.tenants > 0) {
        tenants = core::run_tenant_bench(system, spec.params);
      } else if (core::is_latency(spec.params.kind)) {
        core::run_latency_bench(system, spec.params);
      } else {
        core::run_bandwidth_bench(system, spec.params);
      }
      monitors.check_quiescent();
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    out.total_violations =
        monitors.total_violations() + overload_monitors.total_violations();
    out.violations = monitors.violations();
    out.violations.insert(out.violations.end(),
                          overload_monitors.violations().begin(),
                          overload_monitors.violations().end());
    out.events = system.sim().executed();
    out.tlps = system.upstream().tlps_sent() + system.downstream().tlps_sent();
    out.device_wide_actions = system.device_wide_actions();
    if (const auto* rec =
            system.recovery(spec.tenants > 0 ? spec.attacker : 0)) {
      out.recovery_digest = rec->digest();
      out.recovery_state = fault::to_string(rec->state());
    }
    if (spec.overload_armed) out.overload = overload.ledger();
    if (telemetry) {
      system.set_trace_sink(nullptr);
      out.digests = std::move(recorder.digests());
      if (spec.overload_armed) out.digests.at("frame").merge(overload.latency);
    }
    run.victims.resize(spec.tenants);
    for (const auto& r : tenants) {
      if (telemetry) {
        out.digests.at("vf" + std::to_string(r.vf)).merge(r.latency);
      }
      if (r.vf != spec.attacker) {
        run.victims[r.vf] = r.latency.serialize() + "\n" + r.counters;
      }
    }
  } catch (const std::exception& e) {
    // Calibration or system construction failed: the trial itself is
    // broken, which is a finding in its own right.
    if (out.error.empty()) out.error = e.what();
  }
  out.failed = out.total_violations > 0 || !out.error.empty();
  return run;
}

}  // namespace

TrialOutcome run_trial(const TrialSpec& spec, bool telemetry,
                       bool throw_monitors) {
  SystemRun armed =
      run_system(spec, /*armed=*/true, telemetry, throw_monitors);
  if (spec.tenants == 0) return std::move(armed.out);

  // Tenant trial: run again with the attacker's plan stripped and
  // byte-compare each victim's artifact between the runs. Armed
  // isolation: any mismatch is an isolation violation. Weakened
  // isolation: mismatches are the measured blast radius, reported but
  // not failed.
  TrialOutcome& out = armed.out;
  const SystemRun control = run_system(spec, /*armed=*/false,
                                       /*telemetry=*/false,
                                       /*throw_monitors=*/false);
  if (!control.out.error.empty()) {
    // The fault-free control run must never abort; if it does, the
    // trial is broken, not the isolation.
    out.error += (out.error.empty() ? "" : "; ");
    out.error += "control run: " + control.out.error;
  }
  std::string first_perturbed;
  if (out.error.empty()) {
    for (unsigned vf = 0; vf < spec.tenants; ++vf) {
      if (armed.victims[vf] != control.victims[vf]) {
        ++out.perturbed_victims;
        if (first_perturbed.empty()) first_perturbed = std::to_string(vf);
      }
    }
  }
  if (!spec.isolation_weakened && out.perturbed_victims > 0) {
    Violation v;
    v.monitor = "isolation";
    v.when = 0;
    v.detail = std::to_string(out.perturbed_victims) +
               " victim VF(s) perturbed by attacker vf" +
               std::to_string(spec.attacker) +
               "'s fault plan (first: vf" + first_perturbed +
               ") — latency digest or counters differ from the " +
               "attacker-stripped control run";
    ++out.total_violations;
    out.violations.insert(out.violations.begin(), std::move(v));
  }
  out.failed = !out.error.empty() || out.total_violations > 0;
  return std::move(out);
}

ShrinkResult shrink_trial(const TrialSpec& failing, std::size_t budget) {
  return shrink_trial(failing, budget,
                      [](const TrialSpec& s) { return run_trial(s); });
}

ShrinkResult shrink_trial(const TrialSpec& failing, std::size_t budget,
                          const TrialRunner& runner) {
  ShrinkResult res;
  res.minimal = failing;
  res.outcome = runner(failing);
  res.runs = 1;

  const auto attempt = [&](TrialSpec cand) {
    if (res.runs >= budget) return false;
    ++res.runs;
    TrialOutcome out = runner(cand);
    if (!out.failed) return false;
    res.minimal = std::move(cand);
    res.outcome = std::move(out);
    return true;
  };

  // 1. Greedy clause removal to a fixed point: drop whole rules while
  //    the trial still fails.
  bool changed = true;
  while (changed && !res.minimal.plan.rules.empty()) {
    changed = false;
    for (std::size_t i = 0; i < res.minimal.plan.rules.size(); ++i) {
      TrialSpec cand = res.minimal;
      cand.plan.rules.erase(cand.plan.rules.begin() +
                            static_cast<std::ptrdiff_t>(i));
      if (attempt(std::move(cand))) {
        changed = true;
        break;
      }
    }
  }

  // 2. Per-rule predicate clearing: reset time window, address range,
  //    direction and burst count to defaults where the failure survives.
  for (std::size_t i = 0; i < res.minimal.plan.rules.size(); ++i) {
    bool simplified = true;
    while (simplified) {
      simplified = false;
      for (const auto& simpler : simplified_rules(
               res.minimal.plan.rules[i], /*keep_vf=*/res.minimal.tenants > 0)) {
        TrialSpec cand = res.minimal;
        cand.plan.rules[i] = simpler;
        if (attempt(std::move(cand))) {
          simplified = true;
          break;
        }
      }
    }
  }

  // 3. Halve the trial length while it still reproduces (overload trials
  //    measure length in offered frames, classic ones in iterations).
  while (res.minimal.overload_armed ? res.minimal.overload.frames >= 100
                                    : res.minimal.params.iterations >= 100) {
    TrialSpec cand = res.minimal;
    cand.params.iterations /= 2;
    if (cand.overload_armed) cand.overload.frames /= 2;
    if (!attempt(std::move(cand))) break;
  }
  return res;
}

CampaignResult run_campaign(const ChaosConfig& cfg,
                            const TrialObserver& observe) {
  // With threads, every trial executes up front on the pool (each on its
  // own Simulator, outcomes buffered by index) and the loop below replays
  // the buffer; serially, the loop generates and runs each trial as it
  // goes. Either way the observer, the tally, the first failure and the
  // shrink see trials 0..f in order, so the two are byte-identical; only
  // wall-clock (and how many trials past f burned CPU) differs.
  const bool pooled = cfg.threads > 1 && cfg.trials > 1;
  std::vector<TrialSpec> specs;
  std::vector<TrialOutcome> outs;
  if (pooled) {
    specs.resize(cfg.trials);
    outs.resize(cfg.trials);
    exec::ThreadPool pool(cfg.threads);
    pool.parallel_indexed(cfg.trials, [&](std::size_t i) {
      specs[i] = generate_trial(cfg, i);
      outs[i] = run_trial(specs[i], cfg.telemetry, cfg.monitors_throw);
    });
  }

  CampaignResult res;
  for (std::size_t i = 0; i < cfg.trials; ++i) {
    const TrialSpec spec =
        pooled ? std::move(specs[i]) : generate_trial(cfg, i);
    const TrialOutcome out =
        pooled ? std::move(outs[i])
               : run_trial(spec, cfg.telemetry, cfg.monitors_throw);
    ++res.trials_run;
    if (observe) observe(spec, out);
    res.add(TrialRecord::of(spec, out));
    if (out.failed) {
      ++res.failures;
      res.first_failure = spec;
      if (cfg.shrink) res.minimized = shrink_trial(spec, cfg.shrink_budget);
      break;
    }
  }
  return res;
}

}  // namespace pcieb::check
