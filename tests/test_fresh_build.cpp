// Fresh-build purity: check::run_trial constructs a sim::System for every
// trial, so a trial's outcome is a pure function of its spec. Nothing an
// earlier trial in the same thread did (faults, an armed recovery ladder,
// a seeded bug, another system shape or mode) may change one bit of a
// later one: same events, TLPs, violations, latency digests, recovery
// digest and state, blast radius, overload ledger and summary, whatever
// order the trials run in. The same holds one level down: a sim::System
// built after another System ran a different workload replays a System
// built before it exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/chaos.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

using namespace pcieb;

namespace {

void expect_outcomes_identical(const check::TrialOutcome& first,
                               const check::TrialOutcome& again,
                               std::uint64_t trial) {
  EXPECT_EQ(first.failed, again.failed) << "trial " << trial;
  EXPECT_EQ(first.total_violations, again.total_violations)
      << "trial " << trial;
  ASSERT_EQ(first.violations.size(), again.violations.size())
      << "trial " << trial;
  for (std::size_t v = 0; v < first.violations.size(); ++v) {
    EXPECT_EQ(first.violations[v].format(), again.violations[v].format())
        << "trial " << trial << " violation " << v;
  }
  EXPECT_EQ(first.error, again.error) << "trial " << trial;
  EXPECT_EQ(first.events, again.events) << "trial " << trial;
  EXPECT_EQ(first.tlps, again.tlps) << "trial " << trial;
  EXPECT_EQ(first.digests.serialize(), again.digests.serialize())
      << "trial " << trial;
  EXPECT_EQ(first.recovery_digest, again.recovery_digest)
      << "trial " << trial;
  EXPECT_EQ(first.recovery_state, again.recovery_state) << "trial " << trial;
  EXPECT_EQ(first.perturbed_victims, again.perturbed_victims)
      << "trial " << trial;
  EXPECT_EQ(first.device_wide_actions, again.device_wide_actions)
      << "trial " << trial;
  EXPECT_EQ(first.overload, again.overload) << "trial " << trial;
  EXPECT_EQ(first.summary(), again.summary()) << "trial " << trial;
}

/// Run trials 0..n-1 of `cfg` in index order, then again in reverse
/// order, and require each trial's two outcomes to be byte-identical.
/// The reversal gives almost every trial a different predecessor, and
/// the first pass leaves behind whatever a whole campaign's worth of
/// trials could leak. Telemetry is on so the comparison covers the full
/// latency-digest stream. Returns the first pass's outcomes.
std::vector<check::TrialOutcome> check_order_independence(
    const check::ChaosConfig& cfg, std::uint64_t n) {
  std::vector<check::TrialOutcome> forward;
  for (std::uint64_t i = 0; i < n; ++i) {
    forward.push_back(check::run_trial(check::generate_trial(cfg, i),
                                       /*telemetry=*/true,
                                       cfg.monitors_throw));
  }
  for (std::uint64_t i = n; i-- > 0;) {
    const auto again = check::run_trial(check::generate_trial(cfg, i),
                                        /*telemetry=*/true,
                                        cfg.monitors_throw);
    expect_outcomes_identical(forward[i], again, i);
  }
  return forward;
}

/// A BW_WR trial whose upstream drops trip the seeded credit-return
/// omission when `seed_credit_leak_bug` is set.
check::TrialSpec upstream_drop_trial() {
  check::TrialSpec spec;
  spec.system = "NFP6000-HSW";
  spec.params.kind = core::BenchKind::BwWr;
  spec.params.transfer_size = 256;
  spec.params.window_bytes = 8192;
  spec.params.pattern = core::AccessPattern::Sequential;
  spec.params.cache_state = core::CacheState::HostWarm;
  spec.params.numa_local = true;
  spec.params.iterations = 400;
  spec.params.seed = 7;
  spec.plan = fault::parse_plan("drop@every=150,dir=up;corrupt@prob=0.002");
  spec.plan.seed = 99;
  return spec;
}

}  // namespace

// Randomized classic trials: mixed profiles, IOMMU arming, workloads and
// fault plans.
TEST(FreshBuild, ClassicTrialsAreOrderIndependent) {
  check::ChaosConfig cfg;
  cfg.master_seed = 0x5e5e7;
  cfg.iterations = 60;
  cfg.shrink = false;
  const auto outcomes = check_order_independence(cfg, 24);
  // Not vacuous: the trials differ from one another.
  std::uint64_t distinct = 0;
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    distinct += outcomes[i].events != outcomes[0].events;
  }
  EXPECT_GT(distinct, 0u);
}

// The recovery ladder armed in every trial: each trial wires its own
// RecoveryManager and AER listeners, and its digest and final state
// must not depend on the ladders that ran before it.
TEST(FreshBuild, RecoveryArmedTrialsAreOrderIndependent) {
  check::ChaosConfig cfg;
  cfg.master_seed = 0x4ec0;
  cfg.iterations = 60;
  cfg.shrink = false;
  cfg.recovery = fault::parse_recovery_policy("default");
  const auto outcomes = check_order_independence(cfg, 12);
  std::uint64_t transitions = 0;
  for (const auto& o : outcomes) {
    EXPECT_FALSE(o.recovery_state.empty());
    transitions += !o.recovery_digest.empty();
  }
  EXPECT_GT(transitions, 0u);  // some ladder actually moved
}

// Shared-port trials with weakened isolation, where one VF's faults may
// escalate to device-wide recovery: every trial builds its armed and
// stripped Systems, and the blast radius it measures is its own.
TEST(FreshBuild, TenantTrialsAreOrderIndependent) {
  check::ChaosConfig cfg;
  cfg.master_seed = 0x7e4a;
  cfg.iterations = 100;
  cfg.shrink = false;
  cfg.tenants = 3;
  cfg.attacker = 0;
  cfg.isolation_weakened = true;
  cfg.recovery = fault::parse_recovery_policy("default");
  std::uint64_t device_wide = 0;
  for (const auto& o : check_order_independence(cfg, 4)) {
    device_wide += o.device_wide_actions;
  }
  EXPECT_GT(device_wide, 0u);
}

// Overload trials calibrate a capped copy of their workload and then run
// it; both runs build their Systems, so the frame ledger is the trial's.
TEST(FreshBuild, OverloadTrialsAreOrderIndependent) {
  check::ChaosConfig cfg;
  cfg.iterations = 500;
  cfg.shrink = false;
  cfg.offered_load = 2.0;
  cfg.service = nic::ServiceMode::Coalesce;
  cfg.backpressure = true;
  cfg.monitors_throw = true;
  std::uint64_t dropped_total = 0;
  for (const auto& o : check_order_independence(cfg, 4)) {
    std::uint64_t offered = 0, delivered = 0, dropped = 0;
    ASSERT_TRUE(check::parse_overload_ledger(o.overload, offered, delivered,
                                             dropped))
        << o.overload;
    dropped_total += dropped;
  }
  EXPECT_GT(dropped_total, 0u);  // some trial was actually overloaded
}

// The seeded-bug flag belongs to its trial: a clean trial run after a
// bugged one of the same system shape is as clean as before it.
TEST(FreshBuild, SeededBugDoesNotLeakIntoTheNextTrial) {
  const auto clean = upstream_drop_trial();
  const auto before = check::run_trial(clean);
  EXPECT_FALSE(before.failed) << before.summary();

  auto bugged = clean;
  bugged.seed_credit_leak_bug = true;
  const auto tripped = check::run_trial(bugged);
  ASSERT_TRUE(tripped.failed) << "the seeded credit leak did not fire";

  const auto after = check::run_trial(clean);
  expect_outcomes_identical(before, after, 0);
}

// A latency bench on a System built after another System ran a
// bandwidth workload produces bit-identical samples to one on a System
// built first.
TEST(FreshBuild, SystemReproducesLatencySamplesAfterAnotherRan) {
  const auto cfg = sys::nfp6000_hsw().config;

  core::BenchParams bw;
  bw.kind = core::BenchKind::BwWr;
  bw.iterations = 200;
  core::BenchParams lat;
  lat.kind = core::BenchKind::LatRd;
  lat.iterations = 300;
  lat.warmup = 50;

  sim::System first(cfg);
  const auto want = core::run_latency_bench(first, lat);

  {
    sim::System other(cfg);
    (void)core::run_bandwidth_bench(other, bw);
  }
  sim::System second(cfg);
  const auto got = core::run_latency_bench(second, lat);

  const auto& a = want.samples_ns.raw();
  const auto& b = got.samples_ns.raw();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "sample " << i;
  }
  EXPECT_EQ(want.summary.median_ns, got.summary.median_ns);
}

// The same on shared ports: a tenant System built after another one ran
// a different vf-scoped plan replays the first exactly — every VF's
// latency digest, counter line and recovery digest, the executed events,
// the blast-radius tally and the port log.
TEST(FreshBuild, SharedPortReproducesTenantRunAfterAnotherRan) {
  struct Shape {
    const char* name;
    unsigned tenants;
    sim::TenantIsolation isolation;
  };
  const Shape shapes[] = {
      {"armed 4-VF", 4, sim::TenantIsolation::all_armed()},
      {"weakened 3-VF", 3, sim::TenantIsolation::all_weakened()},
  };
  core::BenchParams p;
  p.kind = core::BenchKind::BwRdWr;
  p.transfer_size = 256;
  p.window_bytes = 1ull << 20;
  p.iterations = 600;
  p.warmup = 0;
  p.seed = 7;
  const auto artifact = [&p](sim::System& system) {
    std::string out;
    for (const auto& r : core::run_tenant_bench(system, p)) {
      out += "vf" + std::to_string(r.vf) + " " + r.latency.serialize() +
             "\n" + system.counters_line(r.vf) + "\n" +
             system.recovery(r.vf)->digest() + "\n";
    }
    return out + "events=" + std::to_string(system.sim().executed()) +
           " device_wide=" + std::to_string(system.device_wide_actions()) +
           " port_aer=" + std::to_string(system.port_aer().recorded());
  };

  for (const Shape& shape : shapes) {
    auto cfg = sys::profile_by_name("NFP6000-HSW").config;
    cfg.tenants = shape.tenants;
    cfg.isolation = shape.isolation;
    cfg.recovery = fault::parse_recovery_policy("default");
    auto other = cfg;
    cfg.fault_plan = fault::parse_plan("drop@every=15,dir=up,vf=0");
    other.fault_plan = fault::parse_plan(
        "poison@every=9,dir=down,vf=1;corrupt@every=40,dir=up,vf=1");

    std::string want;
    {
      sim::System first(cfg);
      want = artifact(first);
      // Not vacuous: a lost posted write is fatal and the ladder
      // escalates to a device-wide hot reset.
      EXPECT_GT(first.device_wide_actions(), 0u) << shape.name;
    }
    {
      sim::System between(other);
      (void)artifact(between);
    }
    sim::System second(cfg);
    EXPECT_EQ(artifact(second), want) << shape.name;
  }
}
