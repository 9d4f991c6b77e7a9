// Reset-vs-fresh byte identity (the trial-reuse contract): a pooled
// sim::System that is reset() between trials must behave bit-identically
// to a freshly constructed one — same events, TLPs, violations, latency
// digests, recovery digest and summary — across randomized chaos trials,
// on a one-function port and on shared (tenant) ports alike. This is the
// property that makes System pooling in check::run_trial a pure
// optimization rather than a semantic change.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/chaos.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "core/tenant_runner.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

using namespace pcieb;

namespace {

/// Restore pooling to its ambient value on scope exit so test order
/// never leaks state between cases.
struct PoolingGuard {
  bool saved = check::trial_system_pooling();
  ~PoolingGuard() { check::set_trial_system_pooling(saved); }
};

void expect_outcomes_identical(const check::TrialOutcome& fresh,
                               const check::TrialOutcome& pooled,
                               std::uint64_t trial) {
  EXPECT_EQ(fresh.failed, pooled.failed) << "trial " << trial;
  EXPECT_EQ(fresh.total_violations, pooled.total_violations)
      << "trial " << trial;
  ASSERT_EQ(fresh.violations.size(), pooled.violations.size())
      << "trial " << trial;
  for (std::size_t v = 0; v < fresh.violations.size(); ++v) {
    EXPECT_EQ(fresh.violations[v].format(), pooled.violations[v].format())
        << "trial " << trial << " violation " << v;
  }
  EXPECT_EQ(fresh.error, pooled.error) << "trial " << trial;
  EXPECT_EQ(fresh.events, pooled.events) << "trial " << trial;
  EXPECT_EQ(fresh.tlps, pooled.tlps) << "trial " << trial;
  EXPECT_EQ(fresh.digests.serialize(), pooled.digests.serialize())
      << "trial " << trial;
  EXPECT_EQ(fresh.recovery_digest, pooled.recovery_digest)
      << "trial " << trial;
  EXPECT_EQ(fresh.recovery_state, pooled.recovery_state)
      << "trial " << trial;
  EXPECT_EQ(fresh.summary(), pooled.summary()) << "trial " << trial;
}

/// Run trials 0..n-1 of `cfg` twice — pooling off (every trial builds a
/// fresh System) and pooling on (trials reuse reset Systems out of the
/// thread-local pool) — and require byte-identical outcomes. Telemetry is
/// on so the comparison covers the full latency-digest stream, not just
/// the aggregate counters.
void check_reset_identity(const check::ChaosConfig& cfg, std::uint64_t n) {
  PoolingGuard guard;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto spec = check::generate_trial(cfg, i);
    check::set_trial_system_pooling(false);
    const auto fresh = check::run_trial(spec, /*telemetry=*/true);
    check::set_trial_system_pooling(true);
    const auto pooled = check::run_trial(spec, /*telemetry=*/true);
    expect_outcomes_identical(fresh, pooled, i);
  }
}

}  // namespace

// Randomized classic trials: mixed profiles, IOMMU arming, workloads and
// fault plans. The pooled pass reuses Systems across iterations (the pool
// persists between loop rounds), so later trials genuinely exercise
// reset-after-a-faulted-run, not just reset-after-construction.
TEST(SystemReset, PooledTrialsMatchFreshAcrossRandomizedSpecs) {
  check::ChaosConfig cfg;
  cfg.master_seed = 0x5e5e7;
  cfg.trials = 24;
  cfg.iterations = 60;
  cfg.shrink = false;
  check_reset_identity(cfg, 24);
}

// Same property with the recovery ladder armed in every trial: reset must
// tear down the previous trial's RecoveryManager/AER listener wiring and
// re-arm cleanly (digest and final state included in the comparison).
TEST(SystemReset, PooledTrialsMatchFreshWithRecoveryArmed) {
  check::ChaosConfig cfg;
  cfg.master_seed = 0x4ec0;
  cfg.trials = 12;
  cfg.iterations = 60;
  cfg.shrink = false;
  cfg.recovery = fault::parse_recovery_policy("default");
  check_reset_identity(cfg, 12);
}

// The seeded-bug flag must not leak through the pool: a trial that arms
// test_leak_credits_on_drop followed by one that doesn't (same system
// shape, hence same pooled System) must leave the second trial clean.
TEST(SystemReset, SeededBugDoesNotLeakThroughThePool) {
  PoolingGuard guard;
  check::ChaosConfig cfg;
  cfg.master_seed = 0xb19;
  cfg.iterations = 60;
  auto spec = check::generate_trial(cfg, 0);

  check::set_trial_system_pooling(false);
  const auto clean_fresh = check::run_trial(spec);

  check::set_trial_system_pooling(true);
  auto bugged = spec;
  bugged.seed_credit_leak_bug = true;
  (void)check::run_trial(bugged);
  const auto clean_pooled = check::run_trial(spec);
  expect_outcomes_identical(clean_fresh, clean_pooled, 0);
}

// Library-level reset identity: reset() with the same config must replay
// the construction-time state exactly — a latency bench on a reset System
// produces bit-identical samples to one on a fresh System, even after the
// first System already ran a different (bandwidth) workload.
TEST(SystemReset, ResetSystemReproducesFreshLatencySamples) {
  const auto cfg = sys::nfp6000_hsw().config;

  core::BenchParams bw;
  bw.kind = core::BenchKind::BwWr;
  bw.iterations = 200;
  core::BenchParams lat;
  lat.kind = core::BenchKind::LatRd;
  lat.iterations = 300;
  lat.warmup = 50;

  sim::System fresh(cfg);
  const auto want = core::run_latency_bench(fresh, lat);

  sim::System reused(cfg);
  (void)core::run_bandwidth_bench(reused, bw);  // dirty every component
  reused.reset(cfg);
  const auto got = core::run_latency_bench(reused, lat);

  const auto& a = want.samples_ns.raw();
  const auto& b = got.samples_ns.raw();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "sample " << i;
  }
  EXPECT_EQ(want.summary.median_ns, got.summary.median_ns);
}

// The same identity on shared ports: one tenant-shaped System per shape
// runs another vf-scoped plan, is reset() with the real one and must
// replay a fresh System exactly — every VF's latency digest, counter line
// and recovery digest, the executed events, the blast-radius tally and
// the port log. reset() drops the links' TDM lanes and the IOMMU's
// domains; wiring rebuilds them, along with the RIDs and per-VF AER
// routing.
TEST(SystemReset, SharedPortResetReproducesFreshTenantRun) {
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

    sim::System fresh(cfg);
    const std::string want = artifact(fresh);
    // Not vacuous: a lost posted write is fatal, the ladder escalates to a
    // device-wide hot reset, and reset() must rewind the blast-radius
    // tally and every port-wide latch.
    EXPECT_GT(fresh.device_wide_actions(), 0u) << shape.name;

    sim::System reused(other);
    (void)artifact(reused);
    reused.reset(cfg);
    EXPECT_EQ(artifact(reused), want) << shape.name;
  }
}

// Pooling must be on by default (the perf win run_campaign relies on) and
// the toggle must round-trip.
TEST(SystemReset, PoolingDefaultsOnAndToggles) {
  PoolingGuard guard;
  check::set_trial_system_pooling(true);
  EXPECT_TRUE(check::trial_system_pooling());
  check::set_trial_system_pooling(false);
  EXPECT_FALSE(check::trial_system_pooling());
}
