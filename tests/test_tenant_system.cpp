// SR-IOV multi-tenant system tests: construction validation, per-VF
// workload independence, the canonical counters_line schema, the armed
// differential identity (victim artifact invariant under an attacker's
// vf-scoped fault plan), blast-radius accounting with shared recovery,
// the seeded misroute bug firing the bleed monitor, per-VF ladder
// convergence, VF-attributed watchdog deadlock reports, and a one-function
// port behaving as the plain System whatever its tenant knobs say. See
// docs/ISOLATION.md.
#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "check/monitors.hpp"
#include "core/runner.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "fault/watchdog.hpp"
#include "obs/counters.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb {
namespace {

sim::SystemConfig tenant_cfg(unsigned tenants, const std::string& faults = "") {
  sim::SystemConfig cfg = sys::profile_by_name("NFP6000-HSW").config;
  if (!faults.empty()) cfg.fault_plan = fault::parse_plan(faults);
  cfg.tenants = tenants;
  return cfg;
}

core::BenchParams bench_params(core::BenchKind kind,
                               std::size_t iterations = 300) {
  core::BenchParams p;
  p.kind = kind;
  p.transfer_size = 256;
  p.window_bytes = 1ull << 20;
  p.iterations = iterations;
  p.warmup = 0;
  p.seed = 7;
  return p;
}

TEST(TenantSystemTest, CtorValidatesConfig) {
  const auto build = [](const sim::SystemConfig& cfg) {
    sim::System system(cfg);
  };
  EXPECT_THROW(build(tenant_cfg(0)), std::invalid_argument);
  EXPECT_THROW(build(tenant_cfg(65)), std::invalid_argument);
  auto bad_weights = tenant_cfg(2);
  bad_weights.weights = {1, 2, 3};  // size != tenants
  EXPECT_THROW(build(bad_weights), std::invalid_argument);
  auto zero_weight = tenant_cfg(2);
  zero_weight.weights = {1, 0};
  EXPECT_THROW(build(zero_weight), std::invalid_argument);
  auto bad_quota = tenant_cfg(2);
  bad_quota.ddio_quota = {2};  // size != tenants
  EXPECT_THROW(build(bad_quota), std::invalid_argument);
  // A shared FIFO link has no lanes to weight and a shared uncore no
  // slices to give a quota: weakened isolation rejects both knobs.
  auto fifo_weights = tenant_cfg(4);
  fifo_weights.isolation = sim::TenantIsolation::all_weakened();
  fifo_weights.weights = {8, 1, 1, 1};
  EXPECT_THROW(build(fifo_weights), std::invalid_argument);
  auto shared_quota = tenant_cfg(4);
  shared_quota.isolation = sim::TenantIsolation::all_weakened();
  shared_quota.ddio_quota = {1, 1, 1, 1};
  EXPECT_THROW(build(shared_quota), std::invalid_argument);
}

TEST(TenantSystemTest, ArmedTenantsCompleteIndependentWorkloads) {
  sim::System system(tenant_cfg(3));
  check::MonitorSuite monitors(system);
  const auto results =
      core::run_tenant_bench(system, bench_params(core::BenchKind::BwRd));
  monitors.check_quiescent();
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_EQ(r.ops, 300u);
    EXPECT_EQ(r.latency.count(), 300u) << "vf " << r.vf;
    EXPECT_GT(r.goodput_gbps, 0.0) << "vf " << r.vf;
    EXPECT_EQ(r.lost_payload_bytes, 0u) << "vf " << r.vf;
    EXPECT_EQ(system.device(r.vf).foreign_tlps(), 0u) << "vf " << r.vf;
  }
  EXPECT_TRUE(monitors.ok()) << monitors.report();
  EXPECT_EQ(system.device_wide_actions(), 0u);
}

TEST(TenantSystemTest, CountersLineSchemaIsStable) {
  sim::System system(tenant_cfg(2));
  core::run_tenant_bench(system, bench_params(core::BenchKind::BwRdWr, 50));
  const std::string line = system.counters_line(1);
  // Space-separated k=v tokens, no empties, keys unique.
  std::istringstream is(line);
  std::vector<std::string> keys;
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    ASSERT_NE(eq, std::string::npos) << tok;
    ASSERT_GT(eq, 0u) << tok;
    keys.push_back(tok.substr(0, eq));
  }
  for (const char* expect :
       {"dev.reads_completed", "dev.foreign_tlps", "rc.writes_committed",
        "lane.up.tlps", "lane.down.replays", "iommu.hits", "iommu.remaps",
        "aer.correctable", "lost_write_bytes"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), expect), keys.end())
        << "missing key " << expect;
  }
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end())
      << "duplicate counter keys";
  // Weakened (shared-FIFO) lines keep the same schema, zero-padded.
  auto weak_cfg = tenant_cfg(2);
  weak_cfg.isolation = sim::TenantIsolation::all_weakened();
  sim::System weak(weak_cfg);
  std::istringstream ws(weak.counters_line(1));
  std::vector<std::string> weak_keys;
  while (ws >> tok) weak_keys.push_back(tok.substr(0, tok.find('=')));
  EXPECT_EQ(weak_keys, keys);
}

// The headline contract, checked directly (the chaos campaign checks it
// per-trial): with isolation armed, the victim's latency digest and
// counters are byte-identical whether the attacker's plan is armed or
// stripped.
TEST(TenantSystemTest, ArmedDifferentialIdentityHolds) {
  const auto victim_artifact = [](const std::string& faults) {
    sim::System system(tenant_cfg(4, faults));
    const auto results =
        core::run_tenant_bench(system, bench_params(core::BenchKind::BwWr));
    std::string out;
    for (unsigned vf = 1; vf < 4; ++vf) {
      out += results.at(vf).latency.serialize() + "\n" +
             system.counters_line(vf) + "\n";
    }
    return out;
  };
  const std::string quiet = victim_artifact("");
  const std::string storm = victim_artifact("drop@every=15,dir=up,vf=0");
  EXPECT_EQ(storm, quiet);
}

TEST(TenantSystemTest, SharedRecoveryExpandsBlastRadius) {
  auto cfg = tenant_cfg(4, "drop@every=15,dir=up,vf=0");
  cfg.recovery = fault::parse_recovery_policy("default");
  cfg.isolation.vf_scoped_recovery = false;
  sim::System system(cfg);
  core::run_tenant_bench(system, bench_params(core::BenchKind::BwWr));
  // Every recovery action taken on behalf of vf0's ladder hit the whole
  // device; the expansion tally counted each one.
  EXPECT_GT(system.device_wide_actions(), 0u);

  // Scoped recovery under the same storm keeps the count to the inherent
  // device-wide escalations only (fewer actions than the shared ladder).
  auto scoped_cfg = tenant_cfg(4, "drop@every=15,dir=up,vf=0");
  scoped_cfg.recovery = fault::parse_recovery_policy("default");
  sim::System scoped(scoped_cfg);
  core::run_tenant_bench(scoped, bench_params(core::BenchKind::BwWr));
  EXPECT_LT(scoped.device_wide_actions(), system.device_wide_actions());

  // Fully weakened isolation expands it too: three VFs on one FIFO wire,
  // IO-TLB and uncore, where vf0's lost writes escalate its ladder.
  auto weakened_cfg = tenant_cfg(3, "drop@every=15,dir=up,vf=0");
  weakened_cfg.recovery = fault::parse_recovery_policy("default");
  weakened_cfg.isolation = sim::TenantIsolation::all_weakened();
  sim::System weakened(weakened_cfg);
  core::run_tenant_bench(weakened, bench_params(core::BenchKind::BwRdWr, 600));
  EXPECT_GT(weakened.device_wide_actions(), 0u);
}

TEST(TenantSystemTest, SeededMisrouteFiresBleedMonitor) {
  auto cfg = tenant_cfg(4, "drop@nth=5,vf=0");
  sim::System system(cfg);
  system.test_misroute_completions(true);
  check::MonitorSuite monitors(system);
  core::run_tenant_bench(system, bench_params(core::BenchKind::BwRd));
  // vf0's dropped upstream TLP armed a one-shot misroute: its next
  // completion was delivered to vf1 carrying vf0's RID, which vf1's
  // ingress guard counted and the bleed monitor flagged.
  EXPECT_GT(system.device(1).foreign_tlps(), 0u);
  ASSERT_FALSE(monitors.ok());
  bool bleed = false;
  for (const auto& v : monitors.violations()) {
    if (std::string(v.monitor) == "bleed") bleed = true;
  }
  EXPECT_TRUE(bleed) << monitors.report();
}

// The suite checks every VF's recovery ladder for convergence, as it does
// System's: a fatal record on vf1 moves that ladder to Contained
// synchronously, and with the simulator never run its hold-off never
// expires — a quiesce in that state is a liveness violation of vf1 alone.
TEST(TenantSystemTest, ConvergenceMonitorFlagsAStuckVfLadder) {
  auto cfg = tenant_cfg(4);
  cfg.recovery = fault::parse_recovery_policy("default");
  sim::System system(cfg);
  check::MonitorSuite monitors(system);
  system.aer(1).record(fault::ErrorType::SurpriseLinkDown, 0);
  ASSERT_EQ(system.recovery(1)->state(), fault::RecoveryState::Contained);
  monitors.check_quiescent();

  std::vector<check::Violation> recovery;
  for (const auto& v : monitors.violations()) {
    if (v.monitor == "recovery") recovery.push_back(v);
    for (const char* other : {"vf0", "vf2", "vf3"}) {
      EXPECT_EQ(v.detail.find(other), std::string::npos) << v.format();
    }
  }
  ASSERT_EQ(recovery.size(), 1u) << monitors.report();
  EXPECT_NE(recovery[0].detail.find("vf1"), std::string::npos);
  EXPECT_NE(recovery[0].detail.find("did not converge"), std::string::npos);
  EXPECT_EQ(monitors.total_violations(), 1u) << monitors.report();
}

// Satellite: a quiescent-deadlock report names the owning VF. The tag
// dump is rid-prefixed ("rid 00:00.<func>"), so a stuck read on vf2 is
// attributed to function 2, not just "some tag on the device".
TEST(TenantSystemTest, WatchdogDeadlockReportNamesOwningVf) {
  sim::System system(tenant_cfg(3));
  bool done = false;
  system.device(2).dma_read(0x1000, 256, [&] { done = true; });
  system.sim().run_until(from_nanos(1));  // in flight, nowhere near done
  ASSERT_FALSE(done);
  ASSERT_GT(system.device(2).pending_read_ops(), 0u);
  try {
    system.watchdog(2)->check_quiescent(system.sim().now());
    FAIL() << "expected WatchdogError";
  } catch (const fault::WatchdogError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("device.dma_read_ops"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rid 00:00.2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tags:"), std::string::npos) << msg;
  }
  // The healthy VFs' watchdogs see no outstanding work of their own.
  EXPECT_NO_THROW(system.watchdog(0)->check_quiescent(system.sim().now()));
  EXPECT_NO_THROW(system.watchdog(1)->check_quiescent(system.sim().now()));
  system.sim().run();  // drain so the read completes cleanly
  EXPECT_TRUE(done);
}

// A lone function owns the port, so the tenant knobs have nothing to act
// on: weakened isolation (no shared wire, IO-TLB or uncore to fall back
// to) and a single arbitration weight leave it the plain System. Under a
// drop/corrupt/poison/cpl-ur plan with the IOMMU and the recovery ladder
// armed, all three shapes give the same counters, AER log, ladder and
// result.
TEST(TenantSystemTest, OneFunctionPortIsThePlainSystem) {
  auto plain = sys::with_iommu(sys::profile_by_name("NFP6000-HSW").config,
                               true, 4096);
  plain.fault_plan = fault::parse_plan(
      "drop@every=1500,dir=up;corrupt@every=61,dir=down;"
      "poison@every=45,dir=down;cpl-ur@nth=700");
  plain.recovery = fault::parse_recovery_policy("default");
  auto weakened = plain;
  weakened.tenants = 1;
  weakened.isolation = sim::TenantIsolation::all_weakened();
  auto weighted = plain;
  weighted.tenants = 1;
  weighted.weights = {3};

  const auto outcome = [](const sim::SystemConfig& cfg) {
    sim::System system(cfg);
    const core::BandwidthResult r = core::run_bandwidth_bench(
        system, bench_params(core::BenchKind::BwRdWr, 1500));
    // The ladder took FLRs and a hot reset, and the port's own ladder
    // counted none of its actions as a blast-radius expansion.
    EXPECT_GT(system.recovery()->flrs(), 0u);
    EXPECT_GT(system.recovery()->hot_resets(), 0u);
    EXPECT_EQ(system.device_wide_actions(), 0u);
    obs::CounterRegistry reg;
    system.register_counters(reg);
    std::ostringstream os;
    os.precision(17);
    for (const auto& m : reg.snapshot()) os << m.name << '=' << m.value << ' ';
    os << '\n' << system.aer().to_table() << system.recovery()->digest()
       << '\n' << r.payload_bytes << ' ' << r.elapsed << ' '
       << r.lost_payload_bytes << ' ' << r.wire_bytes << ' ' << r.gbps << ' '
       << r.goodput_gbps << ' ' << system.sim().executed();
    return os.str();
  };
  const std::string want = outcome(plain);
  EXPECT_EQ(outcome(weakened), want);
  EXPECT_EQ(outcome(weighted), want);
}

}  // namespace
}  // namespace pcieb
