// Invariant monitors: clean and faulted runs hold every invariant, the
// deliberately seeded credit-return omission is caught at quiesce, throw
// mode raises InvariantError, detaching a suite frees the hook slot, and
// on a multi-device System every port is checked and every detail names
// its device.
#include <gtest/gtest.h>

#include <string>

#include "check/monitors.hpp"
#include "core/multi_runner.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb {
namespace {

core::BenchParams small_write_bench(std::size_t iterations = 300) {
  core::BenchParams p;
  p.kind = core::BenchKind::BwWr;
  p.transfer_size = 256;
  p.window_bytes = 8192;
  p.pattern = core::AccessPattern::Sequential;
  p.cache_state = core::CacheState::HostWarm;
  p.numa_local = true;
  p.iterations = iterations;
  return p;
}

TEST(Monitors, CleanRunHoldsEveryInvariant) {
  sim::System system(sys::profile_by_name("NFP6000-HSW").config);
  check::MonitorSuite suite(system);
  core::run_bandwidth_bench(system, small_write_bench());
  suite.check_quiescent();
  EXPECT_TRUE(suite.ok()) << suite.report();
  EXPECT_EQ(suite.total_violations(), 0u);
  EXPECT_NE(suite.report().find("all invariants held"), std::string::npos);
}

TEST(Monitors, FaultedRunHoldsEveryInvariant) {
  // Drops, corruption and ack loss all exercise the recovery paths the
  // conservation laws must survive — losses are accounted, not leaked.
  auto cfg = sys::profile_by_name("NFP6000-HSW").config;
  cfg.fault_plan =
      fault::parse_plan("drop@every=150;corrupt@prob=0.01;ack-loss@every=700");
  sim::System system(cfg);
  check::MonitorSuite suite(system);
  core::run_bandwidth_bench(system, small_write_bench(500));
  suite.check_quiescent();
  EXPECT_TRUE(suite.ok()) << suite.report();
}

TEST(Monitors, FaultedReadRunHoldsEveryInvariant) {
  auto cfg = sys::profile_by_name("NetFPGA-HSW").config;
  cfg.fault_plan = fault::parse_plan("cpl-ur@every=90;poison@prob=0.01");
  sim::System system(cfg);
  check::MonitorSuite suite(system);
  auto p = small_write_bench(400);
  p.kind = core::BenchKind::BwRd;
  core::run_bandwidth_bench(system, p);
  suite.check_quiescent();
  EXPECT_TRUE(suite.ok()) << suite.report();
}

TEST(Monitors, SeededCreditLeakCaughtAtQuiesce) {
  auto cfg = sys::profile_by_name("NFP6000-HSW").config;
  cfg.fault_plan = fault::parse_plan("drop@every=100,dir=up");
  sim::System system(cfg);
  system.test_leak_credits_on_drop(true);

  check::MonitorSuite suite(system);
  core::run_bandwidth_bench(system, small_write_bench(400));
  suite.check_quiescent();

  ASSERT_FALSE(suite.ok()) << "seeded credit leak went undetected";
  ASSERT_FALSE(suite.violations().empty());
  const auto& v = suite.violations().front();
  EXPECT_EQ(v.monitor, "credits");
  EXPECT_NE(v.detail.find("leaked"), std::string::npos) << v.format();
}

TEST(Monitors, ThrowModeRaisesInvariantError) {
  auto cfg = sys::profile_by_name("NFP6000-HSW").config;
  cfg.fault_plan = fault::parse_plan("drop@every=100,dir=up");
  sim::System system(cfg);
  system.test_leak_credits_on_drop(true);

  check::MonitorConfig mc;
  mc.throw_on_violation = true;
  check::MonitorSuite suite(system, mc);
  core::run_bandwidth_bench(system, small_write_bench(400));
  try {
    suite.check_quiescent();
    FAIL() << "expected InvariantError";
  } catch (const check::InvariantError& e) {
    EXPECT_EQ(e.violation().monitor, "credits");
    EXPECT_NE(std::string(e.what()).find("credits"), std::string::npos);
  }
}

TEST(Monitors, DetachFreesTheHookSlot) {
  sim::System system(sys::profile_by_name("NetFPGA-HSW").config);
  {
    check::MonitorSuite suite(system);
    core::run_bandwidth_bench(system, small_write_bench(100));
    suite.check_quiescent();
    EXPECT_TRUE(suite.ok());
  }
  // A second suite can attach to the same system, and mid-life attachment
  // baselines the payload ledgers so prior traffic is not double-counted.
  check::MonitorSuite again(system);
  core::run_bandwidth_bench(system, small_write_bench(100));
  again.check_quiescent();
  EXPECT_TRUE(again.ok()) << again.report();
}

TEST(Monitors, CheckNowOnFreshSystemPasses) {
  sim::System system(sys::profile_by_name("NFP6000-HSW").config);
  check::MonitorSuite suite(system);
  suite.check_now();
  suite.check_quiescent();
  EXPECT_TRUE(suite.ok()) << suite.report();
}

sim::SystemConfig three_devices(const std::string& plan = "") {
  auto cfg = sys::nfp6000_bdw().config;
  cfg.devices = 3;
  cfg.recovery = fault::parse_recovery_policy("default");
  if (!plan.empty()) cfg.fault_plan = fault::parse_plan(plan);
  return cfg;
}

/// 256 B reads on every device of `system` to completion under
/// throw-mode monitors.
void run_reads_monitored(sim::System& system) {
  check::MonitorConfig mc;
  mc.throw_on_violation = true;
  check::MonitorSuite suite(system, mc);
  core::MultiDeviceSpec spec;
  spec.transfer_size = 256;
  const auto r = core::run_multi_device_bandwidth(system, spec);
  suite.check_quiescent();
  EXPECT_TRUE(suite.ok()) << suite.report();
  EXPECT_EQ(r.per_device_gbps.size(), system.function_count());
}

TEST(Monitors, MultiDeviceLinkFaultStaysOnItsDevice) {
  // run_multi_device_bandwidth gives device d a 64 MB buffer at
  // 0x4000'0000 + d * 2^38; the drop clause matches only device 1's TLPs.
  sim::System system(
      three_devices("drop@every=300,addr=0x4040000000-0x4043ffffff"));
  run_reads_monitored(system);

  EXPECT_GT(system.aer(1).total(fault::ErrorSeverity::NonFatal), 0u);
  EXPECT_GT(system.device(1).read_retries(), 0u);
  EXPECT_GT(system.recovery(1)->transitions(), 0u);
  for (const unsigned d : {0u, 2u}) {
    EXPECT_EQ(system.aer(d).recorded(), 0u) << "dev" << d;
    EXPECT_EQ(system.device(d).read_retries(), 0u) << "dev" << d;
    EXPECT_EQ(system.recovery(d)->transitions(), 0u) << "dev" << d;
  }
  EXPECT_EQ(system.port_aer().recorded(), 0u);
}

TEST(Monitors, MultiDeviceCompletionFaultStaysOnItsDevice) {
  // Each port numbers its own completions, so every= scoped to device 1's
  // buffer counts device 1's completions alone and fires there.
  sim::System system(
      three_devices("cpl-ur@every=300,addr=0x4040000000-0x4043ffffff"));
  run_reads_monitored(system);

  const std::uint64_t urs =
      system.aer(1).count(fault::ErrorType::UnsupportedRequest);
  EXPECT_GT(urs, 0u);
  EXPECT_EQ(urs, system.fault_injector()->injected(fault::FaultKind::CplUr));
  for (const unsigned d : {0u, 2u}) {
    EXPECT_EQ(system.aer(d).recorded(), 0u) << "dev" << d;
  }
  EXPECT_EQ(system.port_aer().recorded(), 0u);
}

TEST(Monitors, MultiDeviceDetailsNameTheirDevice) {
  // A link-down on device 1 contains only its port. Checked before the
  // holdoff ends, its ladder is still mid-flight, and the one violation
  // says whose it is.
  sim::System system(three_devices());
  check::MonitorSuite suite(system);
  system.aer(1).record(fault::ErrorType::SurpriseLinkDown, 0);
  system.sim().run_until(from_nanos(1));
  ASSERT_EQ(system.recovery(1)->state(), fault::RecoveryState::Contained);
  EXPECT_TRUE(system.upstream(1).blocked());
  EXPECT_TRUE(system.downstream(1).blocked());
  for (const unsigned d : {0u, 2u}) {
    EXPECT_FALSE(system.upstream(d).blocked()) << "dev" << d;
    EXPECT_FALSE(system.downstream(d).blocked()) << "dev" << d;
    EXPECT_EQ(system.recovery(d)->state(), fault::RecoveryState::Operational);
  }
  suite.check_quiescent();

  ASSERT_EQ(suite.total_violations(), 1u) << suite.report();
  const check::Violation& v = suite.violations().front();
  EXPECT_EQ(v.monitor, "recovery");
  EXPECT_EQ(v.detail.rfind("dev1: ladder did not converge", 0), 0u)
      << v.format();
}

}  // namespace
}  // namespace pcieb
