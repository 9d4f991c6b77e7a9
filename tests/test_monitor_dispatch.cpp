// Devirtualized monitor dispatch (sim::Simulator::add_monitor): the
// flattened (fn, ctx) slot array that replaced the std::function check
// hook. Pins the dispatch mechanics — registration order, removal
// shift-down, slot exhaustion — and the observational contract mirrored
// from the telemetry identity test: arming check::MonitorSuite must not
// change one bit of simulated behaviour.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "check/monitors.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

using namespace pcieb;

namespace {

/// Appends its slot id to a shared log on every dispatch — firing order
/// IS registration order, so the log exposes the slot array's layout.
struct OrderProbe {
  int id = 0;
  std::vector<int>* log = nullptr;
  static void fire(void* ctx, Picos /*now*/) {
    auto* p = static_cast<OrderProbe*>(ctx);
    p->log->push_back(p->id);
  }
};

}  // namespace

TEST(MonitorDispatch, MonitorsFireInRegistrationOrderPerEvent) {
  sim::Simulator sim;
  std::vector<int> log;
  OrderProbe a{1, &log}, b{2, &log}, c{3, &log};
  sim.add_monitor(&OrderProbe::fire, &a);
  sim.add_monitor(&OrderProbe::fire, &b);
  sim.add_monitor(&OrderProbe::fire, &c);
  EXPECT_EQ(sim.monitor_count(), 3u);

  sim.after(10, [] {});
  sim.after(20, [] {});
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 1, 2, 3}));
}

TEST(MonitorDispatch, RemovalShiftsDownPreservingOrder) {
  sim::Simulator sim;
  std::vector<int> log;
  OrderProbe a{1, &log}, b{2, &log}, c{3, &log};
  sim.add_monitor(&OrderProbe::fire, &a);
  sim.add_monitor(&OrderProbe::fire, &b);
  sim.add_monitor(&OrderProbe::fire, &c);

  sim.remove_monitor(&OrderProbe::fire, &b);  // matched by (fn, ctx) pair
  EXPECT_EQ(sim.monitor_count(), 2u);
  sim.remove_monitor(&OrderProbe::fire, &b);  // unknown pair: ignored
  EXPECT_EQ(sim.monitor_count(), 2u);

  sim.after(10, [] {});
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 3}));
}

TEST(MonitorDispatch, SlotExhaustionAndNullFnThrow) {
  sim::Simulator sim;
  std::vector<int> log;
  std::vector<OrderProbe> probes(sim::Simulator::kMaxMonitors);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probes[i] = {static_cast<int>(i), &log};
    sim.add_monitor(&OrderProbe::fire, &probes[i]);
  }
  EXPECT_EQ(sim.monitor_count(), sim::Simulator::kMaxMonitors);
  OrderProbe extra{99, &log};
  EXPECT_THROW(sim.add_monitor(&OrderProbe::fire, &extra), std::logic_error);
  EXPECT_THROW(sim.add_monitor(nullptr, nullptr), std::logic_error);
}

// MonitorSuite registers one devirtualized slot that runs every per-step
// invariant (clock, then bleed/credits/tags per function, then replay),
// and its destructor removes exactly its own.
TEST(MonitorDispatch, MonitorSuiteOwnsOneSlotAndDetachesOnDestruction) {
  sim::System system(sys::nfp6000_hsw().config);
  EXPECT_EQ(system.sim().monitor_count(), 0u);
  {
    check::MonitorSuite suite(system);
    EXPECT_EQ(system.sim().monitor_count(), 1u);
  }
  EXPECT_EQ(system.sim().monitor_count(), 0u);
}

// The PR-6 telemetry mirror, one layer over: a bench run with the
// invariant monitors armed must produce bit-identical samples to one
// without — monitors observe, they never steer. Same (time,
// schedule-order) stream, same latency samples, same summary.
TEST(MonitorDispatch, ArmedBenchMatchesDisarmedBitForBit) {
  core::BenchParams p;
  p.kind = core::BenchKind::LatRd;
  p.iterations = 400;
  p.warmup = 50;

  sim::System bare_sys(sys::nfp6000_hsw().config);
  const auto bare = core::run_latency_bench(bare_sys, p);

  sim::System armed_sys(sys::nfp6000_hsw().config);
  check::MonitorSuite suite(armed_sys);
  const auto armed = core::run_latency_bench(armed_sys, p);
  suite.check_quiescent();
  EXPECT_TRUE(suite.ok());

  const auto& a = bare.samples_ns.raw();
  const auto& b = armed.samples_ns.raw();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "sample " << i;
  }
  EXPECT_EQ(bare.summary.median_ns, armed.summary.median_ns);
  EXPECT_EQ(bare_sys.sim().executed(), armed_sys.sim().executed());
}

// The same contract over a tenant port: one suite watching three VFs'
// ledgers must leave every VF's latency digest, counter line and the
// executed-event count exactly as an unwatched run produces them.
TEST(MonitorDispatch, ArmedTenantBenchMatchesDisarmedBitForBit) {
  sim::SystemConfig cfg = sys::nfp6000_hsw().config;
  cfg.tenants = 3;
  core::BenchParams p;
  p.kind = core::BenchKind::BwRdWr;
  p.transfer_size = 256;
  p.window_bytes = 1ull << 20;
  p.iterations = 300;
  p.warmup = 20;

  sim::System bare_sys(cfg);
  const auto bare = core::run_tenant_bench(bare_sys, p);

  sim::System armed_sys(cfg);
  check::MonitorSuite suite(armed_sys);
  EXPECT_EQ(armed_sys.sim().monitor_count(), 1u);
  const auto armed = core::run_tenant_bench(armed_sys, p);
  suite.check_quiescent();
  EXPECT_TRUE(suite.ok()) << suite.report();

  ASSERT_EQ(bare.size(), 3u);
  ASSERT_EQ(armed.size(), 3u);
  for (unsigned vf = 0; vf < 3; ++vf) {
    EXPECT_EQ(bare[vf].latency.serialize(), armed[vf].latency.serialize())
        << "vf " << vf;
    EXPECT_EQ(bare[vf].counters, armed[vf].counters) << "vf " << vf;
  }
  EXPECT_EQ(bare_sys.sim().executed(), armed_sys.sim().executed());
}
