// Open-loop overload datapath (nic/overload) and its invariant monitors
// (check/overload_monitors): frame-accounting conservation under clean
// and composed-fault runs, PAUSE budget bounds, admission tail-drop,
// deterministic calibration, the planted receive-livelock bug being
// caught, and the canonical ledger round trip.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "check/chaos.hpp"
#include "check/monitors.hpp"
#include "check/overload_monitors.hpp"
#include "fault/plan.hpp"
#include "nic/overload.hpp"
#include "obs/counters.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

using namespace pcieb;

namespace {

nic::OverloadConfig small_overload() {
  nic::OverloadConfig cfg;
  cfg.frame_bytes = 256;
  cfg.ring_slots = 128;
  cfg.frames = 2000;
  cfg.offered_load = 2.0;
  cfg.seed = 7;
  return cfg;
}

sim::SystemConfig clean_system() { return sys::netfpga_hsw().config; }

}  // namespace

TEST(ServiceModeTest, RoundTripAndRejects) {
  EXPECT_EQ(nic::parse_service_mode("poll"), nic::ServiceMode::BusyPoll);
  EXPECT_EQ(nic::parse_service_mode("coalesce"), nic::ServiceMode::Coalesce);
  EXPECT_STREQ(nic::to_string(nic::ServiceMode::BusyPoll), "poll");
  EXPECT_STREQ(nic::to_string(nic::ServiceMode::Coalesce), "coalesce");
  EXPECT_THROW(nic::parse_service_mode("napi"), std::invalid_argument);
  EXPECT_THROW(nic::parse_service_mode(""), std::invalid_argument);
}

TEST(OverloadConfigTest, ValidateRejectsBadKnobs) {
  nic::OverloadConfig cfg;
  cfg.frame_bytes = 32;  // below the 60 B minimum frame
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.ring_slots = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.ring_slots = 4;  // < OverloadConfig::kDoorbellBatch
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.offered_load = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(OverloadTest, RunRequiresCalibratedCapacity) {
  sim::System system(clean_system());
  EXPECT_THROW(nic::run_overload(system, small_overload()),
               std::invalid_argument);
}

TEST(OverloadTest, CalibrationIsDeterministicAndPositive) {
  const auto cfg = small_overload();
  const auto a = nic::calibrate_capacity(clean_system(), cfg);
  const auto b = nic::calibrate_capacity(clean_system(), cfg);
  EXPECT_GT(a, 0u);
  EXPECT_EQ(a, b);
  // A faulted system calibrates against the stripped (healthy) path, so
  // the scale does not move when a fault plan rides along.
  auto faulted = clean_system();
  faulted.fault_plan = fault::parse_plan("drop@every=40,dir=up");
  EXPECT_EQ(nic::calibrate_capacity(faulted, cfg), a);
}

TEST(OverloadTest, ConservationHoldsAtTwiceCapacity) {
  check::OverloadMonitorSuite monitors;
  const auto r =
      nic::run_overload_point(clean_system(), small_overload(),
                              monitors.probe());
  EXPECT_TRUE(monitors.ok()) << monitors.report();
  EXPECT_TRUE(monitors.quiesced());
  const auto& st = r.stats;
  EXPECT_EQ(st.offered, small_overload().frames);
  EXPECT_EQ(st.offered, st.delivered + st.dropped_total());
  EXPECT_EQ(st.in_flight(), 0u);
  // 2x load without backpressure must shed at the ring, and goodput must
  // stay within capacity.
  EXPECT_GT(st.dropped_ring, 0u);
  EXPECT_GT(st.delivered, 0u);
  EXPECT_LT(r.goodput_pps, 1.25 * static_cast<double>(r.capacity_pps));
}

TEST(OverloadTest, UnderloadDeliversEverything) {
  auto cfg = small_overload();
  cfg.offered_load = 0.5;
  check::OverloadMonitorSuite monitors;
  const auto r =
      nic::run_overload_point(clean_system(), cfg, monitors.probe());
  EXPECT_TRUE(monitors.ok()) << monitors.report();
  EXPECT_EQ(r.stats.delivered, cfg.frames);
  EXPECT_EQ(r.stats.dropped_total(), 0u);
}

TEST(OverloadTest, PauseTimeNeverExceedsBudget) {
  auto cfg = small_overload();
  cfg.backpressure = true;
  cfg.pause_budget = from_micros(20);  // deliberately tight
  cfg.offered_load = 4.0;
  check::OverloadMonitorSuite monitors;
  const auto r =
      nic::run_overload_point(clean_system(), cfg, monitors.probe());
  EXPECT_TRUE(monitors.ok()) << monitors.report();
  EXPECT_GT(r.stats.pause_events, 0u);
  EXPECT_LE(r.stats.pause_ps, cfg.pause_budget);
  // Budget exhausted at 4x: the overrun dies at the MAC, not the ring.
  EXPECT_GT(r.stats.dropped_mac, 0u);
  EXPECT_EQ(r.stats.dropped_ring, 0u);
}

TEST(OverloadTest, AdmissionControlCapsTheBacklog) {
  auto cfg = small_overload();
  cfg.service = nic::ServiceMode::Coalesce;
  cfg.admission_slots = 24;
  check::OverloadMonitorSuite monitors;
  const auto r =
      nic::run_overload_point(clean_system(), cfg, monitors.probe());
  EXPECT_TRUE(monitors.ok()) << monitors.report();
  EXPECT_GT(r.stats.dropped_admission, 0u);
  EXPECT_LE(r.stats.backlog_max, 24u);
}

TEST(OverloadTest, ConservationHoldsUnderComposedFaultPlan) {
  auto sys_cfg = clean_system();
  sys_cfg.fault_plan =
      fault::parse_plan("drop@every=60,dir=down;cpl-ca@nth=300");
  sys_cfg.fault_plan.seed = 0x5eed;
  auto cfg = small_overload();
  cfg.service = nic::ServiceMode::Coalesce;
  cfg.backpressure = true;
  check::OverloadMonitorSuite monitors;
  // The PCIe-level monitors ride along: overload must not break credit/
  // tag/payload conservation either.
  cfg.capacity_pps = nic::calibrate_capacity(sys_cfg, cfg);
  sim::System system(sys_cfg);
  check::MonitorSuite pcie(system);
  const auto r = nic::run_overload(system, cfg, monitors.probe());
  pcie.check_quiescent();
  EXPECT_TRUE(pcie.ok()) << pcie.report();
  EXPECT_TRUE(monitors.ok()) << monitors.report();
  EXPECT_EQ(r.stats.offered, r.stats.delivered + r.stats.dropped_total());
}

TEST(OverloadTest, PlantedLivelockIsCaughtByProgressMonitor) {
  auto cfg = small_overload();
  cfg.service = nic::ServiceMode::Coalesce;
  cfg.test_livelock_bug = true;
  check::OverloadMonitorSuite monitors;
  const auto r =
      nic::run_overload_point(clean_system(), cfg, monitors.probe());
  (void)r;
  ASSERT_FALSE(monitors.ok());
  bool progress = false;
  for (const auto& v : monitors.violations()) {
    if (std::string(v.monitor) == "overload.progress") progress = true;
  }
  EXPECT_TRUE(progress) << monitors.report();
}

TEST(OverloadTest, LivelockThrowsInThrowMode) {
  auto cfg = small_overload();
  cfg.service = nic::ServiceMode::Coalesce;
  cfg.test_livelock_bug = true;
  check::MonitorConfig mc;
  mc.throw_on_violation = true;
  check::OverloadMonitorSuite monitors(mc);
  EXPECT_THROW(
      nic::run_overload_point(clean_system(), cfg, monitors.probe()),
      check::InvariantError);
}

TEST(OverloadTest, LedgerRoundTripsThroughParse) {
  const auto r = nic::run_overload_point(clean_system(), small_overload());
  std::uint64_t offered = 0, delivered = 0, dropped = 0;
  ASSERT_TRUE(
      check::parse_overload_ledger(r.ledger(), offered, delivered, dropped));
  EXPECT_EQ(offered, r.stats.offered);
  EXPECT_EQ(delivered, r.stats.delivered);
  EXPECT_EQ(dropped, r.stats.dropped_total());
  EXPECT_FALSE(check::parse_overload_ledger("", offered, delivered, dropped));
  EXPECT_FALSE(check::parse_overload_ledger("offered=nonsense", offered,
                                            delivered, dropped));
}

TEST(OverloadTest, ResultsAreDeterministicAcrossRepeats) {
  auto cfg = small_overload();
  cfg.service = nic::ServiceMode::Coalesce;
  cfg.backpressure = true;
  const auto a = nic::run_overload_point(clean_system(), cfg);
  const auto b = nic::run_overload_point(clean_system(), cfg);
  EXPECT_EQ(a.ledger(), b.ledger());
  EXPECT_EQ(a.latency.serialize(), b.latency.serialize());
  EXPECT_EQ(a.capacity_pps, b.capacity_pps);
}

TEST(OverloadTest, CountersRegisterAndRead) {
  const auto r = nic::run_overload_point(clean_system(), small_overload());
  obs::CounterRegistry reg;
  nic::register_overload_counters(reg, r);
  EXPECT_TRUE(reg.contains("nic.overload.offered"));
  EXPECT_EQ(reg.value("nic.overload.offered"),
            static_cast<double>(r.stats.offered));
  EXPECT_EQ(reg.value("nic.overload.dropped.ring"),
            static_cast<double>(r.stats.dropped_ring));
  EXPECT_EQ(reg.value("nic.overload.ring.max_pending"),
            static_cast<double>(r.stats.ring_max_pending));
}

TEST(OverloadChaosTest, OverloadTrialsCompose) {
  check::ChaosConfig cfg;
  cfg.trials = 4;
  cfg.iterations = 600;
  cfg.shrink = false;
  cfg.offered_load = 2.0;
  cfg.service = nic::ServiceMode::Coalesce;
  cfg.backpressure = true;
  std::size_t armed = 0;
  const auto result = check::run_campaign(
      cfg, [&](const check::TrialSpec& spec, const check::TrialOutcome& out) {
        EXPECT_TRUE(spec.overload_armed);
        EXPECT_FALSE(out.overload.empty());
        ++armed;
      });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(armed, 4u);
  EXPECT_GT(result.overload_offered, 0u);
  EXPECT_EQ(result.overload_offered,
            result.overload_delivered + result.overload_dropped +
                (result.overload_offered - result.overload_delivered -
                 result.overload_dropped));
  // The ledger sums are conservation-consistent per trial, so the
  // campaign totals must be too.
  EXPECT_EQ(result.overload_offered,
            result.overload_delivered + result.overload_dropped);
}

TEST(OverloadChaosTest, ReproCommandNamesOverloadSubcommand) {
  check::ChaosConfig cfg;
  cfg.offered_load = 2.0;
  cfg.backpressure = true;
  const auto spec = check::generate_trial(cfg, 0);
  ASSERT_TRUE(spec.overload_armed);
  const std::string repro = spec.repro_command();
  EXPECT_NE(repro.find("pciebench overload"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--offered-load"), std::string::npos);
  EXPECT_NE(repro.find("--backpressure on"), std::string::npos);
  EXPECT_NE(repro.find("--monitors"), std::string::npos);
}
