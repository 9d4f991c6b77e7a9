// End-to-end coverage of the fault-injection subsystem (PR 2): the spec
// grammar, every fault class through the composed system, recovery
// (DLL replay, completion-timeout retry, retrain), AER attribution that
// matches the injector's tallies exactly, bit-identical determinism, and
// the watchdog turning a swallowed completion into a diagnostic instead
// of a hang.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/runner.hpp"
#include "fault/aer.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/watchdog.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb {
namespace {

using core::BenchKind;
using core::BenchParams;
using fault::ErrorType;
using fault::FaultKind;

sim::SystemConfig faulted(const std::string& spec) {
  auto cfg = sys::netfpga_hsw().config;
  if (!spec.empty()) cfg.fault_plan = fault::parse_plan(spec);
  return cfg;
}

BenchParams lat_params(std::size_t iters) {
  BenchParams p;
  p.kind = BenchKind::LatRd;
  p.transfer_size = 64;
  p.window_bytes = 8192;
  p.cache_state = core::CacheState::HostWarm;
  p.iterations = iters;
  return p;
}

BenchParams bw_params(std::size_t iters) {
  BenchParams p;
  p.kind = BenchKind::BwWr;
  p.transfer_size = 256;
  p.window_bytes = 1 << 20;
  p.cache_state = core::CacheState::HostWarm;
  p.iterations = iters;
  return p;
}

// ---- spec grammar ----------------------------------------------------------

TEST(FaultPlanTest, ParsesEveryKindAndPredicate) {
  const auto plan = fault::parse_plan(
      "drop@nth=100,dir=down;"
      "corrupt@prob=0.001,count=5;"
      "ack-loss@every=50;"
      "poison@addr=0x1000-0x1fff;"
      "cpl-ur@time=10us-2ms;"
      "cpl-ca@nth=2;"
      "iommu@every=3;"
      "downtrain@time=50us-150us,lanes=4,gen=1");
  ASSERT_EQ(plan.rules.size(), 8u);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::LinkDrop);
  EXPECT_EQ(plan.rules[0].nth, 100u);
  EXPECT_EQ(plan.rules[0].dir, fault::LinkDir::Down);
  EXPECT_EQ(plan.rules[1].kind, FaultKind::LinkCorrupt);
  EXPECT_DOUBLE_EQ(plan.rules[1].prob, 0.001);
  EXPECT_EQ(plan.rules[1].count, 5u);
  EXPECT_FALSE(plan.rules[1].deterministic());
  EXPECT_EQ(plan.rules[2].kind, FaultKind::AckLoss);
  EXPECT_EQ(plan.rules[2].every, 50u);
  EXPECT_TRUE(plan.rules[2].deterministic());
  EXPECT_EQ(plan.rules[3].addr_lo, 0x1000u);
  EXPECT_EQ(plan.rules[3].addr_hi, 0x1fffu);
  EXPECT_EQ(plan.rules[4].from, from_micros(10));
  EXPECT_EQ(plan.rules[4].until, from_millis(2));
  EXPECT_EQ(plan.rules[5].kind, FaultKind::CplCa);
  EXPECT_EQ(plan.rules[6].kind, FaultKind::IommuFault);
  EXPECT_EQ(plan.rules[7].lanes, 4u);
  EXPECT_EQ(plan.rules[7].gen, 1u);
}

TEST(FaultPlanTest, DescribeRoundTrips) {
  const std::string spec =
      "drop@nth=7,dir=up;corrupt@count=3;downtrain@lanes=2";
  const auto plan = fault::parse_plan(spec);
  const auto reparsed = fault::parse_plan(plan.describe());
  ASSERT_EQ(reparsed.rules.size(), plan.rules.size());
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    EXPECT_EQ(reparsed.rules[i].kind, plan.rules[i].kind) << i;
    EXPECT_EQ(reparsed.rules[i].nth, plan.rules[i].nth) << i;
    EXPECT_EQ(reparsed.rules[i].count, plan.rules[i].count) << i;
    EXPECT_EQ(reparsed.rules[i].dir, plan.rules[i].dir) << i;
    EXPECT_EQ(reparsed.rules[i].lanes, plan.rules[i].lanes) << i;
  }
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::parse_plan(""), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("flip"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("drop@foo=1"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("drop@nth=0"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("drop@every=0"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("corrupt@prob=1.5"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("corrupt@prob=-0.1"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("cpl-ur@time=5us-1us"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("iommu@addr=8-4"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("drop@dir=sideways"), std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("downtrain@time=1us-2us"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_plan("downtrain@gen=7"), std::invalid_argument);
}

// ---- zero-cost when unarmed ------------------------------------------------

TEST(FaultSystemTest, NoPlanMeansNoMachinery) {
  sim::System system(faulted(""));
  EXPECT_FALSE(system.faults_armed());
  EXPECT_EQ(system.fault_injector(), nullptr);
  EXPECT_EQ(system.watchdog(), nullptr);
  EXPECT_FALSE(system.device().timeouts_armed());
  EXPECT_NO_THROW(system.check_deadlock());
}

// ---- each fault class through the composed system --------------------------

TEST(FaultSystemTest, DroppedWriteLosesExactlyItsPayload) {
  sim::System system(faulted("drop@nth=600,dir=up"));
  const auto r = core::run_bandwidth_bench(system, bw_params(1000));
  EXPECT_EQ(system.upstream().dropped(), 1u);
  EXPECT_EQ(r.lost_payload_bytes, 256u);
  EXPECT_EQ(system.function().lost_write_bytes(), 256u);
  EXPECT_LT(r.goodput_gbps, r.gbps);
  EXPECT_EQ(system.aer().count(ErrorType::TransactionFailed), 1u);
  EXPECT_EQ(system.fault_injector()->injected(FaultKind::LinkDrop), 1u);
}

TEST(FaultSystemTest, DroppedCompletionRetriesAndRecovers) {
  sim::System system(faulted("drop@nth=1,dir=down"));
  const auto r = core::run_latency_bench(system, lat_params(20));
  auto& dev = system.device();
  EXPECT_EQ(dev.completion_timeouts(), 1u);
  EXPECT_EQ(dev.read_retries(), 1u);
  EXPECT_EQ(dev.reads_failed(), 0u);
  EXPECT_EQ(dev.reads_completed(), 20u);
  EXPECT_EQ(r.samples_ns.count(), 20u);
  EXPECT_EQ(system.aer().count(ErrorType::CompletionTimeout), 1u);
  // The retried read pays the completion timeout; the other 19 do not.
  EXPECT_GT(r.summary.max_ns,
            to_nanos(system.device().profile().completion_timeout));
}

TEST(FaultSystemTest, RetryExhaustionFailsTheReadButTerminates) {
  // Every downstream TLP is dropped: no completion can ever arrive, so
  // each read burns its retries and is failed — the run still ends, the
  // DMA op still calls done, and the loss is attributed.
  sim::System system(faulted("drop@dir=down"));
  const auto r = core::run_latency_bench(system, lat_params(3));
  auto& dev = system.device();
  const unsigned retries = dev.profile().max_read_retries;
  EXPECT_EQ(dev.reads_failed(), 3u);
  EXPECT_EQ(dev.failed_read_bytes(), 3u * 64u);
  EXPECT_EQ(dev.read_retries(), 3u * retries);
  EXPECT_EQ(dev.completion_timeouts(), 3u * (retries + 1));
  EXPECT_EQ(r.samples_ns.count(), 3u);
  EXPECT_EQ(system.aer().count(ErrorType::TransactionFailed), 3u);
  EXPECT_EQ(system.aer().count(ErrorType::CompletionTimeout),
            3u * (retries + 1));
}

TEST(FaultSystemTest, CorruptionReplaysTransparently) {
  sim::System system(faulted("corrupt@every=100,dir=up"));
  const auto r = core::run_bandwidth_bench(system, bw_params(3000));
  EXPECT_GT(system.upstream().replays(), 0u);
  EXPECT_EQ(r.lost_payload_bytes, 0u);  // DLL recovery: no data loss
  EXPECT_DOUBLE_EQ(r.goodput_gbps, r.gbps);
  EXPECT_EQ(system.aer().count(ErrorType::BadTlp),
            system.fault_injector()->injected(FaultKind::LinkCorrupt));
  EXPECT_EQ(system.aer().total(fault::ErrorSeverity::Fatal), 0u);
}

TEST(FaultSystemTest, CorruptBurstEscalatesToRetrain) {
  // count=5 NAKs one TLP five times in a row — REPLAY_NUM (4) rolls over
  // and the link retrains instead of replaying forever.
  sim::System system(faulted("corrupt@nth=1,count=5,dir=up"));
  core::run_latency_bench(system, lat_params(5));
  EXPECT_EQ(system.upstream().retrains(), 1u);
  EXPECT_EQ(system.aer().count(ErrorType::ReplayNumRollover), 1u);
}

TEST(FaultSystemTest, AckLossExpiresReplayTimer) {
  sim::System system(faulted("ack-loss@nth=10,dir=up"));
  core::run_bandwidth_bench(system, bw_params(500));
  EXPECT_EQ(system.upstream().replay_timeouts(), 1u);
  EXPECT_EQ(system.aer().count(ErrorType::ReplayTimeout), 1u);
  EXPECT_EQ(system.aer().count(ErrorType::TransactionFailed), 0u);
}

TEST(FaultSystemTest, PoisonedCompletionIsRetried) {
  sim::System system(faulted("poison@nth=1,dir=down"));
  core::run_latency_bench(system, lat_params(10));
  auto& dev = system.device();
  EXPECT_EQ(dev.poisoned_received(), 1u);
  EXPECT_GE(dev.read_retries(), 1u);
  EXPECT_EQ(dev.reads_failed(), 0u);
  EXPECT_EQ(dev.reads_completed(), 10u);
  EXPECT_EQ(system.aer().count(ErrorType::PoisonedTlp), 1u);
}

TEST(FaultSystemTest, CompleterErrorFailsFast) {
  sim::System system(faulted("cpl-ur@nth=1"));
  core::run_latency_bench(system, lat_params(10));
  auto& dev = system.device();
  EXPECT_EQ(dev.error_completions_received(), 1u);
  EXPECT_EQ(dev.reads_failed(), 1u);
  EXPECT_EQ(dev.read_retries(), 0u);  // the completer's verdict is final
  EXPECT_EQ(dev.reads_completed(), 10u);
  EXPECT_EQ(system.aer().count(ErrorType::UnsupportedRequest), 1u);
  EXPECT_EQ(system.aer().count(ErrorType::TransactionFailed), 1u);
}

TEST(FaultSystemTest, CompleterAbortReportsItsOwnCategory) {
  sim::System system(faulted("cpl-ca@nth=2"));
  core::run_latency_bench(system, lat_params(5));
  EXPECT_EQ(system.aer().count(ErrorType::CompleterAbort), 1u);
  EXPECT_EQ(system.aer().count(ErrorType::UnsupportedRequest), 0u);
  EXPECT_EQ(system.root_complex().error_completions(), 1u);
}

TEST(FaultSystemTest, IommuReadFaultBecomesUrCompletion) {
  auto cfg = sys::with_iommu(faulted("iommu@nth=1"), true, 4096);
  sim::System system(cfg);
  auto p = lat_params(10);
  p.page_bytes = 4096;
  core::run_latency_bench(system, p);
  EXPECT_EQ(system.iommu().faults(), 1u);
  EXPECT_EQ(system.device().error_completions_received(), 1u);
  EXPECT_EQ(system.device().reads_failed(), 1u);
  // Single-site attribution: the fault is logged where it was detected
  // (IommuFault), not re-counted as UR when the synthesized error
  // completion reaches the device.
  EXPECT_EQ(system.aer().count(ErrorType::IommuFault), 1u);
  EXPECT_EQ(system.aer().count(ErrorType::UnsupportedRequest), 0u);
  EXPECT_EQ(system.aer().count(ErrorType::TransactionFailed), 1u);
}

TEST(FaultSystemTest, IommuWriteFaultDropsSilentlyWithCounter) {
  auto cfg = sys::with_iommu(faulted("iommu@nth=1"), true, 4096);
  sim::System system(cfg);
  auto p = bw_params(500);
  p.page_bytes = 4096;
  const auto r = core::run_bandwidth_bench(system, p);
  EXPECT_EQ(system.iommu().faults(), 1u);
  EXPECT_EQ(system.root_complex().writes_dropped(), 1u);
  EXPECT_EQ(r.lost_payload_bytes, 256u);
  EXPECT_EQ(system.aer().count(ErrorType::IommuFault), 1u);
}

TEST(FaultSystemTest, DowntrainDegradesThenRecovers) {
  auto base = core::run_bandwidth_bench(
      *std::make_unique<sim::System>(faulted("")), bw_params(2000));
  sim::System system(faulted("downtrain@time=0us-60us,lanes=2"));
  const auto r = core::run_bandwidth_bench(system, bw_params(2000));
  EXPECT_GE(system.upstream().downtrains(), 1u);
  EXPECT_GT(r.elapsed, base.elapsed);  // x2 window slower than x8 baseline
  EXPECT_EQ(r.lost_payload_bytes, 0u);  // degraded, not lossy
  EXPECT_GE(system.aer().count(ErrorType::LinkDowntrain), 1u);
  EXPECT_GE(system.fault_injector()->injected(FaultKind::Downtrain), 1u);
}

// ---- attribution: every injected fault lands in a matching category --------

TEST(FaultSystemTest, AerCountsMatchInjectorTalliesExactly) {
  sim::System system(
      faulted("drop@nth=3,dir=down;cpl-ur@nth=5;poison@nth=9,dir=down"));
  core::run_latency_bench(system, lat_params(20));
  auto& inj = *system.fault_injector();
  const auto& aer = system.aer();
  // A dropped completion surfaces as the requester's completion timeout;
  // completer errors and poison are logged at their own category. No
  // double counting anywhere.
  EXPECT_EQ(inj.injected(FaultKind::LinkDrop), 1u);
  EXPECT_EQ(aer.count(ErrorType::CompletionTimeout), 1u);
  EXPECT_EQ(inj.injected(FaultKind::CplUr), 1u);
  EXPECT_EQ(aer.count(ErrorType::UnsupportedRequest), 1u);
  EXPECT_EQ(inj.injected(FaultKind::Poison), 1u);
  EXPECT_EQ(aer.count(ErrorType::PoisonedTlp), 1u);
  EXPECT_EQ(inj.injected_total(), 3u);
}

// ---- determinism -----------------------------------------------------------

TEST(FaultSystemTest, SameSeedSamePlanIdenticalEventSequence) {
  const std::string spec = "corrupt@prob=0.01;drop@prob=0.002,dir=up";
  auto run = [&](std::uint64_t seed) {
    auto cfg = faulted(spec);
    cfg.fault_plan.seed = seed;
    sim::System system(cfg);
    auto r = core::run_bandwidth_bench(system, bw_params(2000));
    return std::make_tuple(r.elapsed, r.lost_payload_bytes,
                           system.fault_injector()->injected_total(),
                           system.aer().records());
  };
  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  const auto& ra = std::get<3>(a);
  const auto& rb = std::get<3>(b);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].ts, rb[i].ts) << i;
    EXPECT_EQ(ra[i].type, rb[i].type) << i;
    EXPECT_EQ(ra[i].addr, rb[i].addr) << i;
    EXPECT_EQ(ra[i].tag, rb[i].tag) << i;
  }
}

TEST(FaultInjectorTest, DeterministicRulesConsumeNoRandomness) {
  // Two injectors, same seed: one plan has an extra deterministic rule
  // whose predicates never match. The probabilistic draws must line up
  // anyway — deterministic misses may not perturb the stream.
  auto plan_a = fault::parse_plan("corrupt@prob=0.5");
  auto plan_b = fault::parse_plan("drop@nth=999999,dir=up;corrupt@prob=0.5");
  fault::FaultInjector a(plan_a), b(plan_b);
  proto::Tlp tlp{proto::TlpType::MemWr, 0x1000, 256, 0, 1};
  for (int i = 0; i < 200; ++i) {
    const auto da = a.on_link_tx(tlp, true, from_nanos(i));
    const auto db = b.on_link_tx(tlp, true, from_nanos(i));
    EXPECT_EQ(da.corrupt_attempts, db.corrupt_attempts) << i;
  }
  EXPECT_EQ(a.injected_total(), b.injected_total());
}

TEST(FaultInjectorTest, OrdinalsCountPerPort) {
  // Three ports whose TLPs interleave unevenly (port p sends p + 1 per
  // round): nth=3 fires on each port's own third link TLP and third
  // completion, wherever those fall in the combined stream.
  fault::FaultInjector inj(fault::parse_plan("drop@nth=3;cpl-ur@nth=3"), 3);
  proto::Tlp tlp{proto::TlpType::MemRd, 0x1000, 64, 0, 1};
  unsigned seen[3] = {};
  for (int round = 0; round < 4; ++round) {
    for (unsigned p = 0; p < 3; ++p) {
      for (unsigned i = 0; i <= p; ++i) {
        const bool third = ++seen[p] == 3;
        const Picos now = from_nanos(round);
        EXPECT_EQ(inj.on_link_tx(tlp, true, now, p).drop, third)
            << "port " << p << " TLP " << seen[p];
        EXPECT_EQ(inj.on_link_tx(tlp, false, now, p).drop, third)
            << "port " << p << " TLP " << seen[p];
        EXPECT_EQ(inj.on_completion(tlp, now, p) ==
                      fault::CplFault::UnsupportedRequest,
                  third)
            << "port " << p << " completion " << seen[p];
      }
    }
  }
  EXPECT_EQ(inj.injected(FaultKind::LinkDrop), 6u);
  EXPECT_EQ(inj.injected(FaultKind::CplUr), 3u);
}

// ---- watchdog --------------------------------------------------------------

TEST(FaultWatchdogTest, SwallowedCompletionIsDiagnosedNotHung) {
  // Timeouts off (completion_timeout=0) and the only completion dropped:
  // the event queue drains with the read still outstanding. The quiescent
  // check must turn that into a WatchdogError, never a hang.
  auto cfg = faulted("drop@dir=down");
  cfg.device.completion_timeout = 0;
  sim::System system(cfg);
  EXPECT_THROW(core::run_latency_bench(system, lat_params(1)),
               fault::WatchdogError);
}

TEST(FaultWatchdogTest, QuiescentCheckNamesTheOutstandingWork) {
  auto cfg = faulted("drop@dir=down");
  cfg.device.completion_timeout = 0;
  sim::System system(cfg);
  try {
    core::run_latency_bench(system, lat_params(1));
    FAIL() << "expected WatchdogError";
  } catch (const fault::WatchdogError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("device.dma_read_ops"), std::string::npos) << what;
  }
}

TEST(FaultWatchdogTest, StallAbortsAfterThreshold) {
  fault::WatchdogConfig cfg;
  cfg.check_every_events = 1;
  cfg.stall_events = 10;
  fault::Watchdog wd(cfg);
  std::size_t executed = 0;
  // Progress keeps it alive...
  for (int i = 0; i < 50; ++i) {
    wd.kick();
    EXPECT_NO_THROW(wd.on_event(from_nanos(i), executed += 4));
  }
  // ...event churn without progress does not.
  EXPECT_THROW(
      {
        for (int i = 0; i < 20; ++i) wd.on_event(from_nanos(100), executed += 4);
      },
      fault::WatchdogError);
}

TEST(FaultWatchdogTest, SimTimeLimitAborts) {
  fault::WatchdogConfig cfg;
  cfg.check_every_events = 1;
  cfg.max_sim_time = from_micros(1);
  fault::Watchdog wd(cfg);
  EXPECT_NO_THROW(wd.on_event(from_nanos(500), 1));
  EXPECT_THROW(wd.on_event(from_micros(2), 2), fault::WatchdogError);
}

}  // namespace
}  // namespace pcieb
