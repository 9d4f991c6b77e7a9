// TLP-timeline digests: the identity a change that cuts, fuses or batches
// simulator events must keep.
//
// A TraceSink listener folds, per link direction and in record order,
// every LinkTx record (start, wire duration, type, address, length, tag)
// and every arrival record at the far end (the RC's RcRx on the up
// direction, the device's DevCplRx on the down direction) into a 64-bit
// FNV-1a hash. Four runs are pinned: a fig04 BW_RD point, the canonical
// fig05 LAT_RD run, a classic chaos trial whose fault plan drops and
// replays TLPs, and a 4-VF tenant chaos trial. The constants were taken
// while each link TLP still cost two events (serialization end, then
// arrival); fusing those into one arrival event left all of them intact.
// Any change here means a TLP moved on the wire or reached its far end at
// a different time or in a different order.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/chaos.hpp"
#include "check/monitors.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "obs/trace.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb {
namespace {

/// FNV-1a over the LinkTx and arrival records of each link direction.
class TimelineDigest {
 public:
  struct Direction {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t records = 0;
  };

  void on_event(const obs::TraceEvent& e) {
    switch (e.kind) {
      case obs::EventKind::LinkTx:
        fold(e.comp == obs::Component::LinkUp ? up_ : down_, e);
        break;
      case obs::EventKind::RcRx:
        fold(up_, e);
        break;
      case obs::EventKind::DevCplRx:
        fold(down_, e);
        break;
      default:
        break;
    }
  }

  TimelineDigest() {
    sink_.set_listener([this](const obs::TraceEvent& e) { on_event(e); });
  }
  TimelineDigest(const TimelineDigest&) = delete;
  TimelineDigest& operator=(const TimelineDigest&) = delete;

  obs::TraceSink* sink() { return &sink_; }
  const Direction& up() const { return up_; }
  const Direction& down() const { return down_; }

 private:
  static void mix(Direction& d, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      d.hash ^= (v >> (8 * i)) & 0xffu;
      d.hash *= 0x100000001b3ull;
    }
  }
  static void fold(Direction& d, const obs::TraceEvent& e) {
    mix(d, static_cast<std::uint64_t>(e.kind));
    mix(d, static_cast<std::uint64_t>(e.ts));
    mix(d, static_cast<std::uint64_t>(e.dur));
    mix(d, e.flags);  // LinkTx / RcRx: TLP type; DevCplRx: op complete
    mix(d, e.addr);
    mix(d, e.len);
    mix(d, e.id);  // tag (DevCplRx: DMA op id)
    ++d.records;
  }

  /// Listener-only: ring capacity is irrelevant to a listener.
  obs::TraceSink sink_{1};
  Direction up_;
  Direction down_;
};

struct Pinned {
  std::uint64_t up_hash;
  std::uint64_t up_records;
  std::uint64_t down_hash;
  std::uint64_t down_records;
};

/// Campaign positions (ChaosConfig defaults, 200 iterations) of the two
/// chaos trials. Classic trial 93 runs BW_RD under drop, ack-loss and
/// corrupt clauses plus an upstream surprise link-down, so TLPs are lost,
/// replayed, and discarded both at send and in flight; tenant trial 27
/// gives attacker vf0 corrupt, drop, cpl-ca and ack-loss clauses.
constexpr std::uint64_t kClassicTrial = 93;
constexpr std::uint64_t kTenantTrial = 27;

void expect_pinned(const TimelineDigest& d, const Pinned& want) {
  EXPECT_EQ(d.up().records, want.up_records);
  EXPECT_EQ(d.down().records, want.down_records);
  EXPECT_EQ(d.up().hash, want.up_hash)
      << "up-direction TLP timeline changed: 0x" << std::hex << d.up().hash;
  EXPECT_EQ(d.down().hash, want.down_hash)
      << "down-direction TLP timeline changed: 0x" << std::hex
      << d.down().hash;
}

TEST(TlpTimelineDigest, Fig04BwRdPoint) {
  sim::System system(sys::profile_by_name("NFP6000-HSW").config);
  TimelineDigest digest;
  system.set_trace_sink(digest.sink());
  core::BenchParams p;
  p.kind = core::BenchKind::BwRd;
  p.transfer_size = 256;
  p.window_bytes = 8ull << 20;
  p.iterations = 2000;
  p.warmup = 100;
  core::run_bandwidth_bench(system, p);
  system.set_trace_sink(nullptr);
  expect_pinned(digest, {0x802579c0adb01c53ull, 4200,
                         0x497c03788a889d13ull, 4200});
}

/// The tier-2 fig05 configuration (tests/test_telemetry_snapshot.cpp).
TEST(TlpTimelineDigest, Fig05LatRdRun) {
  sim::System system(sys::with_iommu(
      sys::profile_by_name("NFP6000-HSW").config, true, 4096));
  TimelineDigest digest;
  system.set_trace_sink(digest.sink());
  core::BenchParams p;
  p.kind = core::BenchKind::LatRd;
  p.transfer_size = 64;
  p.window_bytes = 8192;
  p.cache_state = core::CacheState::HostWarm;
  p.page_bytes = 4096;
  p.iterations = 5000;
  p.warmup = 1000;
  p.seed = 42;
  core::run_latency_bench(system, p);
  system.set_trace_sink(nullptr);
  expect_pinned(digest, {0xce6a3575835ca53dull, 12000,
                         0x4ec66f33b8db9ab5ull, 12000});
}

/// check::run_trial's classic path with a trace sink attached; the sim
/// time cap mirrors the one run_trial arms for every trial.
TEST(TlpTimelineDigest, ClassicChaosTrialWithDropsAndReplays) {
  check::ChaosConfig cc;
  cc.iterations = 200;
  const check::TrialSpec spec = check::generate_trial(cc, kClassicTrial);
  auto cfg = sys::profile_by_name(spec.system).config;
  if (spec.iommu) cfg = sys::with_iommu(cfg, true, spec.params.page_bytes);
  cfg.fault_plan = spec.plan;
  cfg.recovery = spec.recovery;
  cfg.watchdog.max_sim_time = from_micros(2'000'000);
  sim::System system(cfg);
  check::MonitorSuite monitors(system, check::MonitorConfig{});
  TimelineDigest digest;
  system.set_trace_sink(digest.sink());
  if (core::is_latency(spec.params.kind)) {
    core::run_latency_bench(system, spec.params);
  } else {
    core::run_bandwidth_bench(system, spec.params);
  }
  monitors.check_quiescent();
  system.set_trace_sink(nullptr);

  // The trial exercises the link's loss, DLL replay and containment
  // paths...
  EXPECT_GT(system.upstream().dropped() + system.downstream().dropped(), 0u);
  EXPECT_GT(system.upstream().replays() + system.downstream().replays(), 0u);
  EXPECT_GT(system.upstream().blocked_drops() +
                system.downstream().blocked_drops(),
            0u);
  // ...and is the trial run_trial runs.
  const check::TrialOutcome out = check::run_trial(spec);
  EXPECT_FALSE(out.failed) << out.summary();
  EXPECT_EQ(out.events, system.sim().executed());
  EXPECT_EQ(out.tlps, system.upstream().tlps_sent() +
                          system.downstream().tlps_sent());
  expect_pinned(digest, {0xc29b0423f56dda4bull, 619,
                         0xff66519f07bc6a63ull, 1197});
}

/// check::run_trial's tenant path (the attacker-armed run) with every
/// function and both shared link directions traced.
TEST(TlpTimelineDigest, FourVfTenantTrial) {
  check::ChaosConfig cc;
  cc.iterations = 200;
  cc.tenants = 4;
  const check::TrialSpec spec = check::generate_trial(cc, kTenantTrial);
  sim::SystemConfig cfg = sys::profile_by_name(spec.system).config;
  if (spec.iommu) cfg = sys::with_iommu(cfg, true, spec.params.page_bytes);
  cfg.fault_plan = spec.plan;
  cfg.recovery = spec.recovery;
  cfg.watchdog.max_sim_time = from_micros(2'000'000);
  cfg.tenants = spec.tenants;
  cfg.isolation = sim::TenantIsolation::all_armed();
  sim::System system(cfg);
  check::MonitorSuite monitors(system, check::MonitorConfig{});
  TimelineDigest digest;
  system.upstream().set_trace(digest.sink(), obs::Component::LinkUp);
  system.downstream().set_trace(digest.sink(), obs::Component::LinkDown);
  for (unsigned vf = 0; vf < system.function_count(); ++vf) {
    system.function(vf).set_trace(digest.sink());
  }
  core::run_tenant_bench(system, spec.params);
  monitors.check_quiescent();

  const check::TrialOutcome out = check::run_trial(spec);
  EXPECT_FALSE(out.failed) << out.summary();
  EXPECT_EQ(out.events, system.sim().executed());
  EXPECT_EQ(out.tlps, system.upstream().tlps_sent() +
                          system.downstream().tlps_sent());
  expect_pinned(digest, {0xe1ba9b1b8cb26c66ull, 4799,
                         0x82c38a9db6036e6full, 3203});
}

}  // namespace
}  // namespace pcieb
