// The telemetry byte-identity contract (docs/OBSERVABILITY.md): latency
// digests merged by a chaos campaign must serialize identically whether
// the trials ran serially, on the in-process thread pool, in fork-isolated
// workers, or resumed from a half-written journal — and arming telemetry
// must not change simulated behaviour at all (zero observational cost).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "campaign_tally_expect.hpp"
#include "check/campaign_exec.hpp"
#include "check/chaos.hpp"
#include "core/observe.hpp"
#include "core/runner.hpp"
#include "exec/journal.hpp"
#include "sysconfig/profiles.hpp"

namespace fs = std::filesystem;
using namespace pcieb;

namespace {

struct TempDir {
  std::string path = exec::make_temp_dir("pcieb-telemetry-id-");
  ~TempDir() { fs::remove_all(path); }
};

check::ChaosConfig small_campaign() {
  check::ChaosConfig cfg;
  cfg.trials = 10;
  cfg.iterations = 80;
  cfg.shrink = false;
  cfg.telemetry = true;
  return cfg;
}

}  // namespace

TEST(TelemetryIdentity, ThreadedCampaignDigestsMatchSerialByteForByte) {
  auto serial_cfg = small_campaign();
  const auto serial = check::run_campaign(serial_cfg);
  ASSERT_FALSE(serial.digests.empty());

  auto threaded_cfg = small_campaign();
  threaded_cfg.threads = 8;
  const auto threaded = check::run_campaign(threaded_cfg);

  expect_same_tally(threaded, serial);
  EXPECT_EQ(serial.digests.to_table(), threaded.digests.to_table());
}

TEST(TelemetryIdentity, ForkIsolatedAndResumedCampaignsMatchInProcess) {
  const auto in_process = check::run_campaign(small_campaign());
  ASSERT_FALSE(in_process.digests.empty());

  TempDir tmp;
  check::ExecCampaignConfig iso;
  iso.chaos = small_campaign();
  iso.run.journal_dir = tmp.path;
  iso.run.pool.jobs = 3;
  const auto forked = check::run_campaign_isolated(iso);
  expect_same_tally(forked, in_process);

  // Resume from the completed journal: every trial's digest payload is
  // read back, never re-run, and the merge must still be byte-identical.
  auto again = iso;
  again.run.resume = true;
  const auto resumed = check::run_campaign_isolated(again);
  EXPECT_EQ(resumed.resumed, iso.chaos.trials);
  expect_same_tally(resumed, in_process);
}

TEST(TelemetryIdentity, CampaignDigestsAreDeterministicAcrossRepeats) {
  const auto a = check::run_campaign(small_campaign());
  const auto b = check::run_campaign(small_campaign());
  expect_same_tally(a, b);
}

// Telemetry is observational: a trial run with digests recorded must make
// exactly the decisions of one run without — same event/TLP counts, same
// one-line summary. Only the digests differ (absent vs populated).
TEST(TelemetryIdentity, ArmedTrialBehavesIdenticallyToDisarmed) {
  const auto cfg = small_campaign();
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto spec = check::generate_trial(cfg, i);
    const auto bare = check::run_trial(spec, /*telemetry=*/false);
    const auto armed = check::run_trial(spec, /*telemetry=*/true);
    EXPECT_EQ(bare.events, armed.events) << "trial " << i;
    EXPECT_EQ(bare.tlps, armed.tlps) << "trial " << i;
    EXPECT_EQ(bare.summary(), armed.summary()) << "trial " << i;
    EXPECT_TRUE(bare.digests.empty());
    EXPECT_FALSE(armed.digests.empty()) << "trial " << i;
  }
}

// The same property one layer down: attaching the TimeSeries sampler to a
// latency bench must leave every simulated sample bit-identical — the
// tier-2 fig05/fault_goodput snapshots pin this for the full CLI paths,
// this pins it for the library path with a tight loop.
TEST(TelemetryIdentity, TimeSeriesSamplerDoesNotPerturbTheBench) {
  core::BenchParams p;
  p.kind = core::BenchKind::LatRd;
  p.iterations = 400;
  p.warmup = 50;

  sim::System bare_sys(sys::nfp6000_hsw().config);
  const auto bare = core::run_latency_bench(bare_sys, p);

  sim::System armed_sys(sys::nfp6000_hsw().config);
  core::ObsSession::Options oopts;
  oopts.telemetry = true;
  oopts.telemetry_interval_ps = 500'000;
  core::ObsSession obs(armed_sys, oopts);
  const auto armed = core::run_latency_bench(armed_sys, p);
  obs.finish_telemetry();

  ASSERT_NE(obs.telemetry(), nullptr);
  EXPECT_GT(obs.telemetry()->size(), 0u);
  const auto& a = bare.samples_ns.raw();
  const auto& b = armed.samples_ns.raw();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "sample " << i;
  }
  EXPECT_EQ(bare.summary.median_ns, armed.summary.median_ns);
}

// Armed telemetry keeps one empty event per delivered TLP at the link's
// serialization end (Simulator::sample_point), so the sampler walks the
// executed-event sequence it always did. Everything simulated stays
// put: counters, the latency digest and the end time match an unarmed
// run of the canonical fig05 configuration.
TEST(TelemetryIdentity, ArmedFig05RunAddsOneEventPerDeliveredTlp) {
  struct Run {
    std::string counters;
    std::string latency;
    Picos end = 0;
    std::size_t events = 0;
    std::uint64_t delivered = 0;
  };
  const auto run = [](bool telemetry) {
    sim::System system(sys::with_iommu(sys::nfp6000_hsw().config,
                                       /*enabled=*/true, /*page_bytes=*/4096));
    core::ObsSession::Options oopts;
    oopts.telemetry = telemetry;
    oopts.telemetry_interval_ps = 1'000'000;
    core::ObsSession obs(system, oopts);
    core::BenchParams p;
    p.kind = core::BenchKind::LatRd;
    p.transfer_size = 64;
    p.window_bytes = 8192;
    p.cache_state = core::CacheState::HostWarm;
    p.page_bytes = 4096;
    p.iterations = 5000;
    p.warmup = 1000;
    p.seed = 42;
    const auto result = core::run_latency_bench(system, p);
    obs::Digest latency;
    for (const double ns : result.samples_ns.raw()) latency.add_ns(ns);
    Run r;
    r.counters = obs.counters().to_table();
    r.latency = latency.serialize();
    r.end = system.sim().now();
    r.events = system.sim().executed();
    for (const sim::Link* link : {&system.upstream(), &system.downstream()}) {
      // Fault-free: every TLP sent reaches the far end.
      EXPECT_EQ(link->dropped() + link->blocked_drops(), 0u);
      r.delivered += link->tlps_sent();
    }
    return r;
  };
  const Run bare = run(false);
  const Run armed = run(true);
  EXPECT_EQ(bare.counters, armed.counters);
  EXPECT_EQ(bare.latency, armed.latency);
  EXPECT_EQ(bare.end, armed.end);
  EXPECT_EQ(bare.delivered, armed.delivered);
  EXPECT_GT(bare.delivered, 0u);
  EXPECT_EQ(armed.events - bare.events, bare.delivered);
}
