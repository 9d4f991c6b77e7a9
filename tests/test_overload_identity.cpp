// Overload determinism: an overload-armed chaos campaign produces the
// same per-trial frame ledgers — and the campaign summary and CSV built
// from them — whether trials run serially, on the in-process thread
// pool, in fork-isolated workers (any --jobs), or resumed from a journal
// cut mid-campaign. Ledgers are journal-carried, so a resumed campaign
// never re-simulates them.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "campaign_tally_expect.hpp"
#include "check/campaign_exec.hpp"
#include "check/chaos.hpp"
#include "check/monitors.hpp"
#include "check/overload_monitors.hpp"
#include "exec/journal.hpp"
#include "exec/outcome.hpp"
#include "nic/overload.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

namespace fs = std::filesystem;
using namespace pcieb;

namespace {

struct TempDir {
  std::string path = exec::make_temp_dir("pcieb-overload-id-");
  ~TempDir() { fs::remove_all(path); }
};

check::ChaosConfig overload_campaign() {
  check::ChaosConfig cfg;
  cfg.trials = 10;
  cfg.iterations = 500;
  cfg.shrink = false;
  cfg.offered_load = 2.0;
  cfg.service = nic::ServiceMode::Coalesce;
  cfg.backpressure = true;
  cfg.monitors_throw = true;
  return cfg;
}

/// Per-trial ledgers in index order, via the campaign observer; the
/// campaign's result lands in `result` when given.
std::vector<std::string> collect(check::ChaosConfig cfg,
                                 check::CampaignResult* result = nullptr) {
  std::vector<std::string> out;
  auto res = check::run_campaign(cfg, [&](const check::TrialSpec&,
                                          const check::TrialOutcome& o) {
    out.push_back(o.overload);
  });
  if (result) *result = std::move(res);
  return out;
}

}  // namespace

TEST(OverloadIdentity, ThreadedCampaignMatchesSerialTrialForTrial) {
  check::CampaignResult serial_res, threaded_res;
  const auto serial = collect(overload_campaign(), &serial_res);
  ASSERT_EQ(serial.size(), 10u);
  for (const auto& ledger : serial) EXPECT_FALSE(ledger.empty());

  auto threaded = overload_campaign();
  threaded.threads = 8;
  EXPECT_EQ(collect(threaded, &threaded_res), serial);
  expect_same_tally(threaded_res, serial_res);
}

TEST(OverloadIdentity, ForkIsolatedAndResumedCampaignsMatchByteForByte) {
  // Reference: uninterrupted fork-isolated run on several workers.
  TempDir ref_dir, cut_dir;
  check::ExecCampaignConfig ref_cfg;
  ref_cfg.chaos = overload_campaign();
  ref_cfg.run.journal_dir = ref_dir.path;
  ref_cfg.run.pool.jobs = 3;
  ref_cfg.run.pool.backoff.initial_seconds = 0.01;
  ref_cfg.run.pool.backoff.cap_seconds = 0.02;
  const auto ref = check::run_campaign_isolated(ref_cfg);
  ASSERT_EQ(ref.records.size(), 10u);
  EXPECT_EQ(ref.violation, 0u);
  EXPECT_GT(ref.overload_offered, 0u);
  EXPECT_EQ(ref.overload_offered,
            ref.overload_delivered + ref.overload_dropped);

  // The worker ledgers, and the tally folded from them, agree with the
  // in-process campaign's.
  check::CampaignResult in_process_res;
  const auto in_process = collect(overload_campaign(), &in_process_res);
  for (std::size_t i = 0; i < ref.records.size(); ++i) {
    EXPECT_EQ(ref.records[i].overload, in_process[i]) << i;
  }
  expect_same_tally(ref, in_process_res);

  // A campaign killed mid-run and resumed reproduces the canonical
  // summary and CSV byte for byte — ledger columns included, read back
  // from the journal rather than re-simulated.
  auto cut = ref_cfg;
  cut.run.journal_dir = cut_dir.path;
  cut.run.pool.jobs = 1;
  cut.run.stop_after = 4;
  const auto partial = check::run_campaign_isolated(cut);
  EXPECT_EQ(partial.records.size(), 4u);

  cut.run.stop_after = 0;
  cut.run.resume = true;
  const auto resumed = check::run_campaign_isolated(cut);
  EXPECT_EQ(resumed.resumed, 4u);
  EXPECT_EQ(resumed.summary_text(cut.chaos), ref.summary_text(ref_cfg.chaos));
  expect_same_tally(resumed, ref);

  const std::string csv_ref = ref_dir.path + "/ref.csv";
  const std::string csv_res = ref_dir.path + "/resumed.csv";
  ref.write_csv(csv_ref);
  resumed.write_csv(csv_res);
  EXPECT_EQ(exec::read_file(csv_ref), exec::read_file(csv_res));
}

TEST(OverloadIdentity, ResumeRejectsOverloadMismatch) {
  // The journal meta pins the overload shape: resuming an overload-armed
  // journal with a different load multiple (or none at all) must refuse
  // rather than mix ledgers from two different campaigns.
  TempDir tmp;
  check::ExecCampaignConfig cfg;
  cfg.chaos = overload_campaign();
  cfg.chaos.trials = 3;
  cfg.run.journal_dir = tmp.path;
  check::run_campaign_isolated(cfg);

  auto other = cfg;
  other.run.resume = true;
  other.chaos.offered_load = 4.0;
  EXPECT_THROW(check::run_campaign_isolated(other), exec::InfraError);
  other.chaos.offered_load = 0.0;
  EXPECT_THROW(check::run_campaign_isolated(other), exec::InfraError);
}

TEST(OverloadIdentity, TrialRecordRoundTripsLedger) {
  check::TrialRecord rec;
  rec.index = 2;
  rec.status = check::TrialRecord::Status::Ok;
  rec.spec = "trial 2: X overload=2x poll bp=off";
  rec.overload =
      "offered=800 delivered=500 mac=1 ring=299 admission=0 pause_ps=0 irqs=0";
  const auto back = check::TrialRecord::deserialize(rec.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->overload, rec.overload);

  // Records without the field (pre-overload journals) still parse.
  check::TrialRecord bare;
  bare.index = 1;
  bare.spec = "trial 1: X";
  const auto old = check::TrialRecord::deserialize(bare.serialize());
  ASSERT_TRUE(old.has_value());
  EXPECT_TRUE(old->overload.empty());
}

TEST(OverloadIdentity, ShrinkHalvesOverloadFrames) {
  // The shrinker's length-halving step must shrink the overload frame
  // count (the trial's actual workload length), not just the unused
  // micro-bench iteration count.
  check::ChaosConfig cfg;
  cfg.offered_load = 2.0;
  // Enough arrivals for several monitor epochs (kEpochArrivals = 256):
  // the planted IRQ storm needs at least two consecutive epoch edges
  // with delivery frozen before the progress monitor can flag it.
  cfg.iterations = 4000;
  auto spec = check::generate_trial(cfg, 0);
  ASSERT_TRUE(spec.overload_armed);
  spec.overload.test_livelock_bug = true;
  spec.overload.service = nic::ServiceMode::Coalesce;
  auto out = check::run_trial(spec);
  ASSERT_TRUE(out.failed);
  const auto shrunk = check::shrink_trial(spec, 64);
  EXPECT_TRUE(shrunk.outcome.failed);
  EXPECT_LT(shrunk.minimal.overload.frames, spec.overload.frames);
  EXPECT_TRUE(shrunk.minimal.plan.rules.empty());
}

TEST(OverloadIdentity, TrialLedgerMatchesItsRepro) {
  // A trial's printed repro (`pciebench overload ... --frames N`)
  // calibrates on all N frames, so the trial must too: past 2,000 frames
  // a shorter calibration scales the load to another capacity.
  check::ChaosConfig cfg;
  cfg.offered_load = 2.0;
  cfg.iterations = 5000;
  const auto spec = check::generate_trial(cfg, 2);
  ASSERT_TRUE(spec.overload_armed);
  ASSERT_GT(spec.overload.frames, 2000u);

  // The repro: calibrate, then run the datapath on a fresh System with
  // both monitor suites attached (--monitors).
  auto sys_cfg = sys::profile_by_name(spec.system).config;
  sys_cfg.fault_plan = spec.plan;
  sys_cfg.recovery = spec.recovery;
  nic::OverloadConfig ocfg = spec.overload;
  ocfg.capacity_pps = nic::calibrate_capacity(sys_cfg, ocfg);
  sim::System system(sys_cfg);
  check::MonitorSuite monitors(system);
  check::OverloadMonitorSuite overload_monitors;
  const auto repro = nic::run_overload(system, ocfg, overload_monitors.probe());

  const auto out = check::run_trial(spec);
  EXPECT_FALSE(out.failed) << out.summary();
  EXPECT_EQ(out.overload, repro.ledger());
}
