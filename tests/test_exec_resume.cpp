// Crash-safe campaign execution end to end: quarantine of crashing,
// hanging and OOM'ing trials, journal resume producing byte-identical
// canonical output, records that must name their job, and journaled
// Suite execution through Suite::run_journaled.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign_tally_expect.hpp"
#include "check/campaign_exec.hpp"
#include "core/suite.hpp"
#include "exec/crash_hook.hpp"
#include "exec/journal.hpp"
#include "exec/worker.hpp"
#include "fault/recovery.hpp"

namespace fs = std::filesystem;
using namespace pcieb;

namespace {

struct TempDir {
  std::string path = exec::make_temp_dir("pcieb-resume-test-");
  ~TempDir() { fs::remove_all(path); }
};

/// Arms PCIEB_CRASH_HOOK for the scope; workers read it after fork.
struct HookGuard {
  explicit HookGuard(const char* spec) {
    ::setenv(exec::CrashHook::kEnvVar, spec, 1);
  }
  ~HookGuard() { ::unsetenv(exec::CrashHook::kEnvVar); }
};

check::ExecCampaignConfig small_campaign(std::size_t trials) {
  check::ExecCampaignConfig cfg;
  cfg.chaos.trials = trials;
  cfg.chaos.iterations = 60;
  cfg.chaos.shrink = false;
  cfg.run.pool.jobs = 2;
  cfg.run.pool.backoff.initial_seconds = 0.01;
  cfg.run.pool.backoff.cap_seconds = 0.02;
  return cfg;
}

}  // namespace

TEST(TrialRecord, SerializeRoundTrips) {
  check::TrialRecord rec;
  rec.index = 12;
  rec.status = check::TrialRecord::Status::Violation;
  rec.classification = "ok";
  rec.attempts = 3;
  rec.violations = 7;
  rec.first_violation = "credit leak:\nposted header";  // embedded newline
  rec.error = "";
  rec.spec = "trial 12: X BW_RD size=64";
  rec.repro = "pciebench run --system X";
  const auto back = check::TrialRecord::deserialize(rec.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->index, rec.index);
  EXPECT_EQ(back->status, rec.status);
  EXPECT_EQ(back->classification, rec.classification);
  EXPECT_EQ(back->attempts, rec.attempts);
  EXPECT_EQ(back->violations, rec.violations);
  EXPECT_EQ(back->first_violation, rec.first_violation);
  EXPECT_EQ(back->spec, rec.spec);
  EXPECT_EQ(back->repro, rec.repro);
  EXPECT_TRUE(back->resumed);
  EXPECT_FALSE(check::TrialRecord::deserialize("not a record").has_value());
}

// A forked worker sends TrialRecord::of(spec, outcome) with its attempt
// count and the supervisor journals it as sent, so each journal record is
// exactly the in-process record of the same trial.
TEST(TrialRecord, OfMatchesForkedJournal) {
  TempDir tmp;
  auto cfg = small_campaign(6);
  cfg.run.journal_dir = tmp.path;
  cfg.chaos.iterations = 400;
  cfg.chaos.recovery = fault::parse_recovery_policy("default");
  cfg.chaos.seed_credit_leak_bug = true;
  const auto res = check::run_campaign_isolated(cfg);
  ASSERT_GT(res.violation, 0u) << "seeded bug not caught; test is vacuous";

  const auto journal = exec::Journal::load(tmp.path);
  ASSERT_EQ(journal.size(), cfg.chaos.trials);
  for (const auto& [i, payload] : journal) {
    const check::TrialSpec spec = check::generate_trial(cfg.chaos, i);
    check::TrialRecord rec = check::TrialRecord::of(
        spec, check::run_trial(spec, cfg.chaos.telemetry,
                               cfg.chaos.monitors_throw));
    rec.attempts = 1;
    rec.classification = "ok";
    EXPECT_EQ(payload, rec.serialize()) << "trial " << i;
  }
}

// A campaign whose trials segfault, hang and exceed the RSS budget runs
// to completion, quarantines all three with structured artifacts, and
// completes the healthy trials.
TEST(ExecCampaign, QuarantinesCrashHangAndOomTrials) {
  TempDir tmp;
  HookGuard hook("segv@1;hang@2;oom@3");
  auto cfg = small_campaign(5);
  cfg.run.journal_dir = tmp.path;
  cfg.run.pool.max_retries = 0;
  cfg.run.pool.limits.wall_seconds = 5.0;
  cfg.run.pool.limits.rss_bytes = exec::own_rss_bytes() + (128ull << 20);

  const auto res = check::run_campaign_isolated(cfg);
  ASSERT_EQ(res.records.size(), 5u);
  EXPECT_EQ(res.quarantined, 3u);
  EXPECT_EQ(res.ok + res.violation, 2u);
  EXPECT_EQ(res.records[1].classification, "signal(SIGSEGV)");
  EXPECT_EQ(res.records[2].classification, "timeout");
  EXPECT_EQ(res.records[3].classification, "oom");

  for (int i = 1; i <= 3; ++i) {
    const std::string path =
        res.artifacts_dir + "/trial-" + std::to_string(i) + ".txt";
    ASSERT_TRUE(fs::exists(path)) << path;
    const std::string text = exec::read_file(path);
    EXPECT_NE(text.find("status: quarantined"), std::string::npos);
    EXPECT_NE(text.find("classification: "), std::string::npos);
    EXPECT_NE(text.find("pciebench run --system"), std::string::npos);
  }

  // Resume with the hook disarmed: every trial — including the
  // quarantined ones — is already journaled, so nothing re-runs.
  ::unsetenv(exec::CrashHook::kEnvVar);
  auto again = cfg;
  again.run.resume = true;
  const auto res2 = check::run_campaign_isolated(again);
  EXPECT_EQ(res2.resumed, 5u);
  EXPECT_EQ(res2.quarantined, 3u);
  EXPECT_EQ(res2.summary_text(again.chaos), res.summary_text(cfg.chaos));
}

// An interrupted campaign resumed from its journal must reproduce the
// uninterrupted run's canonical summary and CSV byte for byte.
TEST(ExecCampaign, ResumeIsByteIdenticalToUninterrupted) {
  TempDir full_dir, cut_dir;
  auto full = small_campaign(6);
  full.run.journal_dir = full_dir.path;
  const auto ref = check::run_campaign_isolated(full);
  ASSERT_EQ(ref.records.size(), 6u);

  auto cut = small_campaign(6);
  cut.run.journal_dir = cut_dir.path;
  cut.run.stop_after = 3;  // simulate a SIGKILL mid-campaign
  const auto partial = check::run_campaign_isolated(cut);
  EXPECT_EQ(partial.records.size(), 3u);

  cut.run.stop_after = 0;
  cut.run.resume = true;
  const auto resumed = check::run_campaign_isolated(cut);
  EXPECT_EQ(resumed.resumed, 3u);
  EXPECT_EQ(resumed.summary_text(cut.chaos), ref.summary_text(full.chaos));
  expect_same_tally(resumed, ref);

  const std::string csv_ref = full_dir.path + "/ref.csv";
  const std::string csv_res = full_dir.path + "/resumed.csv";
  ref.write_csv(csv_ref);
  resumed.write_csv(csv_res);
  EXPECT_EQ(exec::read_file(csv_ref), exec::read_file(csv_res));
}

TEST(ExecCampaign, ResumeRejectsForeignJournal) {
  TempDir tmp;
  auto cfg = small_campaign(2);
  cfg.run.journal_dir = tmp.path;
  check::run_campaign_isolated(cfg);
  auto other = cfg;
  other.run.resume = true;
  other.chaos.master_seed ^= 1;  // a different campaign entirely
  EXPECT_THROW(check::run_campaign_isolated(other), exec::InfraError);
}

// The throw mode and the seeded bugs change trial records, so
// campaign.meta pins them: a resume with either flipped must refuse the
// journal instead of mixing records of two campaigns.
TEST(ExecCampaign, ResumeRejectsFlippedThrowModeOrSeededBug) {
  const auto flip_refused = [](check::ExecCampaignConfig cfg,
                               void (*flip)(check::ChaosConfig&)) {
    TempDir tmp;
    cfg.run.journal_dir = tmp.path;
    check::run_campaign_isolated(cfg);
    cfg.run.resume = true;
    EXPECT_EQ(check::run_campaign_isolated(cfg).resumed, cfg.chaos.trials);
    flip(cfg.chaos);
    EXPECT_THROW(check::run_campaign_isolated(cfg), exec::InfraError);
  };
  auto classic = small_campaign(2);
  flip_refused(classic, [](check::ChaosConfig& c) { c.monitors_throw = true; });
  flip_refused(classic,
               [](check::ChaosConfig& c) { c.seed_credit_leak_bug = true; });
  classic.chaos.monitors_throw = true;
  classic.chaos.seed_credit_leak_bug = true;
  flip_refused(classic, [](check::ChaosConfig& c) { c.monitors_throw = false; });
  flip_refused(classic,
               [](check::ChaosConfig& c) { c.seed_credit_leak_bug = false; });

  auto tenant = small_campaign(2);
  tenant.chaos.tenants = 4;
  tenant.chaos.attacker = 1;
  flip_refused(tenant, [](check::ChaosConfig& c) { c.seed_misroute_bug = true; });
}

// Quarantined trials are minimized in isolated workers; the enriched
// artifact carries the shrunk one-line repro.
TEST(ExecCampaign, ShrinksQuarantinedTrialInWorkers) {
  TempDir tmp;
  HookGuard hook("segv@1");
  auto cfg = small_campaign(2);
  cfg.run.journal_dir = tmp.path;
  cfg.run.pool.jobs = 1;
  cfg.run.pool.max_retries = 0;
  cfg.chaos.shrink = true;
  cfg.quarantine_shrink_budget = 6;

  const auto res = check::run_campaign_isolated(cfg);
  EXPECT_EQ(res.quarantined, 1u);
  const std::string text =
      exec::read_file(res.artifacts_dir + "/trial-1.txt");
  EXPECT_NE(text.find("shrunk repro ("), std::string::npos);
  EXPECT_NE(text.find("--faults"), std::string::npos);
}

// A journal record must name its job: a record of trial 5 filed as
// trial 2 is refused on resume, and trial 2 runs again instead of trial
// 5 being reported twice and trial 2 never.
TEST(ExecCampaign, ResumeRerunsARecordFiledUnderAnotherTrial) {
  TempDir full_dir, cut_dir;
  auto full = small_campaign(6);
  full.run.journal_dir = full_dir.path;
  const auto ref = check::run_campaign_isolated(full);
  ASSERT_EQ(ref.records.size(), 6u);

  auto cut = small_campaign(6);
  cut.run.journal_dir = cut_dir.path;
  check::run_campaign_isolated(cut);
  fs::copy_file(cut_dir.path + "/r00000005.rec",
                cut_dir.path + "/r00000002.rec",
                fs::copy_options::overwrite_existing);

  cut.run.resume = true;
  const auto resumed = check::run_campaign_isolated(cut);
  EXPECT_EQ(resumed.resumed, 5u);
  EXPECT_EQ(resumed.summary_text(cut.chaos), ref.summary_text(full.chaos));
  ref.write_csv(full_dir.path + "/ref.csv");
  resumed.write_csv(full_dir.path + "/resumed.csv");
  EXPECT_EQ(exec::read_file(full_dir.path + "/ref.csv"),
            exec::read_file(full_dir.path + "/resumed.csv"));
  // The re-run put trial 2's own record back.
  EXPECT_EQ(exec::read_file(cut_dir.path + "/r00000002.rec"),
            exec::read_file(full_dir.path + "/r00000002.rec"));
}

TEST(JournaledSuite, ResumeReproducesUninterruptedSuiteOutput) {
  TempDir full_dir, cut_dir;
  const auto suite = core::Suite::standard("NFP6000-HSW");
  const std::string filter = "LAT_RD/8/";  // cold + warm: two experiments

  exec::RunConfig full;
  full.pool.jobs = 2;
  full.journal_dir = full_dir.path;
  const auto ref = suite.run_journaled(filter, full);
  ASSERT_EQ(ref.records.size(), 2u);

  exec::RunConfig cut;
  cut.journal_dir = cut_dir.path;
  cut.stop_after = 1;  // killed after the first experiment committed
  const auto partial = suite.run_journaled(filter, cut);
  EXPECT_EQ(partial.records.size(), 1u);

  cut.stop_after = 0;
  cut.resume = true;
  const auto resumed = suite.run_journaled(filter, cut);
  EXPECT_EQ(resumed.resumed, 1u);
  ASSERT_EQ(resumed.records.size(), 2u);
  EXPECT_EQ(core::summarize(resumed.records), core::summarize(ref.records));
  core::write_csv(ref.records, full_dir.path + "/ref.csv");
  core::write_csv(resumed.records, full_dir.path + "/resumed.csv");
  EXPECT_EQ(exec::read_file(full_dir.path + "/ref.csv"),
            exec::read_file(full_dir.path + "/resumed.csv"));
}

// A quarantined experiment produces an artifact but no journal record, so
// a resumed suite gives it another chance instead of skipping it.
TEST(JournaledSuite, QuarantinedExperimentRerunsOnResume) {
  TempDir tmp;
  const auto suite = core::Suite::standard("NFP6000-HSW");
  const std::string filter = "LAT_RD/8/cold";  // exactly one experiment

  exec::RunConfig cfg;
  cfg.journal_dir = tmp.path;
  cfg.pool.max_retries = 0;
  cfg.pool.backoff.initial_seconds = 0.01;

  {
    HookGuard hook("segv@*");
    std::vector<std::string> reported;
    const auto res = suite.run_journaled(
        filter, cfg, {},
        [&](const exec::JobResult& job) { reported.push_back(job.name); });
    EXPECT_TRUE(res.records.empty());
    EXPECT_EQ(reported, std::vector<std::string>{"LAT_RD/8/cold"});
    const std::string artifact =
        res.artifacts_dir + "/LAT_RD_8_cold.txt";
    ASSERT_TRUE(fs::exists(artifact));
    const std::string text = exec::read_file(artifact);
    EXPECT_NE(text.find("signal(SIGSEGV)"), std::string::npos);
    EXPECT_NE(text.find("pciebench run --system NFP6000-HSW"),
              std::string::npos);
  }

  cfg.resume = true;  // hook disarmed: the re-run now succeeds
  const auto res2 = suite.run_journaled(filter, cfg);
  EXPECT_EQ(res2.resumed, 0u);
  ASSERT_EQ(res2.records.size(), 1u);
}

// Experiment names do not carry the system, so suite.meta pins it: a
// journal written for one system must not resume under another and print
// its numbers under the other's label.
TEST(JournaledSuite, ResumeRejectsJournalOfAnotherSystem) {
  TempDir tmp;
  const std::string filter = "LAT_RD/8/cold";
  exec::RunConfig cfg;
  cfg.journal_dir = tmp.path;
  const auto hsw = core::Suite::standard("NFP6000-HSW");
  ASSERT_EQ(hsw.run_journaled(filter, cfg).records.size(), 1u);
  EXPECT_EQ(exec::read_file(tmp.path + "/suite.meta"),
            "pcieb-suite v1\nsystem=NFP6000-HSW\n");

  cfg.resume = true;
  EXPECT_EQ(hsw.run_journaled(filter, cfg).resumed, 1u);
  const auto bdw = core::Suite::standard("NFP6000-BDW");
  EXPECT_THROW(bdw.run_journaled(filter, cfg), exec::InfraError);
}
