// Escalation determinism: a recovery-armed chaos campaign produces the
// same per-trial ladder outcomes — transition digests, final states, and
// the campaign summary built from them — whether trials run serially, on
// the in-process thread pool, in fork-isolated workers (any --jobs), or
// resumed from a journal cut mid-campaign. The digests are journal-
// carried, so a resumed campaign never re-derives them.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "campaign_tally_expect.hpp"
#include "check/campaign_exec.hpp"
#include "check/chaos.hpp"
#include "exec/journal.hpp"
#include "exec/outcome.hpp"
#include "fault/recovery.hpp"

namespace fs = std::filesystem;
using namespace pcieb;

namespace {

struct TempDir {
  std::string path = exec::make_temp_dir("pcieb-recovery-id-");
  ~TempDir() { fs::remove_all(path); }
};

check::ChaosConfig recovery_campaign() {
  check::ChaosConfig cfg;
  cfg.trials = 12;
  cfg.iterations = 400;
  cfg.shrink = false;
  cfg.recovery = fault::parse_recovery_policy("default");
  cfg.monitors_throw = true;
  return cfg;
}

using Outcomes = std::vector<std::pair<std::string, std::string>>;

/// (state, digest) per trial, in index order, via the campaign observer;
/// the campaign's result lands in `result` when given.
Outcomes collect(check::ChaosConfig cfg,
                 check::CampaignResult* result = nullptr) {
  Outcomes out;
  auto res = check::run_campaign(cfg, [&](const check::TrialSpec&,
                                          const check::TrialOutcome& o) {
    out.emplace_back(o.recovery_state, o.recovery_digest);
  });
  if (result) *result = std::move(res);
  return out;
}

}  // namespace

TEST(RecoveryIdentity, ThreadedCampaignMatchesSerialTrialForTrial) {
  check::CampaignResult serial_res, threaded_res;
  const Outcomes serial = collect(recovery_campaign(), &serial_res);
  ASSERT_EQ(serial.size(), 12u);
  // The campaign must actually exercise the ladder for this to mean
  // anything.
  std::size_t fired = 0;
  for (const auto& [state, digest] : serial) {
    EXPECT_FALSE(state.empty());
    if (!digest.empty()) ++fired;
  }
  ASSERT_GT(fired, 0u) << "no trial tripped the ladder; grow the campaign";

  auto threaded_cfg = recovery_campaign();
  threaded_cfg.threads = 8;
  EXPECT_EQ(collect(threaded_cfg, &threaded_res), serial);
  expect_same_tally(threaded_res, serial_res);
}

TEST(RecoveryIdentity, CampaignTalliesAreDeterministicAcrossRepeats) {
  const auto a = check::run_campaign(recovery_campaign());
  const auto b = check::run_campaign(recovery_campaign());
  expect_same_tally(a, b);
  EXPECT_GT(a.trials_recovered, 0u);
}

TEST(RecoveryIdentity, ForkIsolatedAndResumedCampaignsMatchByteForByte) {
  // Reference: uninterrupted fork-isolated run on several workers.
  TempDir ref_dir, cut_dir;
  check::ExecCampaignConfig ref_cfg;
  ref_cfg.chaos = recovery_campaign();
  ref_cfg.run.journal_dir = ref_dir.path;
  ref_cfg.run.pool.jobs = 3;
  ref_cfg.run.pool.backoff.initial_seconds = 0.01;
  ref_cfg.run.pool.backoff.cap_seconds = 0.02;
  const auto ref = check::run_campaign_isolated(ref_cfg);
  ASSERT_EQ(ref.records.size(), 12u);
  EXPECT_EQ(ref.violation, 0u);
  EXPECT_GT(ref.trials_recovered, 0u);

  // The worker outcomes, and the tally folded from them, agree with the
  // in-process campaign's.
  check::CampaignResult in_process_res;
  const Outcomes in_process = collect(recovery_campaign(), &in_process_res);
  for (std::size_t i = 0; i < ref.records.size(); ++i) {
    EXPECT_EQ(ref.records[i].recovery_state, in_process[i].first) << i;
    EXPECT_EQ(ref.records[i].recovery, in_process[i].second) << i;
  }
  expect_same_tally(ref, in_process_res);

  // A campaign killed mid-run and resumed reproduces the canonical
  // summary and CSV byte for byte — recovery columns included, read
  // back from the journal rather than re-simulated.
  auto cut = ref_cfg;
  cut.run.journal_dir = cut_dir.path;
  cut.run.pool.jobs = 1;
  cut.run.stop_after = 5;
  const auto partial = check::run_campaign_isolated(cut);
  EXPECT_EQ(partial.records.size(), 5u);

  cut.run.stop_after = 0;
  cut.run.resume = true;
  const auto resumed = check::run_campaign_isolated(cut);
  EXPECT_EQ(resumed.resumed, 5u);
  EXPECT_EQ(resumed.summary_text(cut.chaos), ref.summary_text(ref_cfg.chaos));
  expect_same_tally(resumed, ref);

  const std::string csv_ref = ref_dir.path + "/ref.csv";
  const std::string csv_res = ref_dir.path + "/resumed.csv";
  ref.write_csv(csv_ref);
  resumed.write_csv(csv_res);
  EXPECT_EQ(exec::read_file(csv_ref), exec::read_file(csv_res));
}

TEST(RecoveryIdentity, ResumeRejectsPolicyMismatch) {
  // The journal meta pins the recovery policy: resuming a recovery-armed
  // journal with a different (or no) policy must refuse rather than mix
  // outcomes from two different ladders.
  TempDir tmp;
  check::ExecCampaignConfig cfg;
  cfg.chaos = recovery_campaign();
  cfg.chaos.trials = 3;
  cfg.run.journal_dir = tmp.path;
  check::run_campaign_isolated(cfg);

  auto other = cfg;
  other.run.resume = true;
  other.chaos.recovery = fault::parse_recovery_policy("aggressive");
  EXPECT_THROW(check::run_campaign_isolated(other), exec::InfraError);
  other.chaos.recovery = fault::RecoveryPolicy{};
  EXPECT_THROW(check::run_campaign_isolated(other), exec::InfraError);
}

TEST(RecoveryIdentity, TrialRecordRoundTripsRecoveryFields) {
  check::TrialRecord rec;
  rec.index = 4;
  rec.status = check::TrialRecord::Status::Ok;
  rec.spec = "trial 4: X BW_WR size=256";
  rec.recovery = "10:operational>contained:fatal;20:contained>resetting:hot-reset";
  rec.recovery_state = "resetting";
  const auto back = check::TrialRecord::deserialize(rec.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->recovery, rec.recovery);
  EXPECT_EQ(back->recovery_state, rec.recovery_state);

  // Records without the fields (pre-recovery journals) still parse.
  check::TrialRecord bare;
  bare.index = 1;
  bare.spec = "trial 1: X";
  const auto old = check::TrialRecord::deserialize(bare.serialize());
  ASSERT_TRUE(old.has_value());
  EXPECT_TRUE(old->recovery.empty());
  EXPECT_TRUE(old->recovery_state.empty());
}
