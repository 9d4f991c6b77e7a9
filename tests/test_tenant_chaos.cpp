// Tenant-chaos campaign tests: trial generation purity and vf-scoping,
// the armed differential-identity acceptance (random attacker plans never
// perturb victims), weakened-isolation blast-radius measurement, the
// seeded misroute bug being caught and shrunk to a one-clause vf-scoped
// reproducer, serial/threaded equivalence, and journal round-trips of the
// blast-radius fields. See docs/ISOLATION.md.
#include "check/chaos.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign_tally_expect.hpp"
#include "check/campaign_exec.hpp"
#include "fault/plan.hpp"

namespace pcieb::check {
namespace {

ChaosConfig tenant_cfg() {
  ChaosConfig cfg;
  cfg.tenants = 4;
  cfg.attacker = 1;
  cfg.trials = 5;
  cfg.iterations = 150;
  cfg.shrink = false;
  return cfg;
}

TEST(TenantChaosTest, GenerateTrialIsPureAndVfScoped) {
  const ChaosConfig cfg = tenant_cfg();
  for (std::uint64_t i = 0; i < 12; ++i) {
    const TrialSpec a = generate_trial(cfg, i);
    const TrialSpec b = generate_trial(cfg, i);
    EXPECT_EQ(a.describe(), b.describe()) << "trial " << i;
    EXPECT_EQ(a.tenants, 4u);
    EXPECT_EQ(a.attacker, 1u);
    for (const auto& r : a.plan.rules) {
      // Every clause is pinned to the attacker, and physical-layer kinds
      // (downtrain/linkdown, which cannot be vf-scoped) never appear.
      EXPECT_EQ(r.vf, 1) << a.describe();
      EXPECT_NE(r.kind, fault::FaultKind::Downtrain) << a.describe();
      EXPECT_NE(r.kind, fault::FaultKind::LinkDown) << a.describe();
    }
    EXPECT_NE(a.repro_command().find("--tenants 4"), std::string::npos);
    EXPECT_NE(a.repro_command().find("--attacker 1"), std::string::npos);
    EXPECT_NE(a.describe().find("isolation=armed"), std::string::npos);
  }
}

TEST(TenantChaosTest, ArmedCampaignUpholdsIdentity) {
  const CampaignResult res = run_campaign(tenant_cfg());
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.trials_run, 5u);
  // The differential identity held in every trial: zero perturbed victims.
  EXPECT_EQ(res.perturbed_victims, 0u);
}

TEST(TenantChaosTest, WeakenedCampaignMeasuresBlastRadius) {
  ChaosConfig cfg = tenant_cfg();
  cfg.isolation_weakened = true;
  std::vector<std::string> summaries;
  const CampaignResult res = run_campaign(
      cfg, [&](const TrialSpec&, const TrialOutcome& out) {
        summaries.push_back(out.summary());
      });
  // Perturbation under weakened isolation is a measurement, not a failure.
  EXPECT_TRUE(res.ok());
  EXPECT_GT(res.perturbed_victims, 0u);
  bool radius_reported = false;
  for (const auto& s : summaries) {
    if (s.find("blast radius") != std::string::npos) radius_reported = true;
  }
  EXPECT_TRUE(radius_reported);
}

TEST(TenantChaosTest, SeededMisrouteCaughtAndShrunkToVfClause) {
  ChaosConfig cfg;
  cfg.tenants = 4;
  cfg.attacker = 1;
  cfg.trials = 15;
  cfg.shrink = true;
  cfg.seed_misroute_bug = true;
  const CampaignResult res = run_campaign(cfg);
  ASSERT_FALSE(res.ok());
  ASSERT_TRUE(res.minimized.has_value());
  const TrialSpec& minimal = res.minimized->minimal;
  // The shrinker kept exactly the drop clause that arms the misroute, and
  // it stays pinned to the attacker (clearing vf= would fault victims
  // directly and fail for the wrong reason).
  ASSERT_EQ(minimal.plan.rules.size(), 1u) << minimal.describe();
  EXPECT_EQ(minimal.plan.rules[0].kind, fault::FaultKind::LinkDrop);
  EXPECT_EQ(minimal.plan.rules[0].vf, 1) << minimal.describe();
  EXPECT_NE(minimal.repro_command().find(",vf=1"), std::string::npos)
      << minimal.repro_command();
  EXPECT_NE(minimal.repro_command().find("--tenants 4"), std::string::npos);
  // The victim saw the foreign RID: the bleed monitor fired.
  const TrialOutcome& out = res.minimized->outcome;
  EXPECT_GT(out.total_violations, 0u);
  bool bleed = false;
  for (const auto& v : out.violations) {
    if (v.monitor == "bleed") bleed = true;
  }
  EXPECT_TRUE(bleed);
}

TEST(TenantChaosTest, SerialAndThreadedCampaignsMatch) {
  ChaosConfig cfg = tenant_cfg();
  cfg.isolation_weakened = true;  // nonzero tallies make the cmp meaty
  std::vector<std::string> serial_log, threaded_log;
  const CampaignResult serial = run_campaign(
      cfg, [&](const TrialSpec& s, const TrialOutcome& o) {
        serial_log.push_back(s.describe() + " | " + o.summary());
      });
  cfg.threads = 4;
  const CampaignResult threaded = run_campaign(
      cfg, [&](const TrialSpec& s, const TrialOutcome& o) {
        threaded_log.push_back(s.describe() + " | " + o.summary());
      });
  EXPECT_EQ(threaded_log, serial_log);
  EXPECT_EQ(threaded.trials_run, serial.trials_run);
  EXPECT_EQ(threaded.failures, serial.failures);
  EXPECT_GT(serial.perturbed_victims, 0u);
  expect_same_tally(threaded, serial);
}

TEST(TenantChaosTest, TrialRecordCarriesBlastRadius) {
  TrialRecord rec;
  rec.index = 7;
  rec.status = TrialRecord::Status::Ok;
  rec.spec = "spec text";
  rec.repro = "pciebench run ... --tenants 4 --attacker 1";
  rec.perturbed = 3;
  rec.device_wide = 2;
  const auto back = TrialRecord::deserialize(rec.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->perturbed, 3u);
  EXPECT_EQ(back->device_wide, 2u);

  // Classic records omit the keys entirely (byte-compatible with legacy
  // journals) and deserialize back to zero.
  TrialRecord classic;
  classic.index = 3;
  const std::string payload = classic.serialize();
  EXPECT_EQ(payload.find("perturbed="), std::string::npos);
  EXPECT_EQ(payload.find("device_wide="), std::string::npos);
  const auto classic_back = TrialRecord::deserialize(payload);
  ASSERT_TRUE(classic_back.has_value());
  EXPECT_EQ(classic_back->perturbed, 0u);
  EXPECT_EQ(classic_back->device_wide, 0u);
}

}  // namespace
}  // namespace pcieb::check
