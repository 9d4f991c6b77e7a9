// Chaos driver: deterministic trial generation, fault-free and seeded-bug
// trials, and the shrinker's contract — a many-clause failing plan
// minimizes to a tiny reproducer that still fails, deterministically,
// and round-trips through the --faults grammar.
#include <gtest/gtest.h>

#include "check/chaos.hpp"
#include "fault/plan.hpp"

namespace pcieb {
namespace {

check::TrialSpec seeded_bug_trial() {
  check::TrialSpec spec;
  spec.system = "NFP6000-HSW";
  spec.params.kind = core::BenchKind::BwWr;
  spec.params.transfer_size = 256;
  spec.params.window_bytes = 8192;
  spec.params.pattern = core::AccessPattern::Sequential;
  spec.params.cache_state = core::CacheState::HostWarm;
  spec.params.numa_local = true;
  spec.params.iterations = 400;
  spec.params.seed = 7;
  // Six clauses; only the upstream drop interacts with the seeded
  // credit-return omission — everything else is shrinkable noise.
  spec.plan = fault::parse_plan(
      "drop@every=150,dir=up,time=0ps-1000000000000ps;"
      "corrupt@prob=0.002;"
      "ack-loss@every=900;"
      "poison@nth=50;"
      "cpl-ur@every=700;"
      "iommu@every=4000");
  spec.plan.seed = 99;
  spec.seed_credit_leak_bug = true;
  return spec;
}

TEST(Chaos, GenerationIsDeterministic) {
  check::ChaosConfig cfg;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto a = check::generate_trial(cfg, i);
    const auto b = check::generate_trial(cfg, i);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_EQ(a.repro_command(), b.repro_command());
    EXPECT_EQ(a.plan, b.plan);
  }
}

TEST(Chaos, DifferentIndicesGiveDifferentTrials) {
  check::ChaosConfig cfg;
  const auto a = check::generate_trial(cfg, 0);
  const auto b = check::generate_trial(cfg, 1);
  EXPECT_NE(a.describe(), b.describe());
}

TEST(Chaos, DifferentMasterSeedsGiveDifferentTrials) {
  check::ChaosConfig a_cfg, b_cfg;
  b_cfg.master_seed = a_cfg.master_seed + 1;
  EXPECT_NE(check::generate_trial(a_cfg, 0).describe(),
            check::generate_trial(b_cfg, 0).describe());
}

TEST(Chaos, FaultFreeTrialPasses) {
  check::TrialSpec spec;
  spec.system = "NetFPGA-HSW";
  spec.params.kind = core::BenchKind::BwRd;
  spec.params.transfer_size = 512;
  spec.params.window_bytes = 8192;
  spec.params.pattern = core::AccessPattern::Sequential;
  spec.params.cache_state = core::CacheState::HostWarm;
  spec.params.iterations = 200;
  const auto out = check::run_trial(spec);
  EXPECT_FALSE(out.failed) << out.summary();
  EXPECT_EQ(out.total_violations, 0u);
}

// A trial whose System cannot be built fails with the reason as its
// error, in every trial shape, instead of throwing out of run_trial.
TEST(Chaos, UnbuildableSystemIsAFailedTrial) {
  check::ChaosConfig cfg;
  cfg.tenants = 4;
  auto spec = check::generate_trial(cfg, 0);
  spec.tenants = 65;  // a port holds 1..64 functions
  check::TrialOutcome out;
  ASSERT_NO_THROW(out = check::run_trial(spec));
  EXPECT_TRUE(out.failed);
  EXPECT_NE(out.error.find("tenants must be in 1..64"), std::string::npos)
      << out.error;
}

TEST(Chaos, ReproCommandNamesTheTrial) {
  const auto spec = seeded_bug_trial();
  const auto cmd = spec.repro_command();
  EXPECT_NE(cmd.find("pciebench run"), std::string::npos);
  EXPECT_NE(cmd.find("--system NFP6000-HSW"), std::string::npos);
  EXPECT_NE(cmd.find("--faults '"), std::string::npos);
  EXPECT_NE(cmd.find("--fault-seed 99"), std::string::npos);
  EXPECT_NE(cmd.find("--monitors"), std::string::npos);
}

// The headline acceptance path: a six-clause failing plan shrinks to a
// <=2-clause minimal reproducer that still fails, within budget, and the
// minimized plan survives a grammar round trip (so the printed --faults
// string replays it exactly).
TEST(Chaos, ShrinkerMinimizesSeededBugToTinyReproducer) {
  const auto failing = seeded_bug_trial();
  ASSERT_GE(failing.plan.rules.size(), 6u);

  const auto first = check::run_trial(failing);
  ASSERT_TRUE(first.failed) << first.summary();

  const auto shrunk = check::shrink_trial(failing);
  EXPECT_LE(shrunk.runs, 128u);
  EXPECT_TRUE(shrunk.outcome.failed) << shrunk.outcome.summary();
  EXPECT_LE(shrunk.minimal.plan.rules.size(), 2u)
      << "minimal plan: " << shrunk.minimal.plan.describe();
  EXPECT_LE(shrunk.minimal.params.iterations, failing.params.iterations);

  // Deterministic replay: the minimal spec fails again, identically.
  const auto replay = check::run_trial(shrunk.minimal);
  EXPECT_TRUE(replay.failed);
  EXPECT_EQ(replay.total_violations, shrunk.outcome.total_violations);

  // Grammar round trip of the minimized plan.
  const auto reparsed = fault::parse_plan(shrunk.minimal.plan.describe());
  EXPECT_EQ(reparsed.rules, shrunk.minimal.plan.rules);
}

// The shrinker treats linkdown rules like any other clause: noise
// clauses around one drop away, and the rule's own optional predicates
// (dir, time window) are cleared while the failure survives. Driven by a
// synthetic runner so the oracle is exact.
TEST(Chaos, ShrinkerMinimizesLinkDownClauses) {
  check::TrialSpec failing;
  failing.system = "NFP6000-HSW";
  failing.params.kind = core::BenchKind::BwWr;
  failing.params.transfer_size = 256;
  failing.params.window_bytes = 8192;
  failing.params.iterations = 400;
  failing.plan = fault::parse_plan(
      "corrupt@prob=0.002;"
      "linkdown@nth=40,dir=down,time=1000000ps-900000000ps;"
      "ack-loss@every=900;"
      "poison@nth=50");

  // "Fails" iff some linkdown clause survives — the other clauses and
  // linkdown's own dir/time predicates are shrinkable noise.
  const auto oracle = [](const check::TrialSpec& s) {
    check::TrialOutcome out;
    for (const auto& r : s.plan.rules) {
      if (r.kind == fault::FaultKind::LinkDown) out.failed = true;
    }
    return out;
  };
  const auto shrunk = check::shrink_trial(failing, 64, oracle);
  ASSERT_TRUE(shrunk.outcome.failed);
  ASSERT_EQ(shrunk.minimal.plan.rules.size(), 1u)
      << shrunk.minimal.plan.describe();
  const auto& r = shrunk.minimal.plan.rules[0];
  EXPECT_EQ(r.kind, fault::FaultKind::LinkDown);
  EXPECT_EQ(r.dir, fault::LinkDir::Both);  // dir predicate cleared
  EXPECT_EQ(r.from, 0);                    // time window cleared
  EXPECT_EQ(shrunk.minimal.plan.describe(), "linkdown@nth=40");
}

// A recovery-armed campaign must visit the exact same trial specs as a
// plain one — the policy rides along after the generator's RNG stream is
// spent, so arming the ladder changes outcomes, never inputs.
TEST(Chaos, RecoveryArmedCampaignVisitsIdenticalTrialSpecs) {
  check::ChaosConfig plain;
  check::ChaosConfig armed = plain;
  armed.recovery = fault::parse_recovery_policy("aggressive");
  for (std::uint64_t i = 0; i < 16; ++i) {
    const auto a = check::generate_trial(plain, i);
    const auto b = check::generate_trial(armed, i);
    EXPECT_EQ(a.plan, b.plan) << i;
    EXPECT_EQ(a.params.seed, b.params.seed) << i;
    EXPECT_EQ(a.system, b.system) << i;
    // describe() differs only by the trailing recovery= tag.
    EXPECT_EQ(b.describe(), a.describe() + " recovery=aggressive") << i;
  }
}

TEST(Chaos, TrialOutcomeCarriesRecoveryDigestAndState) {
  check::TrialSpec spec;
  spec.system = "NFP6000-HSW";
  spec.params.kind = core::BenchKind::BwWr;
  spec.params.transfer_size = 256;
  spec.params.window_bytes = 8192;
  spec.params.iterations = 400;
  spec.plan = fault::parse_plan("linkdown@nth=30");
  spec.recovery = fault::parse_recovery_policy("default");

  const auto out = check::run_trial(spec, /*telemetry=*/false,
                                    /*throw_monitors=*/true);
  EXPECT_FALSE(out.failed) << out.summary();
  EXPECT_EQ(out.recovery_state, "operational");
  EXPECT_NE(out.recovery_digest.find("operational>contained:fatal"),
            std::string::npos)
      << out.recovery_digest;

  // Same spec without the policy: no ladder, empty outcome fields.
  spec.recovery = fault::RecoveryPolicy{};
  const auto bare = check::run_trial(spec);
  EXPECT_FALSE(bare.failed) << bare.summary();
  EXPECT_TRUE(bare.recovery_state.empty());
  EXPECT_TRUE(bare.recovery_digest.empty());
}

TEST(Chaos, CleanCampaignPasses) {
  check::ChaosConfig cfg;
  cfg.trials = 6;
  cfg.iterations = 200;
  std::size_t observed = 0;
  const auto result = check::run_campaign(
      cfg, [&](const check::TrialSpec&, const check::TrialOutcome&) {
        ++observed;
      });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.trials_run, 6u);
  EXPECT_EQ(observed, 6u);
  EXPECT_FALSE(result.first_failure.has_value());
}

TEST(Chaos, CampaignFindsAndShrinksSeededBug) {
  check::ChaosConfig cfg;
  cfg.trials = 40;
  cfg.iterations = 2000;
  cfg.seed_credit_leak_bug = true;
  const auto result = check::run_campaign(cfg);
  ASSERT_FALSE(result.ok()) << "campaign missed the seeded credit leak";
  ASSERT_TRUE(result.first_failure.has_value());
  ASSERT_TRUE(result.minimized.has_value());
  EXPECT_TRUE(result.minimized->outcome.failed);
  EXPECT_LE(result.minimized->minimal.plan.rules.size(),
            result.first_failure->plan.rules.size());
  // The reproducer prints a full replay command.
  EXPECT_NE(result.minimized->minimal.repro_command().find("--monitors"),
            std::string::npos);
}

}  // namespace
}  // namespace pcieb
