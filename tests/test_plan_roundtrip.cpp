// Fault-plan grammar property tests: parse -> describe -> parse is the
// identity over a hand-written corpus and hundreds of randomized rules,
// describe() output is a fixed point, and malformed specs are rejected
// with messages that point at the offending construct.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/plan.hpp"

namespace pcieb {
namespace {

using fault::FaultKind;
using fault::FaultRule;
using fault::LinkDir;

TEST(PlanRoundTrip, CorpusIdentity) {
  const std::vector<std::string> corpus = {
      "drop",
      "corrupt@prob=0.001",
      "corrupt@prob=0.001,count=5",
      "drop@nth=100,dir=down",
      "drop@every=202",
      "cpl-ur@every=5000",
      "cpl-ca@nth=17,addr=0x100000-0x1fffff",
      "iommu@addr=0x100000-0x1fffff",
      "ack-loss@every=900,time=10000000ps-2000000000ps",
      "poison@prob=0.25,dir=up",
      "downtrain@time=50000000ps-150000000ps,lanes=4,gen=1",
      "downtrain@lanes=2",
      "downtrain@gen=3",
      "linkdown@nth=100",
      "linkdown@nth=50,dir=down",
      "linkdown@every=1000,time=1000000ps-2000000ps",
      "drop@every=150,dir=up;corrupt@prob=0.002;ack-loss@every=900",
      "linkdown@nth=318;downtrain@lanes=4,gen=1;linkdown@nth=760",
      // VF-scoped clauses (SR-IOV tenant attribution, docs/ISOLATION.md).
      "drop@nth=100,vf=0",
      "poison@every=50,dir=up,vf=3",
      "iommu@vf=255",
      "cpl-ur@every=70,vf=1;ack-loss@every=900;corrupt@prob=0.25,vf=1",
  };
  for (const auto& spec : corpus) {
    const auto plan = fault::parse_plan(spec);
    const auto text = plan.describe();
    const auto again = fault::parse_plan(text);
    EXPECT_EQ(again.rules, plan.rules) << spec << " -> " << text;
    // describe() is a fixed point: a second trip changes nothing.
    EXPECT_EQ(again.describe(), text) << spec;
  }
}

FaultRule random_rule(Xoshiro256& rng) {
  static constexpr FaultKind kKinds[] = {
      FaultKind::LinkDrop, FaultKind::LinkCorrupt, FaultKind::AckLoss,
      FaultKind::Poison,   FaultKind::CplUr,       FaultKind::CplCa,
      FaultKind::IommuFault, FaultKind::Downtrain, FaultKind::LinkDown,
  };
  FaultRule r;
  r.kind = kKinds[rng.below(9)];
  if (r.kind == FaultKind::Downtrain) {
    static constexpr unsigned kLanes[] = {1, 2, 4, 8, 16, 32};
    r.lanes = kLanes[rng.below(6)];
    r.gen = 1 + static_cast<unsigned>(rng.below(5));
  } else {
    switch (rng.below(3)) {
      case 0: r.nth = 1 + rng.below(100000); break;
      case 1: r.every = 1 + rng.below(100000); break;
      default:
        // Round through the formatter's precision so equality is exact.
        r.prob = (1 + rng.below(999)) / 1000.0;
        break;
    }
    if (rng.below(2)) r.dir = rng.below(2) ? LinkDir::Up : LinkDir::Down;
    if (rng.below(3) == 0) r.count = 2 + rng.below(7);
    // vf= scoping is only legal on TLP-class kinds (not link-physical
    // downtrain/linkdown; linkdown takes the non-downtrain branch here).
    if (r.kind != FaultKind::LinkDown && rng.below(3) == 0) {
      r.vf = static_cast<int>(rng.below(256));
    }
  }
  if (rng.below(3) == 0) {
    r.from = static_cast<Picos>(rng.below(1'000'000'000));
    r.until = r.from + 1 + static_cast<Picos>(rng.below(1'000'000'000));
  }
  if (rng.below(4) == 0) {
    r.addr_lo = rng.below(std::uint64_t{1} << 40);
    r.addr_hi = r.addr_lo + rng.below(std::uint64_t{1} << 20);
  }
  return r;
}

TEST(PlanRoundTrip, RandomizedRuleIdentity) {
  Xoshiro256 rng(0x91a2);
  for (int trial = 0; trial < 500; ++trial) {
    fault::FaultPlan plan;
    const std::size_t n = 1 + rng.below(6);
    for (std::size_t i = 0; i < n; ++i) plan.rules.push_back(random_rule(rng));
    const auto text = plan.describe();
    const auto parsed = fault::parse_plan(text);
    ASSERT_EQ(parsed.rules, plan.rules) << text;
  }
}

TEST(PlanRoundTrip, UnboundedSentinelsSurviveTheTrip) {
  FaultRule r;
  r.kind = FaultKind::LinkDrop;
  r.every = 10;
  r.from = from_micros(1);
  r.until = std::numeric_limits<Picos>::max();  // "until forever"
  fault::FaultPlan plan;
  plan.rules = {r};
  const auto parsed = fault::parse_plan(plan.describe());
  ASSERT_EQ(parsed.rules.size(), 1u);
  EXPECT_EQ(parsed.rules[0].until, std::numeric_limits<Picos>::max());
  EXPECT_EQ(parsed.rules, plan.rules);
}

struct BadSpec {
  const char* spec;
  const char* message_contains;
};

TEST(PlanRoundTrip, MalformedSpecsRejectedWithPointedMessages) {
  const std::vector<BadSpec> bad = {
      {"", "no rules"},
      {";", "empty rule"},
      {"drop;;corrupt", "empty rule"},
      {"drop;", "empty rule"},
      {"@", "unknown fault kind"},
      {"drop@", "empty key=value item"},
      {"drop@nth=1,", "empty key=value item"},
      {"splat@nth=1", "unknown fault kind"},
      {"drop@nth", "expected key=value"},
      {"drop@nth=0", "1-based"},
      {"drop@every=0", "every must be >= 1"},
      {"drop@count=0", "count must be >= 1"},
      {"drop@nth=abc", "bad integer"},
      {"corrupt@prob=1.5", "prob must be in [0,1]"},
      {"corrupt@prob=-0.1", "prob must be in [0,1]"},
      {"corrupt@prob=", "prob must be in [0,1]"},
      {"drop@time=5us", "LO-HI range"},
      {"drop@time=5us-2us", "empty time window"},
      {"drop@time=-3us-5us", "negative time"},
      {"drop@time=2parsecs-3parsecs", "bad time unit"},
      {"drop@addr=0x100", "LO-HI range"},
      {"drop@addr=0x100-0x50", "empty addr range"},
      {"drop@dir=sideways", "dir must be up or down"},
      {"drop@foo=1", "unknown key"},
      {"drop@lanes=4", "only apply to downtrain"},
      {"corrupt@gen=2", "only apply to downtrain"},
      {"downtrain", "needs lanes= and/or gen="},
      {"downtrain@time=1us-2us", "needs lanes= and/or gen="},
      {"downtrain@lanes=3", "lanes must be"},
      {"downtrain@lanes=64", "lanes must be"},
      {"downtrain@gen=0", "gen must be 1..5"},
      {"downtrain@gen=6", "gen must be 1..5"},
      {"linkdown@lanes=4", "only apply to downtrain"},
      {"linkdown@gen=2", "only apply to downtrain"},
      {"linkdown@nth=0", "1-based"},
      {"linkdown@dir=both", "dir must be up or down"},
      {"drop@vf=256", "vf must be in 0..255"},
      {"drop@vf=-1", "bad integer"},
      {"drop@vf=abc", "bad integer"},
      // Integers are unsigned and whole: no sign, no saturation, and a
      // range check before any narrowing.
      {"drop@nth=-1", "bad integer"},
      {"drop@every=+5", "bad integer"},
      {"drop@every=99999999999999999999999", "bad integer"},
      {"drop@count= 3", "bad integer"},
      {"downtrain@gen=4294967297", "gen must be 1..5"},
      {"corrupt@prob=nan", "prob must be in [0,1]"},
      {"drop@time=nan-5us", "bad time"},
      // Times are decimal digits, an optional fraction and a unit: no
      // sign, exponent, hex, inf or nan.
      {"drop@time=+5us-10us", "bad time for time: '+5us'"},
      {"drop@time=5us-inf", "bad time for time: 'inf'"},
      {"drop@time=1e-3us-2us", "bad time unit 'e'"},
      {"drop@time=0x10-0x20", "bad time unit 'x10'"},
      {"drop@time= 5us-10us", "bad time for time: ' 5us'"},
      {"drop@time=.5us-1us", "bad time for time: '.5us'"},
      {"downtrain@lanes=4,vf=1", "cannot scope"},
      {"linkdown@nth=5,vf=0", "cannot scope"},
  };
  for (const auto& b : bad) {
    try {
      fault::parse_plan(b.spec);
      FAIL() << "accepted malformed spec: '" << b.spec << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(b.message_contains),
                std::string::npos)
          << "spec '" << b.spec << "' raised: " << e.what();
    }
  }
}

}  // namespace
}  // namespace pcieb
