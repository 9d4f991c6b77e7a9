// The recovery escalation ladder (fault/recovery.hpp): policy grammar
// round-trips, every rung of the state machine driven through a fake
// scheduler (correctable burst -> downtrain -> probation restore,
// non-fatal threshold -> FLR, fatal -> containment -> hot reset ->
// re-enumeration, reset budget -> quarantine), and the edge cases the
// sim wiring depends on — self-inflicted FLR fallout must not escalate,
// a genuine surprise link-down during the FLR window must.
#include "fault/recovery.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fault/aer.hpp"

namespace pcieb::fault {
namespace {

// ---------------------------------------------------------------- policy

TEST(RecoveryPolicy, NamedPoliciesAndDescribeRoundTrip) {
  EXPECT_FALSE(parse_recovery_policy("none").enabled);
  EXPECT_FALSE(parse_recovery_policy("").enabled);

  for (const char* name : {"default", "aggressive", "conservative"}) {
    const RecoveryPolicy p = parse_recovery_policy(name);
    EXPECT_TRUE(p.enabled) << name;
    EXPECT_EQ(p.describe(), name);
    EXPECT_EQ(parse_recovery_policy(p.describe()), p) << name;
  }

  // Named bases actually differ where it matters.
  const auto aggr = recovery_policy_named("aggressive");
  const auto cons = recovery_policy_named("conservative");
  EXPECT_LT(aggr.nonfatal_threshold, cons.nonfatal_threshold);
  EXPECT_GT(aggr.max_resets, cons.max_resets);
}

TEST(RecoveryPolicy, OverridesParseAndRoundTrip) {
  const RecoveryPolicy p = parse_recovery_policy(
      "default,correctable-burst=5,correctable-window=20us,probation=1ms,"
      "lanes=2,gen=2,nonfatal-threshold=7,flr-duration=3us,holdoff=9us,"
      "reset-duration=44us,max-resets=9");
  EXPECT_EQ(p.correctable_burst, 5u);
  EXPECT_EQ(p.correctable_window, from_micros(20));
  EXPECT_EQ(p.degraded_probation, from_millis(1));
  EXPECT_EQ(p.downtrain_lanes, 2u);
  EXPECT_EQ(p.downtrain_gen, 2u);
  EXPECT_EQ(p.nonfatal_threshold, 7u);
  EXPECT_EQ(p.flr_duration, from_micros(3));
  EXPECT_EQ(p.containment_holdoff, from_micros(9));
  EXPECT_EQ(p.reset_duration, from_micros(44));
  EXPECT_EQ(p.max_resets, 9u);

  // describe() emits the canonical default+overrides form; a second trip
  // is the identity and a fixed point.
  const std::string text = p.describe();
  EXPECT_EQ(parse_recovery_policy(text), p);
  EXPECT_EQ(parse_recovery_policy(text).describe(), text);

  // Overrides on a non-default base round-trip through the default base.
  const RecoveryPolicy q = parse_recovery_policy("aggressive,max-resets=1");
  EXPECT_EQ(parse_recovery_policy(q.describe()), q);
}

TEST(RecoveryPolicy, MalformedSpecsRejected) {
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"bogus", "unknown policy"},
      {"none,max-resets=1", "'none' takes no overrides"},
      {"default,", "empty key=value item"},
      {"default,max-resets", "expected key=value"},
      {"default,flavor=mild", "unknown key"},
      {"default,correctable-burst=0", "correctable-burst must be >= 1"},
      {"default,correctable-burst=abc", "bad integer"},
      {"default,correctable-window=0", "correctable-window must be > 0"},
      {"default,probation=-1us", "negative time"},
      {"default,probation=2parsecs", "bad time unit"},
      {"default,lanes=3", "lanes must be"},
      {"default,gen=0", "gen must be 1..5"},
      {"default,gen=6", "gen must be 1..5"},
      {"default,nonfatal-threshold=0", "nonfatal-threshold must be >= 1"},
      // Integers are unsigned and whole: no sign, no saturation, and a
      // range check before any narrowing.
      {"default,max-resets=-1", "bad integer"},
      {"default,max-resets=4294967296", "bad integer"},
      {"default,correctable-burst=99999999999999999999999", "bad integer"},
      {"default,nonfatal-threshold=+4", "bad integer"},
      {"default,holdoff=nan", "bad time"},
      {"default,holdoff=inf", "bad time for holdoff: 'inf'"},
      {"default,probation=0x10", "bad time unit 'x10'"},
      {"default,flr-duration=+1us", "bad time for flr-duration"},
      {"default,reset-duration=1e3", "bad time unit 'e3'"},
      {"default,correctable-window=5.us", "bad time for correctable-window"},
  };
  for (const auto& [spec, want] : bad) {
    try {
      parse_recovery_policy(spec);
      FAIL() << "accepted malformed policy: '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << "spec '" << spec << "' raised: " << e.what();
    }
  }
}

// ----------------------------------------------------- ladder unit rig
//
// A fake deterministic scheduler + counting action table: the manager is
// sim-agnostic, so every rung can be driven by hand with exact clocks.
struct Rig {
  struct Pending {
    Picos due;
    std::uint64_t seq;
    std::function<void()> fn;
  };

  Picos now = 0;
  std::uint64_t seq = 0;
  std::vector<Pending> queue;
  int downtrains = 0, restores = 0, flrs = 0, contains = 0, hot_resets = 0;
  unsigned last_lanes = 0, last_gen = 0;

  RecoveryManager::Actions actions() {
    RecoveryManager::Actions a;
    a.downtrain = [this](unsigned lanes, unsigned gen) {
      ++downtrains;
      last_lanes = lanes;
      last_gen = gen;
    };
    a.restore_link = [this] { ++restores; };
    a.flr = [this] { ++flrs; };
    a.contain = [this] { ++contains; };
    a.hot_reset = [this] { ++hot_resets; };
    a.schedule = [this](Picos delay, std::function<void()> fn) {
      queue.push_back({now + delay, seq++, std::move(fn)});
    };
    a.now = [this] { return now; };
    return a;
  }

  /// Advance to `t`, running due callbacks in (time, insertion) order —
  /// the same tie-break the real Simulator uses.
  void run_until(Picos t) {
    for (;;) {
      std::size_t best = queue.size();
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i].due > t) continue;
        if (best == queue.size() || queue[i].due < queue[best].due ||
            (queue[i].due == queue[best].due &&
             queue[i].seq < queue[best].seq)) {
          best = i;
        }
      }
      if (best == queue.size()) break;
      Pending p = std::move(queue[best]);
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
      now = p.due;
      p.fn();
    }
    now = t;
  }

  static ErrorRecord err(ErrorType type, Picos ts) {
    ErrorRecord r;
    r.type = type;
    r.ts = ts;
    return r;
  }
};

RecoveryPolicy test_policy() {
  RecoveryPolicy p = recovery_policy_named("default");
  p.correctable_burst = 3;
  p.correctable_window = 1000;
  p.degraded_probation = 5000;
  p.downtrain_lanes = 2;
  p.downtrain_gen = 1;
  p.nonfatal_threshold = 2;
  p.flr_duration = 100;
  p.containment_holdoff = 200;
  p.reset_duration = 300;
  p.max_resets = 2;
  return p;
}

TEST(RecoveryLadder, CorrectableBurstDowntrainsThenProbationRestores) {
  Rig rig;
  RecoveryManager rm(test_policy(), rig.actions());
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
  EXPECT_TRUE(rm.converged());

  // Two correctables inside the window: below the burst, nothing moves.
  rig.now = 10;
  rm.on_error(Rig::err(ErrorType::BadTlp, 10));
  rig.now = 20;
  rm.on_error(Rig::err(ErrorType::ReplayTimeout, 20));
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
  EXPECT_EQ(rig.downtrains, 0);

  // Third one completes the burst: Degraded, deferred downtrain with the
  // policy's lanes/gen targets.
  rig.now = 30;
  rm.on_error(Rig::err(ErrorType::BadTlp, 30));
  EXPECT_EQ(rm.state(), RecoveryState::Degraded);
  EXPECT_TRUE(rm.link_degraded());
  EXPECT_FALSE(rm.converged());
  EXPECT_EQ(rig.downtrains, 0);  // action deferred, not yet run
  rig.run_until(31);
  EXPECT_EQ(rig.downtrains, 1);
  EXPECT_EQ(rig.last_lanes, 2u);
  EXPECT_EQ(rig.last_gen, 1u);

  // A clean probation period restores the link.
  rig.run_until(30 + 5000 + 1);
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
  EXPECT_FALSE(rm.link_degraded());
  EXPECT_EQ(rig.restores, 1);
  EXPECT_EQ(rm.downtrains(), 1u);
  EXPECT_EQ(rm.restores(), 1u);
}

TEST(RecoveryLadder, ProbationExtendsWhileCorrectablesKeepArriving) {
  Rig rig;
  RecoveryManager rm(test_policy(), rig.actions());
  for (Picos t : {10, 20, 30}) {
    rig.now = t;
    rm.on_error(Rig::err(ErrorType::BadTlp, t));
  }
  ASSERT_EQ(rm.state(), RecoveryState::Degraded);

  // A correctable late in probation pushes the horizon out: still
  // Degraded at the original deadline, restored one full clean period
  // after the last correctable.
  rig.run_until(4000);
  rm.on_error(Rig::err(ErrorType::BadTlp, 4000));
  rig.run_until(30 + 5000 + 1);
  EXPECT_EQ(rm.state(), RecoveryState::Degraded);
  rig.run_until(4000 + 5000 + 1);
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
  EXPECT_EQ(rig.restores, 1);
}

TEST(RecoveryLadder, StaleCorrectablesOutsideWindowNeverTrip) {
  Rig rig;
  RecoveryManager rm(test_policy(), rig.actions());
  // Three correctables, each a full window apart: the sliding window
  // never holds more than one.
  for (Picos t : {0, 2000, 4000}) {
    rig.now = t;
    rm.on_error(Rig::err(ErrorType::BadTlp, t));
  }
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
  EXPECT_EQ(rm.downtrains(), 0u);
}

TEST(RecoveryLadder, NonFatalThresholdTriggersFlrThenBackToOperational) {
  Rig rig;
  RecoveryManager rm(test_policy(), rig.actions());
  rig.now = 50;
  rm.on_error(Rig::err(ErrorType::CompletionTimeout, 50));
  EXPECT_EQ(rm.state(), RecoveryState::Operational);

  rig.now = 60;
  rm.on_error(Rig::err(ErrorType::PoisonedTlp, 60));
  EXPECT_EQ(rm.state(), RecoveryState::Resetting);
  rig.run_until(61);
  EXPECT_EQ(rig.flrs, 1);

  rig.run_until(60 + 100 + 1);
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
  EXPECT_EQ(rm.flrs(), 1u);
  // The counter reset with the FLR: one more non-fatal doesn't re-trip.
  rig.now = 500;
  rm.on_error(Rig::err(ErrorType::PoisonedTlp, 500));
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
}

TEST(RecoveryLadder, FlrFromDegradedReturnsToDegradedAndKeepsProbation) {
  Rig rig;
  RecoveryManager rm(test_policy(), rig.actions());
  for (Picos t : {10, 20, 30}) {
    rig.now = t;
    rm.on_error(Rig::err(ErrorType::BadTlp, t));
  }
  ASSERT_EQ(rm.state(), RecoveryState::Degraded);
  rig.run_until(40);

  rig.now = 50;
  rm.on_error(Rig::err(ErrorType::PoisonedTlp, 50));
  rig.now = 60;
  rm.on_error(Rig::err(ErrorType::PoisonedTlp, 60));
  ASSERT_EQ(rm.state(), RecoveryState::Resetting);

  // The downtrain is still active when the FLR completes, so the ladder
  // lands back in Degraded — and probation still eventually restores.
  rig.run_until(60 + 100 + 1);
  EXPECT_EQ(rm.state(), RecoveryState::Degraded);
  EXPECT_TRUE(rm.link_degraded());
  rig.run_until(20000);
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
  EXPECT_EQ(rig.restores, 1);
}

TEST(RecoveryLadder, FatalContainsHotResetsAndReenumerates) {
  Rig rig;
  RecoveryManager rm(test_policy(), rig.actions());
  rig.now = 1000;
  rm.on_error(Rig::err(ErrorType::SurpriseLinkDown, 1000));
  EXPECT_EQ(rm.state(), RecoveryState::Contained);
  rig.run_until(1001);
  EXPECT_EQ(rig.contains, 1);

  // A second fatal during containment is expected fallout — ignored.
  rig.now = 1100;
  rm.on_error(Rig::err(ErrorType::TransactionFailed, 1100));
  EXPECT_EQ(rm.containments(), 1u);

  rig.run_until(1000 + 200 + 1);  // holdoff
  EXPECT_EQ(rm.state(), RecoveryState::Resetting);
  rig.run_until(1200 + 300 + 1);  // reset duration
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
  EXPECT_EQ(rig.hot_resets, 1);
  EXPECT_EQ(rm.hot_resets(), 1u);
  EXPECT_TRUE(rm.converged());
}

TEST(RecoveryLadder, ResetBudgetExhaustedQuarantinesForever) {
  Rig rig;
  RecoveryManager rm(test_policy(), rig.actions());  // max_resets = 2
  Picos t = 0;
  for (int episode = 0; episode < 2; ++episode) {
    t += 10000;
    rig.now = t;
    rm.on_error(Rig::err(ErrorType::SurpriseLinkDown, t));
    ASSERT_EQ(rm.state(), RecoveryState::Contained) << episode;
    rig.run_until(t + 601);
    ASSERT_EQ(rm.state(), RecoveryState::Operational) << episode;
  }

  t += 10000;
  rig.now = t;
  rm.on_error(Rig::err(ErrorType::SurpriseLinkDown, t));
  rig.run_until(t + 10000);
  EXPECT_EQ(rm.state(), RecoveryState::Quarantined);
  EXPECT_TRUE(rm.converged());
  EXPECT_EQ(rm.quarantines(), 1u);
  EXPECT_EQ(rig.hot_resets, 2);

  // Quarantine is terminal: further errors of any severity are inert.
  rig.now = t + 20000;
  rm.on_error(Rig::err(ErrorType::SurpriseLinkDown, rig.now));
  rm.on_error(Rig::err(ErrorType::PoisonedTlp, rig.now));
  rm.on_error(Rig::err(ErrorType::BadTlp, rig.now));
  rig.run_until(t + 40000);
  EXPECT_EQ(rm.state(), RecoveryState::Quarantined);
  EXPECT_EQ(rm.containments(), 3u);  // the third containment quarantined
  EXPECT_EQ(rig.hot_resets, 2);
}

TEST(RecoveryLadder, FlrFalloutDoesNotEscalateButLinkDownDoes) {
  // The FLR aborts in-flight work, which records fatal-class AER
  // (TransactionFailed). That self-inflicted fallout must not trip
  // containment — but a genuine surprise link-down during the FLR
  // window must.
  {
    Rig rig;
    RecoveryManager rm(test_policy(), rig.actions());
    rig.now = 10;
    rm.on_error(Rig::err(ErrorType::PoisonedTlp, 10));
    rig.now = 20;
    rm.on_error(Rig::err(ErrorType::PoisonedTlp, 20));
    ASSERT_EQ(rm.state(), RecoveryState::Resetting);
    rig.now = 30;
    rm.on_error(Rig::err(ErrorType::TransactionFailed, 30));
    EXPECT_EQ(rm.state(), RecoveryState::Resetting);
    EXPECT_EQ(rm.containments(), 0u);
    rig.run_until(20 + 100 + 1);
    EXPECT_EQ(rm.state(), RecoveryState::Operational);
  }
  {
    Rig rig;
    RecoveryManager rm(test_policy(), rig.actions());
    rig.now = 10;
    rm.on_error(Rig::err(ErrorType::PoisonedTlp, 10));
    rig.now = 20;
    rm.on_error(Rig::err(ErrorType::PoisonedTlp, 20));
    ASSERT_EQ(rm.state(), RecoveryState::Resetting);
    rig.now = 30;
    rm.on_error(Rig::err(ErrorType::SurpriseLinkDown, 30));
    EXPECT_EQ(rm.state(), RecoveryState::Contained);
    // The stale finish_flr callback fires into the containment and must
    // not drag the state back.
    rig.run_until(20 + 100 + 1);
    EXPECT_EQ(rm.state(), RecoveryState::Contained);
    rig.run_until(30 + 200 + 300 + 1);
    EXPECT_EQ(rm.state(), RecoveryState::Operational);
    EXPECT_EQ(rig.hot_resets, 1);
  }
}

TEST(RecoveryLadder, HotResetWipesDowntrainAndCounters) {
  Rig rig;
  RecoveryManager rm(test_policy(), rig.actions());
  for (Picos t : {10, 20, 30}) {
    rig.now = t;
    rm.on_error(Rig::err(ErrorType::BadTlp, t));
  }
  ASSERT_TRUE(rm.link_degraded());
  rig.now = 100;
  rm.on_error(Rig::err(ErrorType::SurpriseLinkDown, 100));
  rig.run_until(100 + 200 + 300 + 1);
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
  // Re-enumeration restored full width: no downtrain left, and no stale
  // restore fired for it.
  EXPECT_FALSE(rm.link_degraded());
  EXPECT_EQ(rig.restores, 0);
}

TEST(RecoveryLadder, DigestAndTableAreCanonical) {
  Rig rig;
  RecoveryManager rm(test_policy(), rig.actions());
  EXPECT_EQ(rm.digest(), "");

  rig.now = 1000;
  rm.on_error(Rig::err(ErrorType::SurpriseLinkDown, 1000));
  rig.run_until(2000);
  EXPECT_EQ(rm.digest(),
            "1000:operational>contained:fatal;"
            "1200:contained>resetting:hot-reset;"
            "1500:resetting>operational:re-enumerated");
  EXPECT_EQ(rm.transitions(), 3u);

  const std::string table = rm.to_table();
  EXPECT_NE(table.find("recovery ladder"), std::string::npos);
  EXPECT_NE(table.find("hot resets 1"), std::string::npos);
  EXPECT_NE(table.find("contained -> resetting"), std::string::npos);
}

TEST(RecoveryLadder, EventsSnapshotDeliveredBytes) {
  Rig rig;
  std::uint64_t delivered = 0;
  RecoveryManager::Actions a = rig.actions();
  a.delivered_bytes = [&delivered] { return delivered; };
  RecoveryManager rm(test_policy(), std::move(a));

  delivered = 111;
  rig.now = 10;
  rm.on_error(Rig::err(ErrorType::SurpriseLinkDown, 10));
  delivered = 222;
  rig.run_until(10 + 200 + 300 + 1);
  ASSERT_EQ(rm.events().size(), 3u);
  EXPECT_EQ(rm.events()[0].bytes, 111u);
  EXPECT_EQ(rm.events()[2].bytes, 222u);
}

TEST(RecoveryLadder, TransitionsNotifyAndMirrorIntoTrace) {
  Rig rig;
  int notifications = 0;
  RecoveryManager::Actions a = rig.actions();
  a.on_transition = [&notifications] { ++notifications; };
  RecoveryManager rm(test_policy(), std::move(a));
  obs::TraceSink sink(16);
  rm.set_trace(&sink);

  rig.now = 10;
  rm.on_error(Rig::err(ErrorType::SurpriseLinkDown, 10));
  rig.run_until(1000);
  EXPECT_EQ(notifications, 3);
  ASSERT_EQ(sink.size(), 3u);
  const auto events = sink.events();
  EXPECT_EQ(events[0].kind, obs::EventKind::RecoveryTransition);
  // flags packs (from << 4) | to.
  EXPECT_EQ(events[0].flags,
            (static_cast<unsigned>(RecoveryState::Operational) << 4) |
                static_cast<unsigned>(RecoveryState::Contained));
}

TEST(RecoveryLadder, DisabledPolicyIgnoresEverything) {
  Rig rig;
  RecoveryManager rm(RecoveryPolicy{}, rig.actions());
  rig.now = 10;
  rm.on_error(Rig::err(ErrorType::SurpriseLinkDown, 10));
  EXPECT_EQ(rm.state(), RecoveryState::Operational);
  EXPECT_TRUE(rm.events().empty());
  EXPECT_TRUE(rig.queue.empty());
}

TEST(RecoveryLadder, EnabledPolicyRequiresSchedulerHooks) {
  RecoveryPolicy p = recovery_policy_named("default");
  EXPECT_THROW(RecoveryManager(p, RecoveryManager::Actions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace pcieb::fault
