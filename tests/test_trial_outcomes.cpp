// Tier-2 snapshot of check::run_trial in every trial shape: classic,
// recovery-armed, credit-leak seeded, tenant (armed, weakened, a lone VF,
// misroute seeded) and overload (busy-poll; coalescing with PAUSE and
// recovery). Trials 0-19 of each shape run at 300 iterations with
// telemetry on, and bench/expected/trial_outcomes.txt pins one line each:
//
//   shape index tlps failed violations recovery_state perturbed device_wide
//   hash
//
// where `hash` is FNV-1a over the formatted violations, the error, the
// serialized latency digests, the recovery digest and the overload
// ledger. Event counts are left out, as perfbench's fingerprints leave
// them out, so a change that cuts simulator events without moving a TLP
// keeps this file. A deliberate change to a trial's outcome shows as a
// reviewed diff of the file: on a mismatch the test writes the actual
// text to a temp file and names it, and
//
//   cp <that file> bench/expected/trial_outcomes.txt
//
// regenerates the pin.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "check/chaos.hpp"
#include "exec/journal.hpp"
#include "fault/recovery.hpp"

using namespace pcieb;

namespace {

struct Shape {
  const char* name;
  std::function<void(check::ChaosConfig&)> arm;
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes = {
      {"classic", [](check::ChaosConfig&) {}},
      {"recovery",
       [](check::ChaosConfig& c) {
         c.recovery = fault::parse_recovery_policy("default");
         c.monitors_throw = true;
       }},
      {"credit-leak",
       [](check::ChaosConfig& c) { c.seed_credit_leak_bug = true; }},
      {"tenant-armed",
       [](check::ChaosConfig& c) {
         c.tenants = 4;
         c.attacker = 1;
       }},
      {"tenant-weakened",
       [](check::ChaosConfig& c) {
         c.tenants = 4;
         c.attacker = 1;
         c.isolation_weakened = true;
         c.recovery = fault::parse_recovery_policy("default");
         c.monitors_throw = true;
       }},
      {"tenant-lone", [](check::ChaosConfig& c) { c.tenants = 1; }},
      {"misroute",
       [](check::ChaosConfig& c) {
         c.tenants = 4;
         c.attacker = 1;
         c.seed_misroute_bug = true;
       }},
      {"overload-poll",
       [](check::ChaosConfig& c) { c.offered_load = 2.0; }},
      {"overload-coalesce",
       [](check::ChaosConfig& c) {
         c.offered_load = 2.0;
         c.service = nic::ServiceMode::Coalesce;
         c.backpressure = true;
         c.recovery = fault::parse_recovery_policy("default");
       }},
  };
  return kShapes;
}

/// FNV-1a over each field's bytes, with a separator after each field.
class Hash {
 public:
  Hash& add(const std::string& field) {
    for (const unsigned char c : field) mix(c);
    mix(0);
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string outcome_line(const char* shape, std::uint64_t index,
                         const check::TrialOutcome& o) {
  Hash h;
  for (const auto& v : o.violations) h.add(v.format());
  h.add(o.error)
      .add(o.digests.serialize())
      .add(o.recovery_digest)
      .add(o.overload);
  char line[256];
  std::snprintf(line, sizeof line,
                "%s %" PRIu64 " %" PRIu64 " %d %" PRIu64 " %s %" PRIu64
                " %" PRIu64 " %016" PRIx64 "\n",
                shape, index, o.tlps, o.failed ? 1 : 0, o.total_violations,
                o.recovery_state.empty() ? "-" : o.recovery_state.c_str(),
                o.perturbed_victims, o.device_wide_actions, h.value());
  return line;
}

std::string expected() {
  const std::string path =
      std::string(PCIEB_SOURCE_DIR) + "/bench/expected/trial_outcomes.txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(TrialOutcomes, EveryShapeMatchesPinnedOutcomes) {
  std::string actual =
      "# check::run_trial outcomes, pinned by tests/test_trial_outcomes.cpp.\n"
      "# Regenerate a deliberate change with: cp <the file the failing test\n"
      "# names> bench/expected/trial_outcomes.txt\n"
      "# shape index tlps failed violations recovery_state perturbed "
      "device_wide hash\n";
  for (const Shape& shape : shapes()) {
    check::ChaosConfig cfg;
    cfg.iterations = 300;
    shape.arm(cfg);
    for (std::uint64_t i = 0; i < 20; ++i) {
      const auto out = check::run_trial(check::generate_trial(cfg, i),
                                        /*telemetry=*/true, cfg.monitors_throw);
      actual += outcome_line(shape.name, i, out);
    }
  }
  const std::string pinned = expected();
  if (actual == pinned) return;
  const std::string path =
      exec::make_temp_dir("pcieb-trial-outcomes-") + "/trial_outcomes.txt";
  std::ofstream(path, std::ios::binary) << actual;
  // Line by line, so the failure names the first trials that moved.
  std::istringstream es(pinned), as(actual);
  std::string eline, aline;
  while (std::getline(es, eline)) {
    ASSERT_TRUE(std::getline(as, aline)) << "missing: " << eline;
    EXPECT_EQ(aline, eline);
  }
  EXPECT_FALSE(std::getline(as, aline)) << "extra: " << aline;
  ADD_FAILURE() << "actual outcomes written to " << path;
}
