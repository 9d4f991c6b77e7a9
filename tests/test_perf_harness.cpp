// The perf-regression harness (check/perf.hpp). Rates depend on the
// machine, so the assertions pin what is machine-independent: the exact
// event and TLP counts of each workload (the simulator is deterministic,
// so any drift means the model changed — the same invariant
// tools/ci_perf_check.sh enforces in CI), the report structure, and the
// JSON serialization.
#include "check/perf.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pcieb::check {
namespace {

// Quick-mode totals (iterations cut 10x). Updating these is a deliberate
// act: it means the simulated workload itself changed. Keep them in sync
// with tools/ci_perf_check.sh.
constexpr std::uint64_t kQuickFig04Events = 222600;
constexpr std::uint64_t kQuickFig05Events = 214400;
constexpr std::uint64_t kQuickChaosEvents = 194023;

TEST(PerfHarness, QuickRunHasExactEventCounts) {
  PerfConfig cfg;
  cfg.quick = true;
  const PerfReport report = run_perf(cfg);
  EXPECT_TRUE(report.quick);
  ASSERT_EQ(report.workloads.size(), 3u);

  const auto* fig04 = report.find("fig04_bw_sweep");
  const auto* fig05 = report.find("fig05_latency");
  const auto* chaos = report.find("chaos_dry_run");
  ASSERT_NE(fig04, nullptr);
  ASSERT_NE(fig05, nullptr);
  ASSERT_NE(chaos, nullptr);

  EXPECT_EQ(fig04->events, kQuickFig04Events);
  EXPECT_EQ(fig05->events, kQuickFig05Events);
  EXPECT_EQ(chaos->events, kQuickChaosEvents);
  for (const auto& w : report.workloads) {
    EXPECT_GT(w.tlps, 0u) << w.name;
    EXPECT_GT(w.wall_seconds, 0.0) << w.name;
    EXPECT_GT(w.events_per_sec, 0.0) << w.name;
    EXPECT_GT(w.ns_per_tlp, 0.0) << w.name;
  }
  EXPECT_GT(report.fig04_speedup_vs_baseline, 0.0);
  EXPECT_EQ(report.baseline_events_per_sec, kBaselineEventsPerSec);
}

TEST(PerfHarness, JsonAndSummaryCarryEveryWorkload) {
  PerfReport report;
  report.quick = true;
  report.workloads.push_back({"fig04_bw_sweep", 100, 10, 0.5, 200.0, 7.5, {}});
  report.workloads.push_back({"chaos_dry_run", 300, 30, 1.5, 200.0, 9.5, {}});
  report.fig04_speedup_vs_baseline = 1.25;

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": \"pcieb-perf-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"quick\": true"), std::string::npos);
  EXPECT_NE(json.find("\"fig04_bw_sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"chaos_dry_run\""), std::string::npos);
  EXPECT_NE(json.find("\"fig04_speedup_vs_baseline\": 1.2500"),
            std::string::npos);

  const std::string text = report.summary();
  EXPECT_NE(text.find("fig04_bw_sweep"), std::string::npos);
  EXPECT_NE(text.find("speedup 1.25x"), std::string::npos);

  EXPECT_EQ(report.find("nope"), nullptr);
}

}  // namespace
}  // namespace pcieb::check
