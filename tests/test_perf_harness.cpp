// The perf-regression harness (check/perf.hpp). Rates depend on the
// machine, so the assertions pin what is machine-independent: the exact
// event and TLP counts of each workload (the simulator is deterministic;
// this is the one place both are pinned), the report structure, and the
// JSON serialization. The TLP counts are the simulated workload and must
// not move when the engine cuts events; the event counts are the engine's
// cost and move only with a deliberate change to it.
#include "check/perf.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pcieb::check {
namespace {

// Quick-mode totals (iterations cut 10x). A TLP count that moves means the
// simulated workload changed; an event count that moves alone means the
// engine spends a different number of events on the same workload (last:
// one event per link TLP instead of two).
constexpr std::uint64_t kQuickFig04Events = 165900;
constexpr std::uint64_t kQuickFig05Events = 164000;
constexpr std::uint64_t kQuickChaosEvents = 157126;
constexpr std::uint64_t kQuickFig04Tlps = 56700;
constexpr std::uint64_t kQuickFig05Tlps = 50400;
constexpr std::uint64_t kQuickChaosTlps = 36927;

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
  EXPECT_EQ(fig04->tlps, kQuickFig04Tlps);
  EXPECT_EQ(fig05->tlps, kQuickFig05Tlps);
  EXPECT_EQ(chaos->tlps, kQuickChaosTlps);
  for (const auto& w : report.workloads) {
    EXPECT_GT(w.wall_seconds, 0.0) << w.name;
    EXPECT_GT(w.ns_per_tlp, 0.0) << w.name;
  }
  EXPECT_DOUBLE_EQ(report.fig04_speedup_vs_baseline,
                   kBaselineNsPerTlp / fig04->ns_per_tlp);
  EXPECT_EQ(report.baseline_ns_per_tlp, kBaselineNsPerTlp);
  // 2,226,000 events / 7.03 M events/s / 567,000 TLPs.
  EXPECT_NEAR(kBaselineNsPerTlp, 558.45, 0.01);
}

TEST(PerfHarness, JsonAndSummaryCarryEveryWorkload) {
  PerfReport report;
  report.quick = true;
  report.workloads.push_back({"fig04_bw_sweep", 100, 10, 0.5, 7.5, {}});
  report.workloads.push_back({"chaos_dry_run", 300, 30, 1.5, 9.5, {}});
  report.fig04_speedup_vs_baseline = 1.25;

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": \"pcieb-perf-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"quick\": true"), std::string::npos);
  EXPECT_NE(json.find("\"fig04_bw_sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"chaos_dry_run\""), std::string::npos);
  EXPECT_NE(json.find("\"fig04_speedup_vs_baseline\": 1.2500"),
            std::string::npos);

  const std::string text = report.summary();
  EXPECT_NE(text.find("fig04_bw_sweep"), std::string::npos);
  EXPECT_NE(text.find("speedup 1.25x"), std::string::npos);
  // ns/TLP is the only rate: events/sec would punish a cut in events.
  EXPECT_NE(text.find("7.5 ns/TLP"), std::string::npos);
  EXPECT_EQ(text.find("events/sec"), std::string::npos);
  EXPECT_EQ(json.find("events_per_sec"), std::string::npos);

  EXPECT_EQ(report.find("nope"), nullptr);
}

}  // namespace
}  // namespace pcieb::check
