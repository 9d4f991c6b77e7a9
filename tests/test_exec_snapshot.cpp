// Tier-2 snapshot of the two journaled batch runners. The pinned files
// under bench/expected/ are what `pciebench` prints for them:
//
//   suite_hsw_64.{txt,csv}:
//     pciebench suite --system NFP6000-HSW --filter /64/ --csv FILE
//   chaos_<shape>.{txt,csv}: the summary (stdout) and --csv of
//     pciebench chaos --trials 40 --iters 300 --jobs 2 --no-shrink --csv FILE
//   with the flags of tools/ci_resume_check.sh's four legs:
//     classic:  (none)
//     recovery: --recovery default --throw-monitors
//     tenant:   --tenants 4 --attacker 1 --isolation weakened
//               --recovery default --throw-monitors
//     overload: --offered-load 2 --service-mode coalesce --backpressure on
//               --throw-monitors
//
// Each output is rendered here through the library in every execution
// mode that must reproduce it: the suite serially, on two threads, on two
// forked workers, and cut short then resumed; each campaign uninterrupted
// on two workers, on two threads, and cut short then resumed. An intended
// change to a simulated number shows as a reviewed diff of these files.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "check/campaign_exec.hpp"
#include "core/suite.hpp"
#include "exec/journal.hpp"
#include "fault/recovery.hpp"

namespace fs = std::filesystem;
using namespace pcieb;

namespace {

std::string expected(const std::string& file) {
  const std::string path =
      std::string(PCIEB_SOURCE_DIR) + "/bench/expected/" + file;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct TempDir {
  std::string path = exec::make_temp_dir("pcieb-exec-snapshot-");
  ~TempDir() { fs::remove_all(path); }
};

const std::string kFilter = "/64/";

core::Suite hsw_suite() { return core::Suite::standard("NFP6000-HSW"); }

void expect_suite_output(const std::vector<core::ExperimentRecord>& records) {
  EXPECT_EQ(core::summarize(records), expected("suite_hsw_64.txt"));
  TempDir tmp;
  core::write_csv(records, tmp.path + "/suite.csv");
  EXPECT_EQ(exec::read_file(tmp.path + "/suite.csv"),
            expected("suite_hsw_64.csv"));
}

core::JournaledSuiteRun journaled_suite(exec::RunConfig cfg) {
  TempDir tmp;
  cfg.journal_dir = tmp.path;
  return hsw_suite().run_journaled(kFilter, cfg);
}

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
      {"tenant",
       [](check::ChaosConfig& c) {
         c.tenants = 4;
         c.attacker = 1;
         c.isolation_weakened = true;
         c.recovery = fault::parse_recovery_policy("default");
         c.monitors_throw = true;
       }},
      {"overload",
       [](check::ChaosConfig& c) {
         c.offered_load = 2.0;
         c.service = nic::ServiceMode::Coalesce;
         c.backpressure = true;
         c.monitors_throw = true;
       }},
  };
  return kShapes;
}

check::ExecCampaignConfig campaign(const Shape& shape, const std::string& dir) {
  check::ExecCampaignConfig cfg;
  cfg.chaos.trials = 40;
  cfg.chaos.iterations = 300;
  cfg.chaos.shrink = false;
  shape.arm(cfg.chaos);
  cfg.run.pool.jobs = 2;
  cfg.run.journal_dir = dir;
  return cfg;
}

void expect_campaign_output(const Shape& shape,
                            const check::ExecCampaignConfig& cfg,
                            const check::ExecCampaignResult& res) {
  const std::string stem = std::string("chaos_") + shape.name;
  EXPECT_EQ(res.summary_text(cfg.chaos), expected(stem + ".txt")) << stem;
  TempDir tmp;
  res.write_csv(tmp.path + "/trials.csv");
  EXPECT_EQ(exec::read_file(tmp.path + "/trials.csv"), expected(stem + ".csv"))
      << stem;
}

}  // namespace

TEST(ExecSnapshot, SuiteSerialMatchesPinnedOutput) {
  expect_suite_output(hsw_suite().run(kFilter));
}

TEST(ExecSnapshot, SuiteOnTwoThreadsMatchesPinnedOutput) {
  exec::RunConfig cfg;
  cfg.threads = 2;
  expect_suite_output(journaled_suite(cfg).records);
}

TEST(ExecSnapshot, SuiteOnTwoWorkersMatchesPinnedOutput) {
  exec::RunConfig cfg;
  cfg.pool.jobs = 2;
  expect_suite_output(journaled_suite(cfg).records);
}

TEST(ExecSnapshot, SuiteCutAndResumedMatchesPinnedOutput) {
  TempDir tmp;
  exec::RunConfig cfg;
  cfg.pool.jobs = 2;
  cfg.journal_dir = tmp.path;
  cfg.stop_after = 3;
  const auto suite = hsw_suite();
  EXPECT_EQ(suite.run_journaled(kFilter, cfg).records.size(), 3u);
  cfg.stop_after = 0;
  cfg.resume = true;
  const auto resumed = suite.run_journaled(kFilter, cfg);
  EXPECT_EQ(resumed.resumed, 3u);
  expect_suite_output(resumed.records);
}

TEST(ExecSnapshot, CampaignsMatchPinnedOutput) {
  for (const Shape& shape : shapes()) {
    TempDir tmp;
    const auto cfg = campaign(shape, tmp.path);
    expect_campaign_output(shape, cfg, check::run_campaign_isolated(cfg));
  }
}

TEST(ExecSnapshot, CampaignsOnTwoThreadsMatchPinnedOutput) {
  for (const Shape& shape : shapes()) {
    TempDir tmp;
    auto cfg = campaign(shape, tmp.path);
    cfg.run.threads = 2;
    expect_campaign_output(shape, cfg, check::run_campaign_isolated(cfg));
  }
}

TEST(ExecSnapshot, CampaignsCutAndResumedMatchPinnedOutput) {
  for (const Shape& shape : shapes()) {
    TempDir tmp;
    auto cfg = campaign(shape, tmp.path);
    cfg.run.stop_after = 15;
    EXPECT_EQ(check::run_campaign_isolated(cfg).records.size(), 15u);
    cfg.run.stop_after = 0;
    cfg.run.resume = true;
    const auto resumed = check::run_campaign_isolated(cfg);
    EXPECT_EQ(resumed.resumed, 15u);
    expect_campaign_output(shape, cfg, resumed);
  }
}
