// Thread-parallel sweep determinism — the ISSUE's golden contract: running
// chaos campaigns and suite experiments on the in-process work-stealing
// pool must produce output byte-identical to a serial run and to the
// fork-isolated pool, regardless of completion order.
//
// Also unit-tests the exec::ThreadPool itself: every index runs exactly
// once, exceptions propagate (lowest index wins), and thread counts
// degenerate gracefully.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign_tally_expect.hpp"
#include "check/chaos.hpp"
#include "core/suite.hpp"
#include "exec/journal.hpp"
#include "exec/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace pcieb;

namespace {

struct TempDir {
  std::string path = exec::make_temp_dir("pcieb-thread-sweep-");
  ~TempDir() { fs::remove_all(path); }
};

/// Canonical transcript of a campaign as the observer sees it — any
/// divergence in trial order, content or count shows up here.
std::string campaign_transcript(const check::ChaosConfig& cfg,
                                check::CampaignResult& result_out) {
  std::ostringstream os;
  result_out = check::run_campaign(
      cfg, [&os](const check::TrialSpec& spec, const check::TrialOutcome& out) {
        os << spec.describe() << "\n" << out.summary() << "\n";
      });
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// exec::ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<int>> hits(997);  // prime: uneven deal
  pool.parallel_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroThreadsResolvesToHardwareConcurrency) {
  exec::ThreadPool pool(0);
  EXPECT_GE(pool.threads(), 1u);
  std::atomic<int> ran{0};
  pool.parallel_indexed(3, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, MoreThreadsThanTasksAndEmptyRangesAreFine) {
  exec::ThreadPool pool(8);
  std::atomic<int> ran{0};
  pool.parallel_indexed(2, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
  pool.parallel_indexed(0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, LowestIndexExceptionPropagatesAfterAllTasksFinish) {
  exec::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  try {
    pool.parallel_indexed(hits.size(), [&](std::size_t i) {
      ++hits[i];
      if (i == 7 || i == 40) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "exception did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");  // lowest failing index wins
  }
  // No early cancellation: every task still ran.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------------------------------------------------------------------------
// Chaos campaigns: threads=N byte-identical to serial.

TEST(ThreadSweep, CleanCampaignByteIdenticalToSerial) {
  check::ChaosConfig serial_cfg;
  serial_cfg.trials = 12;
  serial_cfg.iterations = 120;
  serial_cfg.shrink = false;

  check::CampaignResult serial_res;
  const std::string serial = campaign_transcript(serial_cfg, serial_res);
  ASSERT_TRUE(serial_res.ok());
  EXPECT_EQ(serial_res.trials_run, 12u);

  for (const std::size_t threads : {2u, 8u}) {
    auto cfg = serial_cfg;
    cfg.threads = threads;
    check::CampaignResult res;
    const std::string threaded = campaign_transcript(cfg, res);
    EXPECT_EQ(threaded, serial) << "threads=" << threads;
    EXPECT_EQ(res.trials_run, serial_res.trials_run);
    EXPECT_EQ(res.failures, serial_res.failures);
    expect_same_tally(res, serial_res);
  }
}

TEST(ThreadSweep, FailingCampaignStopsAtSameTrialAsSerial) {
  // The seeded credit-leak bug makes some trial fail; the threaded run
  // must report the identical first failure and observer sequence even
  // though workers past the failing index may already have executed.
  check::ChaosConfig serial_cfg;
  serial_cfg.trials = 40;
  serial_cfg.iterations = 2000;
  serial_cfg.seed_credit_leak_bug = true;
  serial_cfg.shrink = false;

  check::CampaignResult serial_res;
  const std::string serial = campaign_transcript(serial_cfg, serial_res);
  ASSERT_FALSE(serial_res.ok()) << "seeded bug not caught; test is vacuous";
  ASSERT_TRUE(serial_res.first_failure.has_value());

  auto cfg = serial_cfg;
  cfg.threads = 8;
  check::CampaignResult res;
  const std::string threaded = campaign_transcript(cfg, res);
  EXPECT_EQ(threaded, serial);
  EXPECT_EQ(res.trials_run, serial_res.trials_run);
  EXPECT_EQ(res.failures, serial_res.failures);
  expect_same_tally(res, serial_res);
  ASSERT_TRUE(res.first_failure.has_value());
  EXPECT_EQ(res.first_failure->describe(),
            serial_res.first_failure->describe());
  EXPECT_EQ(res.first_failure->repro_command(),
            serial_res.first_failure->repro_command());
}

// ---------------------------------------------------------------------------
// Suite experiments: threads=N byte-identical to the fork-isolated pool.

TEST(ThreadSweep, SuiteThreadedMatchesForkIsolatedByteForByte) {
  TempDir fork_dir, thread_dir;
  const auto suite = core::Suite::standard("NFP6000-HSW");
  const std::string filter = "LAT_RD/8/";  // cold + warm: two experiments

  exec::RunConfig fork_cfg;
  fork_cfg.pool.jobs = 2;
  fork_cfg.journal_dir = fork_dir.path;
  const auto forked = suite.run_journaled(filter, fork_cfg);
  ASSERT_EQ(forked.records.size(), 2u);

  exec::RunConfig thr_cfg;
  thr_cfg.threads = 8;
  thr_cfg.journal_dir = thread_dir.path;
  const auto threaded = suite.run_journaled(filter, thr_cfg);
  ASSERT_EQ(threaded.records.size(), 2u);

  EXPECT_EQ(core::summarize(threaded.records), core::summarize(forked.records));
  core::write_csv(forked.records, fork_dir.path + "/fork.csv");
  core::write_csv(threaded.records, fork_dir.path + "/threads.csv");
  EXPECT_EQ(exec::read_file(fork_dir.path + "/fork.csv"),
            exec::read_file(fork_dir.path + "/threads.csv"));
}

TEST(ThreadSweep, ThreadedSuiteJournalResumes) {
  // The threaded pool writes the same journal format, so a run cut short
  // resumes — including resuming into a fork-isolated run.
  TempDir tmp;
  const auto suite = core::Suite::standard("NFP6000-HSW");
  const std::string filter = "LAT_RD/8/";

  exec::RunConfig cut;
  cut.threads = 2;
  cut.journal_dir = tmp.path;
  cut.stop_after = 1;
  const auto partial = suite.run_journaled(filter, cut);
  EXPECT_EQ(partial.records.size(), 1u);

  cut.stop_after = 0;
  cut.resume = true;
  cut.threads = 0;  // finish under the fork-isolated pool
  const auto resumed = suite.run_journaled(filter, cut);
  EXPECT_EQ(resumed.resumed, 1u);
  ASSERT_EQ(resumed.records.size(), 2u);

  TempDir ref_dir;
  exec::RunConfig full;
  full.threads = 2;
  full.journal_dir = ref_dir.path;
  const auto ref = suite.run_journaled(filter, full);
  EXPECT_EQ(core::summarize(resumed.records), core::summarize(ref.records));
}
