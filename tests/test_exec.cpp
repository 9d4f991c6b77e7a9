// Unit tests for the src/exec job-execution layer: outcome
// classification, backoff, the crash-safe journal and its key=value
// record parser, forked workers under deadlines and RSS budgets (driven
// by the test-only CrashHook), the retry/quarantine pool, and the
// journaled job engine over a toy job set.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/backoff.hpp"
#include "exec/crash_hook.hpp"
#include "exec/job_set.hpp"
#include "exec/journal.hpp"
#include "exec/outcome.hpp"
#include "exec/pool.hpp"
#include "exec/worker.hpp"

namespace fs = std::filesystem;
using namespace pcieb;

namespace {

/// A fresh scratch/journal directory removed on scope exit.
struct TempDir {
  std::string path = exec::make_temp_dir("pcieb-exec-test-");
  ~TempDir() { fs::remove_all(path); }
};

/// Three jobs whose record is "job <id>"; accept() keeps what it takes,
/// and marks resumed records.
struct ToyJobs {
  std::map<std::uint64_t, std::string> kept;
  exec::JobSet set;
  ToyJobs(const ToyJobs&) = delete;  // `set` captures this
  ToyJobs& operator=(const ToyJobs&) = delete;
  ToyJobs() {
    set.kind = "toy";
    set.meta = "toy v1\n";
    set.ids = {0, 1, 2};
    set.name = [](std::uint64_t id) { return "toy/" + std::to_string(id); };
    set.run = [](std::uint64_t id, unsigned) {
      return "job " + std::to_string(id);
    };
    set.accept = [this](std::uint64_t id, const std::string& record,
                        bool resumed) {
      if (record != "job " + std::to_string(id)) return false;
      kept[id] = resumed ? "resumed" : "ran";
      return true;
    };
    set.quarantine = [](const exec::JobResult& job) {
      return exec::JobSet::Quarantine{exec::failure_report(job),
                                      std::nullopt};
    };
  }
};

}  // namespace

TEST(Outcome, Classify) {
  exec::Outcome o;
  EXPECT_EQ(o.classify(), "ok");
  o.kind = exec::OutcomeKind::NonzeroExit;
  o.exit_code = 3;
  EXPECT_EQ(o.classify(), "exit(3)");
  o.kind = exec::OutcomeKind::Signal;
  o.term_signal = SIGSEGV;
  EXPECT_EQ(o.classify(), "signal(SIGSEGV)");
  o.kind = exec::OutcomeKind::Timeout;
  EXPECT_EQ(o.classify(), "timeout");
  o.kind = exec::OutcomeKind::Oom;
  EXPECT_EQ(o.classify(), "oom");
}

TEST(Backoff, GrowsThenSaturates) {
  exec::Backoff b;
  b.initial_seconds = 0.1;
  b.cap_seconds = 0.5;
  b.factor = 2.0;
  EXPECT_DOUBLE_EQ(b.delay_seconds(0), 0.1);
  EXPECT_DOUBLE_EQ(b.delay_seconds(1), 0.2);
  EXPECT_DOUBLE_EQ(b.delay_seconds(2), 0.4);
  EXPECT_DOUBLE_EQ(b.delay_seconds(3), 0.5);
  EXPECT_DOUBLE_EQ(b.delay_seconds(30), 0.5);
}

TEST(Journal, RoundTripsRecordsIncludingNewlines) {
  TempDir tmp;
  exec::Journal journal(tmp.path);
  journal.append(0, "plain");
  journal.append(7, "multi\nline\r\nwith\\backslash");
  journal.append(3, "");
  const auto loaded = exec::Journal::load(tmp.path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.at(0), "plain");
  EXPECT_EQ(loaded.at(7), "multi\nline\r\nwith\\backslash");
  EXPECT_EQ(loaded.at(3), "");
}

TEST(Journal, OverwritingARecordKeepsTheLastValue) {
  TempDir tmp;
  exec::Journal journal(tmp.path);
  journal.append(4, "first");
  journal.append(4, "second");
  EXPECT_EQ(exec::Journal::load(tmp.path).at(4), "second");
}

TEST(Journal, IgnoresTornAndForeignFiles) {
  TempDir tmp;
  exec::Journal journal(tmp.path);
  journal.append(1, "good");
  // A torn write leaves a .tmp behind; unrelated files can share the dir.
  std::ofstream(tmp.path + "/r00000002.rec.tmp") << "torn";
  std::ofstream(tmp.path + "/notes.txt") << "not a record";
  std::ofstream(tmp.path + "/rXY.rec") << "bad digits";
  const auto loaded = exec::Journal::load(tmp.path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.at(1), "good");
}

TEST(Journal, LoadOfAbsentDirectoryIsEmpty) {
  EXPECT_TRUE(exec::Journal::load("/nonexistent/pcieb-journal").empty());
}

TEST(Journal, EscapeRoundTrip) {
  const std::string nasty = "a\\b\nc\rd\\ne\\\\";
  EXPECT_EQ(exec::unescape_line(exec::escape_line(nasty)), nasty);
  EXPECT_EQ(exec::escape_line("x\ny").find('\n'), std::string::npos);
}

TEST(ParseRecord, HeaderIsTheFirstLineAndNeverAField) {
  const auto rec = exec::parse_record("pcieb-test v1\nindex=4\n");
  EXPECT_EQ(rec.header, "pcieb-test v1");
  ASSERT_EQ(rec.fields.size(), 1u);
  EXPECT_EQ(exec::record_u64(rec, "index"), 4u);
  // A header that looks like a field stays the header.
  const auto odd = exec::parse_record("k=v\nk2=v2");
  EXPECT_EQ(odd.header, "k=v");
  EXPECT_EQ(exec::record_str(odd, "k"), "");
  EXPECT_EQ(exec::record_str(odd, "k2"), "v2");
  EXPECT_EQ(exec::parse_record("").header, "");
}

TEST(ParseRecord, ValuesAreUnescapedAndMaySplitOnlyAtTheFirstEquals) {
  const std::string value = "line one\nline two\\ with = signs";
  const auto rec = exec::parse_record("h\nmsg=" + exec::escape_line(value) +
                                      "\nempty=\n");
  EXPECT_EQ(exec::record_str(rec, "msg"), value);
  EXPECT_EQ(exec::record_str(rec, "empty"), "");
  EXPECT_EQ(rec.fields.count("empty"), 1u);
}

TEST(ParseRecord, LinesWithoutEqualsAreSkipped) {
  const auto rec = exec::parse_record("h\nno equals here\n\nkey=1\njunk");
  ASSERT_EQ(rec.fields.size(), 1u);
  EXPECT_EQ(exec::record_u64(rec, "key"), 1u);
}

TEST(ParseRecord, AbsentKeyReadsEmptyAndZero) {
  const auto rec = exec::parse_record("h\npresent=9\n");
  EXPECT_EQ(exec::record_str(rec, "absent"), "");
  EXPECT_EQ(exec::record_u64(rec, "absent"), 0u);
}

TEST(ParseRecord, NonNumericValueReadsZero) {
  const auto rec = exec::parse_record(
      "h\nword=abc\ntrailing=12abc\nneg=-1\nspace= 7\nempty=\n"
      "huge=99999999999999999999\nmax=18446744073709551615\n");
  EXPECT_EQ(exec::record_u64(rec, "word"), 0u);
  EXPECT_EQ(exec::record_u64(rec, "trailing"), 0u);
  EXPECT_EQ(exec::record_u64(rec, "neg"), 0u);
  EXPECT_EQ(exec::record_u64(rec, "space"), 0u);
  EXPECT_EQ(exec::record_u64(rec, "empty"), 0u);
  EXPECT_EQ(exec::record_u64(rec, "huge"), 0u);  // overflows 64 bits
  EXPECT_EQ(exec::record_u64(rec, "max"), 18446744073709551615ull);
}

TEST(CrashHook, ParsesRulesAndWildcard) {
  const auto hook = exec::CrashHook::parse("segv@3;hang@5;oom@*");
  EXPECT_EQ(hook.action_for(3), exec::CrashHook::Action::Segv);
  EXPECT_EQ(hook.action_for(5), exec::CrashHook::Action::Hang);
  // First matching rule wins; the wildcard catches everything else.
  EXPECT_EQ(hook.action_for(0), exec::CrashHook::Action::Oom);
  EXPECT_EQ(hook.action_for(99), exec::CrashHook::Action::Oom);
  EXPECT_TRUE(exec::CrashHook::parse("").empty());
  EXPECT_EQ(exec::CrashHook::parse("segv@1").action_for(2),
            exec::CrashHook::Action::None);
}

TEST(CrashHook, RejectsMalformedSpecs) {
  EXPECT_THROW(exec::CrashHook::parse("explode@1"), std::invalid_argument);
  EXPECT_THROW(exec::CrashHook::parse("segv"), std::invalid_argument);
  EXPECT_THROW(exec::CrashHook::parse("segv@xyz"), std::invalid_argument);
}

TEST(Worker, OkJobReturnsPayloadAndAttempt) {
  TempDir tmp;
  exec::Limits limits;
  const auto out = exec::run_job(
      1, 2, [](unsigned attempt) { return "payload-" + std::to_string(attempt); },
      limits, tmp.path + "/w");
  ASSERT_TRUE(out.ok()) << out.classify();
  EXPECT_EQ(out.payload, "payload-2");
  EXPECT_GT(out.wall_seconds, 0.0);
}

TEST(Worker, ThrowingJobIsNonzeroExitWithStderrTail) {
  TempDir tmp;
  exec::Limits limits;
  const auto out = exec::run_job(
      1, 0,
      [](unsigned) -> std::string {
        throw std::runtime_error("deliberate test failure");
      },
      limits, tmp.path + "/w");
  EXPECT_EQ(out.kind, exec::OutcomeKind::NonzeroExit);
  EXPECT_EQ(out.exit_code, 1);
  EXPECT_NE(out.stderr_tail.find("deliberate test failure"),
            std::string::npos);
}

TEST(Worker, SegfaultClassifiedAsSignal) {
  TempDir tmp;
  exec::Limits limits;
  const auto out = exec::run_job(
      1, 0,
      [](unsigned) -> std::string {
        exec::CrashHook::fire(exec::CrashHook::Action::Segv);
        return "unreachable";
      },
      limits, tmp.path + "/w");
  EXPECT_EQ(out.kind, exec::OutcomeKind::Signal);
  EXPECT_EQ(out.term_signal, SIGSEGV);
  EXPECT_EQ(out.classify(), "signal(SIGSEGV)");
}

TEST(Worker, HangKilledAtDeadlineAsTimeout) {
  TempDir tmp;
  exec::Limits limits;
  limits.wall_seconds = 0.3;
  const auto out = exec::run_job(
      1, 0,
      [](unsigned) -> std::string {
        exec::CrashHook::fire(exec::CrashHook::Action::Hang);
        return "unreachable";
      },
      limits, tmp.path + "/w");
  EXPECT_EQ(out.kind, exec::OutcomeKind::Timeout);
  EXPECT_GE(out.wall_seconds, 0.3);
}

TEST(Worker, RssBudgetBreachClassifiedAsOom) {
  TempDir tmp;
  exec::Limits limits;
  limits.wall_seconds = 30.0;
  // Budget a margin above the current footprint the forked child inherits.
  limits.rss_bytes = exec::own_rss_bytes() + (128ull << 20);
  const auto out = exec::run_job(
      1, 0,
      [](unsigned) -> std::string {
        exec::CrashHook::fire(exec::CrashHook::Action::Oom);
        return "unreachable";
      },
      limits, tmp.path + "/w");
  EXPECT_EQ(out.kind, exec::OutcomeKind::Oom);
}

TEST(Pool, RetriesUntilAJobSucceeds) {
  TempDir tmp;
  exec::PoolConfig cfg;
  cfg.jobs = 2;
  cfg.max_retries = 3;
  cfg.backoff.initial_seconds = 0.01;
  cfg.backoff.cap_seconds = 0.02;
  cfg.scratch_dir = tmp.path;
  std::vector<exec::JobSpec> specs(2);
  specs[0].id = 0;
  specs[0].name = "flaky";
  // The worker is a fresh fork each attempt, so "fail the first two
  // attempts" must key off the attempt number, not parent-side state.
  specs[0].fn = [](unsigned attempt) -> std::string {
    if (attempt < 2) throw std::runtime_error("not yet");
    return "ok-after-retries";
  };
  specs[1].id = 1;
  specs[1].name = "steady";
  specs[1].fn = [](unsigned) { return std::string("steady-result"); };

  std::map<std::uint64_t, exec::JobResult> results;
  exec::run_jobs(cfg, specs,
                 [&](const exec::JobResult& r) { results.emplace(r.id, r); });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].quarantined);
  EXPECT_EQ(results[0].attempts, 3u);
  EXPECT_EQ(results[0].outcome.payload, "ok-after-retries");
  EXPECT_EQ(results[1].outcome.payload, "steady-result");
  EXPECT_EQ(results[1].attempts, 1u);
}

TEST(Pool, QuarantinesAfterExhaustingRetries) {
  TempDir tmp;
  exec::PoolConfig cfg;
  cfg.max_retries = 1;
  cfg.backoff.initial_seconds = 0.01;
  cfg.scratch_dir = tmp.path;
  std::vector<exec::JobSpec> specs(1);
  specs[0].id = 9;
  specs[0].name = "doomed";
  specs[0].fn = [](unsigned) -> std::string {
    exec::CrashHook::fire(exec::CrashHook::Action::Segv);
    return "unreachable";
  };
  std::vector<exec::JobResult> results;
  exec::run_jobs(cfg, specs,
                 [&](const exec::JobResult& r) { results.push_back(r); });
  ASSERT_EQ(results.size(), 1u);  // the observer fires once per job
  EXPECT_TRUE(results[0].quarantined);
  EXPECT_EQ(results[0].attempts, 2u);  // first attempt + one retry
  EXPECT_EQ(results[0].outcome.kind, exec::OutcomeKind::Signal);
}

// An observer that throws must not leave a worker running unsupervised:
// run_jobs kills and reaps the workers still running before it rethrows.
TEST(Pool, ObserverThatThrowsLeavesNoWorkerRunning) {
  TempDir tmp;
  exec::PoolConfig cfg;
  cfg.jobs = 2;
  cfg.scratch_dir = tmp.path;
  const std::string pid_file = tmp.path + "/sleeper.pid";
  std::vector<exec::JobSpec> specs(2);
  specs[0].id = 0;
  specs[0].name = "sleeper";
  specs[0].fn = [pid_file](unsigned) -> std::string {
    exec::atomic_write_file(pid_file, std::to_string(::getpid()), false);
    ::sleep(30);
    return "late";
  };
  specs[1].id = 1;
  specs[1].name = "quick";
  specs[1].fn = [pid_file](unsigned) {
    while (!fs::exists(pid_file)) ::usleep(1'000);  // the sleeper is up
    return std::string("early");
  };
  EXPECT_THROW(exec::run_jobs(cfg, specs,
                              [](const exec::JobResult&) {
                                throw exec::InfraError("observer");
                              }),
               exec::InfraError);
  const pid_t sleeper = std::stoi(exec::read_file(pid_file));
  EXPECT_EQ(::kill(sleeper, 0), -1) << "worker " << sleeper << " outlived";
  EXPECT_EQ(errno, ESRCH);
}

TEST(Pool, EmptyBatchIsANoOp) {
  TempDir tmp;
  exec::PoolConfig cfg;
  cfg.scratch_dir = tmp.path;
  std::size_t observed = 0;
  exec::run_jobs(cfg, {}, [&](const exec::JobResult&) { ++observed; });
  EXPECT_EQ(observed, 0u);
}

TEST(JobSet, ForkedAndThreadedRunsJournalEveryRecord) {
  for (const std::size_t threads : {0u, 2u}) {
    TempDir tmp;
    ToyJobs toy;
    exec::RunConfig cfg;
    cfg.pool.jobs = 2;
    cfg.threads = threads;
    cfg.journal_dir = tmp.path;
    const auto res = exec::run_job_set(cfg, toy.set);
    EXPECT_EQ(res.resumed, 0u);
    EXPECT_EQ(exec::read_file(tmp.path + "/toy.meta"), "toy v1\n");
    const auto journal = exec::Journal::load(tmp.path);
    ASSERT_EQ(journal.size(), 3u) << threads;
    EXPECT_EQ(journal.at(2), "job 2");
    EXPECT_EQ(toy.kept.at(1), "ran");

    ToyJobs again;
    cfg.resume = true;
    EXPECT_EQ(exec::run_job_set(cfg, again.set).resumed, 3u);
    EXPECT_EQ(again.kept.at(1), "resumed");
    again.set.meta = "toy v2\n";
    EXPECT_THROW(exec::run_job_set(cfg, again.set), exec::InfraError);
  }
}

// A worker's record that names another job (or does not parse) is a
// supervisor-side fault, never a result or a quarantine.
TEST(JobSet, WorkerRecordThatAcceptRejectsIsAnInfraError) {
  for (const std::size_t threads : {0u, 2u}) {
    TempDir tmp;
    ToyJobs toy;
    toy.set.run = [](std::uint64_t, unsigned) { return std::string("job 7"); };
    exec::RunConfig cfg;
    cfg.threads = threads;
    cfg.journal_dir = tmp.path;
    EXPECT_THROW(exec::run_job_set(cfg, toy.set), exec::InfraError) << threads;
  }
}

// The job set renders a quarantine: with a record the verdict is
// journaled and a resume keeps it; without one the job runs again.
TEST(JobSet, QuarantineRecordDecidesWhetherAResumeRerunsTheJob) {
  for (const bool journal_verdict : {false, true}) {
    TempDir tmp;
    ToyJobs toy;
    toy.set.run = [](std::uint64_t id, unsigned) {
      if (id == 1) throw std::runtime_error("boom");
      return "job " + std::to_string(id);
    };
    if (journal_verdict) {
      toy.set.quarantine = [](const exec::JobResult& job) {
        return exec::JobSet::Quarantine{"verdict",
                                        "job " + std::to_string(job.id)};
      };
    }
    exec::RunConfig cfg;
    cfg.threads = 2;  // a throw quarantines at once, classified exit(1)
    cfg.journal_dir = tmp.path;
    const auto res = exec::run_job_set(cfg, toy.set);
    const std::string artifact =
        exec::read_file(res.artifacts_dir + "/toy_1.txt");
    if (!journal_verdict) {
      EXPECT_NE(artifact.find("classification: exit(1)"), std::string::npos);
      EXPECT_NE(artifact.find("  boom\n"), std::string::npos);
    }
    EXPECT_EQ(exec::Journal::load(tmp.path).count(1),
              journal_verdict ? 1u : 0u);

    ToyJobs again;
    cfg.resume = true;
    EXPECT_EQ(exec::run_job_set(cfg, again.set).resumed,
              journal_verdict ? 3u : 2u);
    EXPECT_EQ(again.kept.at(1), journal_verdict ? "resumed" : "ran");
  }
}

TEST(JobSet, StopAfterCutsTheRunAndAResumeFinishesIt) {
  TempDir tmp;
  ToyJobs toy;
  exec::RunConfig cfg;
  cfg.journal_dir = tmp.path;
  cfg.stop_after = 2;
  exec::run_job_set(cfg, toy.set);
  EXPECT_EQ(toy.kept.size(), 2u);
  cfg.stop_after = 0;
  cfg.resume = true;
  ToyJobs again;
  EXPECT_EQ(exec::run_job_set(cfg, again.set).resumed, 2u);
  EXPECT_EQ(again.kept.size(), 3u);
}
