// One journaled job engine. run_job_set() runs a job set — the
// experiments of a suite, the trials of a chaos campaign — in forked
// workers (run_jobs: deadline, RSS budget, retries) or on an in-process
// ThreadPool, and owns everything around the jobs: the journal directory
// (or a fresh temp one), the meta file a resume compares as text, loading
// resumed records, the artifacts and scratch directories, artifact writing
// and the TEST-ONLY stop_after cut. The job set says what its jobs are,
// what their records mean and what a quarantined job leaves behind.
// See docs/EXEC.md.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exec/pool.hpp"

namespace pcieb::exec {

/// How a job set runs.
struct RunConfig {
  /// Forked workers: jobs, per-attempt limits, retries and backoff. An
  /// empty scratch_dir defaults to "<journal>/scratch".
  PoolConfig pool;
  /// > 0 runs the jobs on an in-process ThreadPool of this many threads
  /// instead: no deadline, RSS budget or retries (a job that throws is
  /// quarantined at once), and no fork either.
  std::size_t threads = 0;
  /// Journal directory; empty = a fresh temp directory (no resume).
  std::string journal_dir;
  bool resume = false;  ///< accept the records already in the journal
  /// Quarantine artifacts directory; empty = "<journal>/artifacts".
  std::string artifacts_dir;
  /// TEST-ONLY: run at most this many jobs, then return as if the run had
  /// been killed (0 = run everything).
  std::size_t stop_after = 0;
};

/// Runs a job body once in a fresh forked worker under the run's limits.
using Isolate = std::function<Outcome(const Job&)>;

struct JobSet {
  /// "suite", "campaign": names the meta file "<kind>.meta" and temp
  /// journals "pcieb-<kind>-XXXXXX".
  std::string kind;
  /// What shapes a record besides its job's id. A resume compares it with
  /// the meta file as text and refuses a journal whose meta differs.
  std::string meta;
  std::vector<std::uint64_t> ids;  ///< in the order jobs resume and run
  /// Progress lines and the artifact's file name.
  std::function<std::string(std::uint64_t id)> name;
  /// Job `id`'s record, as the journal stores it. Runs in a forked worker
  /// or on a pool thread, so it reads and never changes what the other
  /// members capture; `attempt` is 0 on the first try.
  std::function<std::string(std::uint64_t id, unsigned attempt)> run;
  /// Parse and keep job `id`'s record, sent by a worker or loaded from the
  /// journal (`resumed`); false when it does not parse or names another
  /// job. A rejected journal record re-runs its job; a rejected worker
  /// record is an InfraError.
  std::function<bool(std::uint64_t id, const std::string& record,
                     bool resumed)>
      accept;
  /// What a job that never produced a record leaves: an artifact, and the
  /// record to journal as its verdict (none: a resume runs the job again).
  struct Quarantine {
    std::string artifact;
    std::optional<std::string> record;
  };
  std::function<Quarantine(const JobResult& job)> quarantine;
  /// Optional: once every job has run, a fuller artifact for a quarantined
  /// job ("" keeps the first). Candidates re-run only through `isolate`.
  std::function<std::string(const JobResult& job, const Isolate& isolate)>
      final_artifact;
};

struct RunResult {
  std::string journal_dir;
  std::string artifacts_dir;
  std::size_t resumed = 0;  ///< jobs whose journal record was accepted
};

/// The lines every quarantine artifact shares: the final attempt's
/// classification, the attempt count, the last attempt's wall time and
/// peak RSS, then `note` (verbatim) and the worker's stderr tail.
std::string failure_report(const JobResult& job, const std::string& note = "");

/// Run (or resume) every job to a record or a quarantine. Throws
/// InfraError for supervisor-side failures: journal I/O, fork, a resume
/// whose meta differs, a worker record that `accept` rejects.
RunResult run_job_set(const RunConfig& cfg, const JobSet& jobs);

}  // namespace pcieb::exec
