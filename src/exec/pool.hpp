// Worker pool: runs a batch of jobs across up to `jobs` concurrent forked
// workers, retries infrastructure failures (crash, hang, OOM, nonzero
// exit) with capped exponential backoff, and quarantines a job that keeps
// failing — the batch always runs to completion instead of aborting.
//
// "Quarantined" is the graceful-degradation verdict: the job burned its
// first attempt plus max_retries retries and never produced a result.
// The pool reports it (final outcome, attempt count) and moves on;
// run_job_set (job_set.hpp) is what writes its artifact.
//
// The observer fires in completion order, which is nondeterministic under
// jobs > 1: anything that must be byte-stable is derived by job id, never
// from that order. See docs/EXEC.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/backoff.hpp"
#include "exec/worker.hpp"

namespace pcieb::exec {

struct PoolConfig {
  std::size_t jobs = 1;       ///< concurrent workers (>= 1)
  Limits limits;              ///< per-attempt deadline and RSS budget
  unsigned max_retries = 2;   ///< retries after the first attempt
  Backoff backoff;
  std::string scratch_dir;    ///< required; must exist
};

struct JobSpec {
  std::uint64_t id = 0;   ///< unique; keys scratch files and CrashHook
  std::string name;       ///< for observers/artifacts
  Job fn;
};

struct JobResult {
  std::uint64_t id = 0;
  std::string name;
  Outcome outcome;            ///< the final attempt's outcome
  unsigned attempts = 0;      ///< total attempts executed
  bool quarantined = false;   ///< never produced a result
};

/// Fires once per job, after its final attempt. If it throws, run_jobs
/// kills and reaps the workers still running and rethrows.
using JobObserver = std::function<void(const JobResult&)>;

/// Run every job to a final verdict, reported to `observe`. Throws
/// InfraError only for supervisor-side failures (fork, scratch files); job
/// failures never throw.
void run_jobs(const PoolConfig& cfg, const std::vector<JobSpec>& specs,
              const JobObserver& observe);

}  // namespace pcieb::exec
