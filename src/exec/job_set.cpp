#include "exec/job_set.hpp"

#include <cctype>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>

#include "exec/journal.hpp"
#include "exec/thread_pool.hpp"

namespace pcieb::exec {
namespace fs = std::filesystem;
namespace {

void create_dir(const std::string& dir, const char* what) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw InfraError(std::string("cannot create ") + what + " dir " + dir +
                     ": " + ec.message());
  }
}

}  // namespace

std::string failure_report(const JobResult& job, const std::string& note) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "classification: " << job.outcome.classify() << '\n'
     << "attempts: " << job.attempts << '\n'
     << "wall_seconds_last_attempt: " << job.outcome.wall_seconds << '\n'
     << "peak_rss_bytes: " << job.outcome.peak_rss_bytes << '\n'
     << note << "stderr tail:\n";
  if (job.outcome.stderr_tail.empty()) os << "  (empty)\n";
  std::istringstream tail(job.outcome.stderr_tail);
  for (std::string line; std::getline(tail, line);) os << "  " << line << '\n';
  return os.str();
}

RunResult run_job_set(const RunConfig& cfg, const JobSet& jobs) {
  RunResult res;
  res.journal_dir = cfg.journal_dir.empty()
                        ? make_temp_dir("pcieb-" + jobs.kind + "-")
                        : cfg.journal_dir;
  const Journal journal(res.journal_dir);
  const std::string meta_path = res.journal_dir + "/" + jobs.kind + ".meta";
  if (!cfg.resume || !fs::exists(meta_path)) {
    atomic_write_file(meta_path, jobs.meta, /*sync=*/true);
  } else if (read_file(meta_path) != jobs.meta) {
    throw InfraError("resume: journal " + res.journal_dir +
                     " was written by a different " + jobs.kind + " (" +
                     jobs.kind + ".meta differs)");
  }
  res.artifacts_dir = cfg.artifacts_dir.empty()
                          ? res.journal_dir + "/artifacts"
                          : cfg.artifacts_dir;
  create_dir(res.artifacts_dir, "artifacts");
  PoolConfig pool = cfg.pool;
  if (pool.scratch_dir.empty()) pool.scratch_dir = res.journal_dir + "/scratch";
  create_dir(pool.scratch_dir, "scratch");

  const auto loaded = cfg.resume ? Journal::load(res.journal_dir)
                                 : std::map<std::uint64_t, std::string>{};
  std::vector<std::uint64_t> pending;
  for (const std::uint64_t id : jobs.ids) {
    const auto it = loaded.find(id);
    if (it != loaded.end() && jobs.accept(id, it->second, /*resumed=*/true)) {
      ++res.resumed;
    } else if (cfg.stop_after == 0 || pending.size() < cfg.stop_after) {
      pending.push_back(id);
    }
  }

  const auto write_artifact = [&](const JobResult& job,
                                  const std::string& text) {
    std::string file = job.name;
    for (char& c : file) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
          c != '.') {
        c = '_';
      }
    }
    atomic_write_file(res.artifacts_dir + "/" + file + ".txt", text,
                      /*sync=*/true);
  };
  const auto commit = [&](std::uint64_t id, const std::string& record) {
    if (!jobs.accept(id, record, /*resumed=*/false)) {
      throw InfraError(jobs.name(id) + ": worker returned a malformed record");
    }
    journal.append(id, record);
  };
  std::map<std::uint64_t, JobResult> quarantined;
  const auto finish = [&](const JobResult& job) {
    if (!job.quarantined) {
      commit(job.id, job.outcome.payload);
      return;
    }
    const JobSet::Quarantine q = jobs.quarantine(job);
    write_artifact(job, q.artifact);
    if (q.record) commit(job.id, *q.record);
    quarantined.emplace(job.id, job);
  };

  if (cfg.threads > 0) {
    // Bodies run in parallel. accept, quarantine, the journal and the
    // artifacts run under one lock, so a job set's state needs none of
    // its own; nothing byte-stable may depend on completion order.
    std::mutex m;
    const ThreadPool threads(cfg.threads);
    threads.parallel_indexed(pending.size(), [&](std::size_t i) {
      JobResult job;
      job.id = pending[i];
      job.name = jobs.name(job.id);
      job.attempts = 1;
      try {
        job.outcome.payload = jobs.run(job.id, 0);
      } catch (const std::exception& e) {
        // The nonzero exit a worker would have died with.
        job.quarantined = true;
        job.outcome.kind = OutcomeKind::NonzeroExit;
        job.outcome.exit_code = 1;
        job.outcome.stderr_tail = std::string(e.what()) + "\n";
      }
      const std::lock_guard<std::mutex> lock(m);
      finish(job);
    });
  } else {
    std::vector<JobSpec> specs;
    for (const std::uint64_t id : pending) {
      specs.push_back({id, jobs.name(id), [&jobs, id](unsigned attempt) {
                         return jobs.run(id, attempt);
                       }});
    }
    run_jobs(pool, specs, finish);
  }

  if (!jobs.final_artifact) return res;
  for (const auto& [id, job] : quarantined) {
    const std::string text = jobs.final_artifact(job, [&](const Job& fn) {
      return run_job(id, 0, fn, pool.limits,
                     pool.scratch_dir + "/final-" + std::to_string(id));
    });
    if (!text.empty()) write_artifact(job, text);
  }
  return res;
}

}  // namespace pcieb::exec
