#include "exec/pool.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <deque>

namespace pcieb::exec {
namespace {

struct Pending {
  const JobSpec* spec = nullptr;
  unsigned attempt = 0;
  double ready_at = 0;  ///< monotonic seconds; backoff gate
};

struct Running {
  WorkerHandle worker;
  const JobSpec* spec = nullptr;
};

std::string scratch_prefix(const PoolConfig& cfg, const JobSpec& s,
                           unsigned attempt) {
  return cfg.scratch_dir + "/j" + std::to_string(s.id) + "-a" +
         std::to_string(attempt);
}

}  // namespace

void run_jobs(const PoolConfig& cfg, const std::vector<JobSpec>& specs,
              const JobObserver& observe) {
  if (cfg.jobs == 0) throw InfraError("pool: jobs must be >= 1");
  if (cfg.scratch_dir.empty()) throw InfraError("pool: scratch_dir required");

  std::deque<Pending> pending;
  for (const auto& s : specs) pending.push_back({&s, 0, 0.0});
  std::vector<Running> running;

  // No worker outlives its batch: when an observer or a fork throws, the
  // workers still running are killed and reaped before the exception
  // leaves, instead of running on with no deadline or budget enforced.
  struct KillRunning {
    std::vector<Running>& running;
    ~KillRunning() {
      for (const Running& r : running) {
        ::kill(r.worker.pid, SIGKILL);
        ::waitpid(r.worker.pid, nullptr, 0);
      }
    }
  } kill_running{running};

  const auto finish = [&](const JobSpec& spec, Outcome out, unsigned attempts,
                          bool quarantined) {
    JobResult r;
    r.id = spec.id;
    r.name = spec.name;
    r.outcome = std::move(out);
    r.attempts = attempts;
    r.quarantined = quarantined;
    observe(r);
  };

  while (!pending.empty() || !running.empty()) {
    const double now = monotonic_seconds();
    bool progressed = false;

    // Launch: fill free slots with jobs whose backoff delay has elapsed.
    for (auto it = pending.begin();
         it != pending.end() && running.size() < cfg.jobs;) {
      if (it->ready_at > now) {
        ++it;
        continue;
      }
      Running run;
      run.spec = it->spec;
      run.worker =
          spawn_worker(it->spec->id, it->attempt, it->spec->fn, cfg.limits,
                       scratch_prefix(cfg, *it->spec, it->attempt));
      running.push_back(std::move(run));
      it = pending.erase(it);
      progressed = true;
    }

    // Reap: classify finished workers; retry or quarantine failures.
    for (auto it = running.begin(); it != running.end();) {
      auto out = poll_worker(it->worker);
      if (!out) {
        ++it;
        continue;
      }
      progressed = true;
      const JobSpec& spec = *it->spec;
      const unsigned attempt = it->worker.attempt;
      it = running.erase(it);
      if (out->ok()) {
        finish(spec, std::move(*out), attempt + 1, false);
      } else if (attempt < cfg.max_retries) {
        pending.push_back(
            {&spec, attempt + 1,
             monotonic_seconds() + cfg.backoff.delay_seconds(attempt)});
      } else {
        finish(spec, std::move(*out), attempt + 1, true);
      }
    }

    if (!progressed) ::usleep(1'000);
  }
}

}  // namespace pcieb::exec
