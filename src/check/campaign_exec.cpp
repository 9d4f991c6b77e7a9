#include "check/campaign_exec.hpp"

#include <cstdio>
#include <map>
#include <sstream>

#include "common/stats.hpp"
#include "exec/journal.hpp"

namespace pcieb::check {
namespace {

constexpr const char* kRecordHeader = "pcieb-trial v1";
constexpr const char* kMetaHeader = "pcieb-campaign v1";

/// CSV cell quoting (RFC-4180 style): fault specs contain commas.
std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

/// campaign.meta pins everything that changes a trial's record. Keys past
/// telemetry are written only when their mode is on, so journals of
/// campaigns without it keep resuming.
std::string campaign_meta(const ChaosConfig& chaos) {
  std::ostringstream os;
  os << kMetaHeader << '\n'
     << "master_seed=" << chaos.master_seed << '\n'
     << "iters=" << chaos.iterations << '\n'
     << "telemetry=" << (chaos.telemetry ? 1 : 0) << '\n';
  if (chaos.recovery.enabled) {
    os << "recovery=" << exec::escape_line(chaos.recovery.describe()) << '\n';
  }
  if (chaos.tenants > 0) {
    os << "tenants=" << chaos.tenants << '\n'
       << "attacker=" << chaos.attacker << '\n'
       << "isolation=" << (chaos.isolation_weakened ? "weakened" : "armed")
       << '\n';
  }
  if (chaos.offered_load > 0) {
    std::ostringstream od;
    od << chaos.offered_load << "x " << nic::to_string(chaos.service)
       << " bp=" << (chaos.backpressure ? "on" : "off");
    os << "overload=" << exec::escape_line(od.str()) << '\n';
  }
  if (chaos.monitors_throw) os << "throw_monitors=1\n";
  if (chaos.seed_credit_leak_bug) os << "seed_credit_leak_bug=1\n";
  if (chaos.seed_misroute_bug) os << "seed_misroute_bug=1\n";
  return os.str();
}

std::string artifact_text(const TrialRecord& rec, const exec::JobResult& job,
                          const std::string& shrunk_section) {
  return "# pciebench quarantined-trial artifact\ntrial: " +
         std::to_string(rec.index) + "\nspec: " + rec.spec +
         "\nstatus: quarantined\n" +
         exec::failure_report(
             job, "monitor state: unavailable (worker did not complete)\n") +
         "repro:\n  " + rec.repro + '\n' + shrunk_section;
}

}  // namespace

const char* to_string(TrialRecord::Status s) {
  switch (s) {
    case TrialRecord::Status::Ok: return "ok";
    case TrialRecord::Status::Violation: return "violation";
    case TrialRecord::Status::Quarantined: return "quarantined";
  }
  return "?";
}

std::string TrialRecord::serialize() const {
  std::ostringstream os;
  os << kRecordHeader << '\n'
     << "index=" << index << '\n'
     << "status=" << to_string(status) << '\n'
     << "classification=" << exec::escape_line(classification) << '\n'
     << "attempts=" << attempts << '\n'
     << "violations=" << violations << '\n'
     << "first=" << exec::escape_line(first_violation) << '\n'
     << "error=" << exec::escape_line(error) << '\n'
     << "spec=" << exec::escape_line(spec) << '\n'
     << "repro=" << exec::escape_line(repro) << '\n';
  // Written only when present so pre-telemetry journals and disarmed
  // campaigns serialize exactly as before.
  if (!digests.empty()) os << "digests=" << exec::escape_line(digests) << '\n';
  if (!recovery_state.empty()) {
    os << "recovery=" << exec::escape_line(recovery) << '\n'
       << "recovery_state=" << exec::escape_line(recovery_state) << '\n';
  }
  if (perturbed != 0) os << "perturbed=" << perturbed << '\n';
  if (device_wide != 0) os << "device_wide=" << device_wide << '\n';
  if (!overload.empty()) os << "overload=" << exec::escape_line(overload) << '\n';
  return os.str();
}

std::optional<TrialRecord> TrialRecord::deserialize(
    const std::string& payload) {
  const exec::Record kv = exec::parse_record(payload);
  if (kv.header != kRecordHeader) return std::nullopt;
  TrialRecord rec;
  rec.index = exec::record_u64(kv, "index");
  const std::string status = exec::record_str(kv, "status");
  if (status == "ok") rec.status = Status::Ok;
  else if (status == "violation") rec.status = Status::Violation;
  else if (status == "quarantined") rec.status = Status::Quarantined;
  else return std::nullopt;
  rec.classification = exec::record_str(kv, "classification");
  rec.attempts = static_cast<unsigned>(exec::record_u64(kv, "attempts"));
  rec.violations = exec::record_u64(kv, "violations");
  rec.first_violation = exec::record_str(kv, "first");
  rec.error = exec::record_str(kv, "error");
  rec.spec = exec::record_str(kv, "spec");
  rec.repro = exec::record_str(kv, "repro");
  rec.digests = exec::record_str(kv, "digests");
  rec.recovery = exec::record_str(kv, "recovery");
  rec.recovery_state = exec::record_str(kv, "recovery_state");
  rec.perturbed = exec::record_u64(kv, "perturbed");
  rec.device_wide = exec::record_u64(kv, "device_wide");
  rec.overload = exec::record_str(kv, "overload");
  rec.resumed = true;
  return rec;
}

std::string TrialRecord::summary_line() const {
  char head[64];
  std::snprintf(head, sizeof head, "%6llu  %-11s %-16s viol=%llu",
                static_cast<unsigned long long>(index), to_string(status),
                classification.c_str(),
                static_cast<unsigned long long>(violations));
  std::string out = head;
  out += "  ";
  out += spec;
  if (!recovery_state.empty()) {
    out += " | recovery: " + recovery_state;
    if (!recovery.empty()) out += " [" + recovery + "]";
  }
  if (perturbed != 0 || device_wide != 0) {
    out += " | blast: " + std::to_string(perturbed) + " tenant" +
           (perturbed == 1 ? "" : "s") + ", " + std::to_string(device_wide) +
           " device-wide";
  }
  if (!overload.empty()) out += " | overload: " + overload;
  if (!first_violation.empty()) out += " | first: " + first_violation;
  if (!error.empty()) out += " | error: " + error;
  return out;
}

std::string ExecCampaignResult::summary_text(const ChaosConfig& cfg) const {
  std::ostringstream os;
  os << "chaos campaign: " << records.size() << " trials, master seed 0x"
     << std::hex << cfg.master_seed << std::dec << ", " << cfg.iterations
     << " iters/trial\n";
  for (const auto& r : records) os << r.summary_line() << '\n';

  // Aggregate monitor-violation stats over completed (non-quarantined)
  // trials. The SampleSet is empty when every trial was quarantined —
  // the stats layer must report clean zeros, never NaN (docs/EXEC.md).
  SampleSet violations_per_trial;
  for (const auto& r : records) {
    if (r.status != TrialRecord::Status::Quarantined) {
      violations_per_trial.add(static_cast<double>(r.violations));
    }
  }
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "totals: ok=" << ok << " violation=" << violation
     << " quarantined=" << quarantined << '\n'
     << "completed-trial violations: n=" << violations_per_trial.count()
     << " mean=" << violations_per_trial.mean()
     << " max=" << violations_per_trial.max() << '\n';
  if (cfg.recovery.enabled) {
    os << "recovery: ladder fired in " << trials_recovered << " trial"
       << (trials_recovered == 1 ? "" : "s") << ", " << trials_quarantined
       << " quarantined\n";
  }
  if (cfg.tenants > 0) {
    os << "isolation (" << (cfg.isolation_weakened ? "weakened" : "armed")
       << "): blast radius " << perturbed_victims << " perturbed tenant-run"
       << (perturbed_victims == 1 ? "" : "s") << ", " << device_wide_actions
       << " device-wide recovery action"
       << (device_wide_actions == 1 ? "" : "s") << '\n';
  }
  if (cfg.offered_load > 0) {
    os << "overload (" << cfg.offered_load << "x, "
       << nic::to_string(cfg.service) << ", bp="
       << (cfg.backpressure ? "on" : "off") << "): offered="
       << overload_offered << " delivered=" << overload_delivered
       << " dropped=" << overload_dropped << '\n';
  }
  return os.str();
}

void ExecCampaignResult::write_csv(const std::string& path) const {
  std::ostringstream os;
  os << "trial,status,classification,violations,first_violation,error,spec,"
        "recovery_state,recovery,perturbed,device_wide,overload\n";
  for (const auto& r : records) {
    os << r.index << ',' << to_string(r.status) << ','
       << csv_quote(r.classification) << ',' << r.violations << ','
       << csv_quote(r.first_violation) << ',' << csv_quote(r.error) << ','
       << csv_quote(r.spec) << ',' << csv_quote(r.recovery_state) << ','
       << csv_quote(r.recovery) << ',' << r.perturbed << ','
       << r.device_wide << ',' << csv_quote(r.overload) << '\n';
  }
  exec::atomic_write_file(path, os.str(), /*sync=*/false);
}

ExecCampaignResult run_campaign_isolated(const ExecCampaignConfig& cfg,
                                         const ExecTrialObserver& observe) {
  const ChaosConfig& chaos = cfg.chaos;
  exec::JobSet jobs;
  jobs.kind = "campaign";
  jobs.meta = campaign_meta(chaos);
  for (std::uint64_t i = 0; i < chaos.trials; ++i) jobs.ids.push_back(i);
  jobs.name = [](std::uint64_t id) { return "trial-" + std::to_string(id); };
  jobs.run = [&chaos](std::uint64_t id, unsigned attempt) {
    const TrialSpec trial = generate_trial(chaos, id);
    TrialRecord rec = TrialRecord::of(
        trial, run_trial(trial, chaos.telemetry, chaos.monitors_throw));
    rec.attempts = attempt + 1;
    return rec.serialize();
  };
  std::map<std::uint64_t, TrialRecord> records;
  jobs.accept = [&](std::uint64_t id, const std::string& record,
                    bool resumed) {
    auto rec = TrialRecord::deserialize(record);
    if (!rec || rec->index != id) return false;
    rec->resumed = resumed;
    if (observe) observe(*rec);
    records.emplace(id, std::move(*rec));
    return true;
  };
  // A quarantined trial's verdict is its record, so a resume does not run
  // it again: trial i is pure in (master_seed, i) and would crash again.
  // Its record is the spec's with an empty outcome.
  jobs.quarantine = [&chaos](const exec::JobResult& job) {
    TrialRecord rec = TrialRecord::of(generate_trial(chaos, job.id), {});
    rec.status = TrialRecord::Status::Quarantined;
    rec.attempts = job.attempts;
    rec.classification = job.outcome.classify();
    return exec::JobSet::Quarantine{artifact_text(rec, job, ""),
                                    rec.serialize()};
  };
  // Shrink quarantined trials in isolated workers: the supervisor must
  // never run a candidate that might segfault or spin. Resumed records
  // were shrunk (or not) by the run that produced them.
  if (chaos.shrink && cfg.quarantine_shrink_budget > 0) {
    jobs.final_artifact = [&](const exec::JobResult& job,
                              const exec::Isolate& isolate) {
      if (job.outcome.kind == exec::OutcomeKind::Timeout) return std::string();
      const TrialRunner worker_runner = [&](const TrialSpec& cand) {
        const exec::Outcome out = isolate([cand](unsigned) {
          return TrialRecord::of(cand, run_trial(cand)).serialize();
        });
        TrialOutcome t;
        if (!out.ok()) {
          t.failed = true;
          t.error = "worker " + out.classify();
          return t;
        }
        const auto rec = TrialRecord::deserialize(out.payload);
        if (!rec) {
          throw exec::InfraError(jobs.name(job.id) +
                                 ": worker returned a malformed record");
        }
        t.failed = rec->status == TrialRecord::Status::Violation;
        t.total_violations = rec->violations;
        t.error = rec->error;
        return t;
      };
      const ShrinkResult shrunk = shrink_trial(
          generate_trial(chaos, job.id), cfg.quarantine_shrink_budget,
          worker_runner);
      std::ostringstream extra;
      extra << "shrunk repro (" << shrunk.runs << " candidate runs, "
            << shrunk.minimal.plan.rules.size() << " fault clause"
            << (shrunk.minimal.plan.rules.size() == 1 ? "" : "s") << "):\n  "
            << shrunk.minimal.repro_command() << '\n';
      return artifact_text(records.at(job.id), job, extra.str());
    };
  }

  ExecCampaignResult res;
  static_cast<exec::RunResult&>(res) = exec::run_job_set(cfg.run, jobs);
  for (auto& [id, rec] : records) {
    switch (rec.status) {
      case TrialRecord::Status::Ok: ++res.ok; break;
      case TrialRecord::Status::Violation: ++res.violation; break;
      case TrialRecord::Status::Quarantined: ++res.quarantined; break;
    }
    res.add(rec);
    res.records.push_back(std::move(rec));
  }

  // One minimal reproducer for the first invariant violation, as the
  // in-process campaign produces: safe to run in-process because the
  // trial completed inside a healthy worker.
  if (chaos.shrink && cfg.run.stop_after == 0) {
    for (const auto& rec : res.records) {
      if (rec.status == TrialRecord::Status::Violation) {
        res.minimized =
            shrink_trial(generate_trial(chaos, rec.index), chaos.shrink_budget);
        break;
      }
    }
  }
  return res;
}

}  // namespace pcieb::check
