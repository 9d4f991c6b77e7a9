#include "core/suite.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "exec/journal.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb::core {
namespace {

constexpr const char* kRecordHeader = "pcieb-exp v1";

/// Full-precision double so serialize/deserialize round-trips exactly —
/// the resume bit-identity guarantee rides on this.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double record_num(const exec::Record& rec, const std::string& key) {
  return std::strtod(exec::record_str(rec, key).c_str(), nullptr);
}

}  // namespace

void Suite::add(Experiment experiment) {
  for (const auto& e : experiments_) {
    if (e.name == experiment.name) {
      throw std::invalid_argument("Suite: duplicate experiment name " +
                                  experiment.name);
    }
  }
  experiment.params.validate();
  sys::profile_by_name(experiment.system_name);  // throws if unknown
  experiments_.push_back(std::move(experiment));
}

void Suite::add_latency(const std::string& name, const std::string& system,
                        BenchKind kind, std::uint32_t size,
                        std::function<void(BenchParams&)> tweak) {
  if (!is_latency(kind)) {
    throw std::invalid_argument("add_latency: bandwidth kind");
  }
  Experiment e;
  e.name = name;
  e.system_name = system;
  e.params.kind = kind;
  e.params.transfer_size = size;
  if (tweak) tweak(e.params);
  add(std::move(e));
}

void Suite::add_bandwidth(const std::string& name, const std::string& system,
                          BenchKind kind, std::uint32_t size,
                          std::function<void(BenchParams&)> tweak) {
  if (is_latency(kind)) {
    throw std::invalid_argument("add_bandwidth: latency kind");
  }
  Experiment e;
  e.name = name;
  e.system_name = system;
  e.params.kind = kind;
  e.params.transfer_size = size;
  if (tweak) tweak(e.params);
  add(std::move(e));
}

namespace {

/// Run one experiment on a fresh system: the body of Suite::run and of
/// every run_journaled job.
ExperimentRecord run_experiment(const Experiment& e) {
  const auto& profile = sys::profile_by_name(e.system_name);
  const auto t0 = std::chrono::steady_clock::now();
  sim::System system(profile.config);
  ExperimentRecord record;
  record.experiment = e;
  if (is_latency(e.params.kind)) {
    record.latency = run_latency_bench(system, e.params);
    obs::Digest digest;
    for (const double ns : record.latency->samples_ns.raw()) {
      digest.add_ns(ns);
    }
    record.latency_digest = digest.serialize();
  } else {
    record.bandwidth = run_bandwidth_bench(system, e.params);
  }
  record.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return record;
}

}  // namespace

std::vector<ExperimentRecord> Suite::run(
    const std::string& filter,
    std::function<void(const ExperimentRecord&)> progress) const {
  std::vector<ExperimentRecord> records;
  for (const auto& e : experiments_) {
    if (!filter.empty() && e.name.find(filter) == std::string::npos) continue;
    ExperimentRecord record = run_experiment(e);
    if (progress) progress(record);
    records.push_back(std::move(record));
  }
  return records;
}

Suite Suite::standard(const std::string& system_name) {
  Suite suite;
  const std::vector<std::uint32_t> sizes = {8,   16,  32,  64,   128,
                                            256, 512, 1024, 2048};
  const std::vector<std::pair<CacheState, const char*>> states = {
      {CacheState::Thrash, "cold"}, {CacheState::HostWarm, "warm"}};
  for (const auto& [state, label] : states) {
    for (std::uint32_t sz : sizes) {
      for (auto kind : {BenchKind::LatRd, BenchKind::LatWrRd}) {
        std::ostringstream name;
        name << to_string(kind) << '/' << sz << '/' << label;
        suite.add_latency(name.str(), system_name, kind, sz,
                          [&](BenchParams& p) {
                            p.cache_state = state;
                            p.iterations = 5000;
                          });
      }
      for (auto kind : {BenchKind::BwRd, BenchKind::BwWr, BenchKind::BwRdWr}) {
        std::ostringstream name;
        name << to_string(kind) << '/' << sz << '/' << label;
        suite.add_bandwidth(name.str(), system_name, kind, sz,
                            [&](BenchParams& p) {
                              p.cache_state = state;
                              p.iterations = 15000;
                            });
      }
    }
  }
  return suite;
}

namespace {

/// A suite job's record: "pcieb-exp v1" + key=value lines, doubles at
/// full precision. It round-trips everything summarize() and write_csv()
/// read; the raw latency SampleSet stays behind.
std::string serialize_record(const ExperimentRecord& record) {
  std::ostringstream os;
  os << kRecordHeader << '\n'
     << "name=" << exec::escape_line(record.experiment.name) << '\n'
     << "wall=" << num(record.wall_seconds) << '\n';
  if (record.latency) {
    const auto& s = record.latency->summary;
    os << "kind=lat\n"
       << "count=" << s.count << '\n'
       << "mean=" << num(s.mean_ns) << '\n'
       << "median=" << num(s.median_ns) << '\n'
       << "min=" << num(s.min_ns) << '\n'
       << "max=" << num(s.max_ns) << '\n'
       << "p95=" << num(s.p95_ns) << '\n'
       << "p99=" << num(s.p99_ns) << '\n'
       << "p999=" << num(s.p999_ns) << '\n';
    if (!record.latency_digest.empty()) {
      os << "digest=" << exec::escape_line(record.latency_digest) << '\n';
    }
  }
  if (record.bandwidth) {
    const auto& b = *record.bandwidth;
    os << "kind=bw\n"
       << "payload_bytes=" << b.payload_bytes << '\n'
       << "elapsed=" << b.elapsed << '\n'
       << "gbps=" << num(b.gbps) << '\n'
       << "mtps=" << num(b.mtps) << '\n'
       << "lost=" << b.lost_payload_bytes << '\n'
       << "wire_bytes=" << b.wire_bytes << '\n'
       << "goodput=" << num(b.goodput_gbps) << '\n'
       << "wire_gbps=" << num(b.wire_gbps) << '\n';
  }
  return os.str();
}

/// Inverse of serialize_record; nullopt when the payload is malformed or
/// names another experiment than `expected`.
std::optional<ExperimentRecord> deserialize_record(const std::string& payload,
                                                   const Experiment& expected) {
  const exec::Record kv = exec::parse_record(payload);
  if (kv.header != kRecordHeader) return std::nullopt;
  if (exec::record_str(kv, "name") != expected.name) return std::nullopt;

  ExperimentRecord rec;
  rec.experiment = expected;
  rec.wall_seconds = record_num(kv, "wall");
  const std::string kind = exec::record_str(kv, "kind");
  if (kind == "lat") {
    LatencyResult lat;
    lat.params = expected.params;
    lat.summary.count = exec::record_u64(kv, "count");
    lat.summary.mean_ns = record_num(kv, "mean");
    lat.summary.median_ns = record_num(kv, "median");
    lat.summary.min_ns = record_num(kv, "min");
    lat.summary.max_ns = record_num(kv, "max");
    lat.summary.p95_ns = record_num(kv, "p95");
    lat.summary.p99_ns = record_num(kv, "p99");
    lat.summary.p999_ns = record_num(kv, "p999");
    rec.latency = std::move(lat);
    // Absent in pre-digest journals; those records simply have no digest.
    rec.latency_digest = exec::record_str(kv, "digest");
  } else if (kind == "bw") {
    BandwidthResult bw;
    bw.params = expected.params;
    bw.payload_bytes = exec::record_u64(kv, "payload_bytes");
    bw.elapsed = static_cast<Picos>(exec::record_u64(kv, "elapsed"));
    bw.gbps = record_num(kv, "gbps");
    bw.mtps = record_num(kv, "mtps");
    bw.lost_payload_bytes = exec::record_u64(kv, "lost");
    bw.wire_bytes = exec::record_u64(kv, "wire_bytes");
    bw.goodput_gbps = record_num(kv, "goodput");
    bw.wire_gbps = record_num(kv, "wire_gbps");
    rec.bandwidth = std::move(bw);
  } else {
    return std::nullopt;
  }
  return rec;
}

}  // namespace

JournaledSuiteRun Suite::run_journaled(
    const std::string& filter, const exec::RunConfig& cfg,
    const std::function<void(const ExperimentRecord&)>& progress,
    const std::function<void(const exec::JobResult&)>& on_quarantine) const {
  exec::JobSet jobs;
  jobs.kind = "suite";
  // What a record's experiment name does not carry: the systems.
  std::set<std::string> systems;
  for (const auto& e : experiments_) systems.insert(e.system_name);
  jobs.meta = "pcieb-suite v1\n";
  for (const auto& system : systems) jobs.meta += "system=" + system + '\n';
  for (std::size_t i = 0; i < experiments_.size(); ++i) {
    if (experiments_[i].name.find(filter) != std::string::npos) {
      jobs.ids.push_back(i);
    }
  }
  jobs.name = [this](std::uint64_t id) { return experiments_[id].name; };
  jobs.run = [this](std::uint64_t id, unsigned /*attempt*/) {
    return serialize_record(run_experiment(experiments_[id]));
  };
  std::map<std::uint64_t, ExperimentRecord> done;
  jobs.accept = [&](std::uint64_t id, const std::string& record, bool) {
    auto rec = deserialize_record(record, experiments_[id]);
    if (!rec) return false;
    if (progress) progress(*rec);
    done.emplace(id, std::move(*rec));
    return true;
  };
  // An artifact but no record: an experiment that produced no result gets
  // another chance on resume.
  jobs.quarantine = [&](const exec::JobResult& job) {
    if (on_quarantine) on_quarantine(job);
    const Experiment& e = experiments_[job.id];
    return exec::JobSet::Quarantine{
        "# pciebench quarantined-experiment artifact\nexperiment: " + e.name +
            "\nsystem: " + e.system_name + "\nstatus: quarantined\n" +
            exec::failure_report(job) + "repro:\n  " +
            cli_run_command(e.system_name, e.params, /*iommu=*/false,
                            /*faults_spec=*/"", /*fault_seed=*/0,
                            /*monitors=*/false) +
            '\n',
        std::nullopt};
  };
  JournaledSuiteRun run{exec::run_job_set(cfg, jobs), {}};
  for (auto& [id, rec] : done) run.records.push_back(std::move(rec));
  return run;
}

std::string summarize(const std::vector<ExperimentRecord>& records) {
  TextTable table({"experiment", "system", "median_ns", "p99_ns", "Gbps",
                   "MT/s"});
  for (const auto& r : records) {
    std::string med = "-", p99 = "-", gbps = "-", mtps = "-";
    if (r.latency) {
      med = TextTable::num(r.latency->summary.median_ns, 0);
      p99 = TextTable::num(r.latency->summary.p99_ns, 0);
    }
    if (r.bandwidth) {
      gbps = TextTable::num(r.bandwidth->gbps, 2);
      mtps = TextTable::num(r.bandwidth->mtps, 2);
    }
    table.add_row({r.experiment.name, r.experiment.system_name, med, p99,
                   gbps, mtps});
  }
  return table.to_string();
}

void write_csv(const std::vector<ExperimentRecord>& records,
               const std::string& path) {
  CsvWriter csv(path);
  csv.header({"experiment", "system", "kind", "size", "window", "cache",
              "median_ns", "p95_ns", "p99_ns", "gbps", "mtps"});
  for (const auto& r : records) {
    const auto& p = r.experiment.params;
    std::string med, p95, p99, gbps, mtps;
    if (r.latency) {
      med = TextTable::num(r.latency->summary.median_ns, 1);
      p95 = TextTable::num(r.latency->summary.p95_ns, 1);
      p99 = TextTable::num(r.latency->summary.p99_ns, 1);
    }
    if (r.bandwidth) {
      gbps = TextTable::num(r.bandwidth->gbps, 3);
      mtps = TextTable::num(r.bandwidth->mtps, 3);
    }
    csv.row(r.experiment.name, r.experiment.system_name, to_string(p.kind),
            p.transfer_size, p.window_bytes, to_string(p.cache_state), med,
            p95, p99, gbps, mtps);
  }
}

std::string digest_summary(const std::vector<ExperimentRecord>& records) {
  TextTable table({"experiment", "count", "p50_ns", "p99_ns", "p999_ns",
                   "max_ns"});
  obs::Digest merged;
  std::size_t decoded = 0;
  for (const auto& r : records) {
    if (r.latency_digest.empty()) continue;
    obs::Digest d;
    if (!obs::Digest::deserialize(r.latency_digest, &d)) continue;
    ++decoded;
    table.add_row({r.experiment.name, std::to_string(d.count()),
                   TextTable::num(d.quantile_ns(0.50), 1),
                   TextTable::num(d.quantile_ns(0.99), 1),
                   TextTable::num(d.quantile_ns(0.999), 1),
                   TextTable::num(d.max() / 1000.0, 1)});
    merged.merge(d);
  }
  if (decoded == 0) return "no latency digests recorded\n";
  table.add_row({"ALL (merged)", std::to_string(merged.count()),
                 TextTable::num(merged.quantile_ns(0.50), 1),
                 TextTable::num(merged.quantile_ns(0.99), 1),
                 TextTable::num(merged.quantile_ns(0.999), 1),
                 TextTable::num(merged.max() / 1000.0, 1)});
  return table.to_string();
}

}  // namespace pcieb::core
