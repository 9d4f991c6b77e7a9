// The §5.4 control-program layer: named experiments, full-suite runs and
// structured reporting.
//
// The paper's NFP control program runs ~2500 individual tests over ~4
// hours and post-processes percentiles, CDFs, histograms and time series.
// Here a Suite is a declarative list of (system, parameters) experiments;
// run() executes them on fresh simulated systems and returns structured
// records that the reporting helpers turn into text or CSV, and
// run_journaled() runs the same experiments as exec jobs: in forked
// workers or on pool threads, journaled and resumable (docs/EXEC.md).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/runner.hpp"
#include "exec/job_set.hpp"
#include "obs/digest.hpp"
#include "sim/system.hpp"

namespace pcieb::core {

struct Experiment {
  std::string name;         ///< unique label, e.g. "lat_rd/64/warm"
  std::string system_name;  ///< Table 1 profile name
  BenchParams params;
};

struct ExperimentRecord {
  Experiment experiment;
  /// Exactly one of these is set, by params.kind.
  std::optional<LatencyResult> latency;
  std::optional<BandwidthResult> bandwidth;
  double wall_seconds = 0.0;  ///< host time spent simulating
  /// Serialized obs::Digest over the latency samples (empty for bandwidth
  /// experiments). Unlike the raw SampleSet, this DOES cross the process
  /// boundary — workers and the resume journal carry it, so percentiles
  /// beyond the fixed summary stay computable after a fork or resume,
  /// and merging records merges their sample populations exactly.
  std::string latency_digest;
};

/// What Suite::run_journaled returns: the exec run (journal, artifacts,
/// resumed count) and the completed records, in suite order.
struct JournaledSuiteRun : exec::RunResult {
  std::vector<ExperimentRecord> records;
};

class Suite {
 public:
  /// Add one experiment; names must be unique (throws otherwise).
  void add(Experiment experiment);

  /// Convenience builders.
  void add_latency(const std::string& name, const std::string& system,
                   BenchKind kind, std::uint32_t size,
                   std::function<void(BenchParams&)> tweak = {});
  void add_bandwidth(const std::string& name, const std::string& system,
                     BenchKind kind, std::uint32_t size,
                     std::function<void(BenchParams&)> tweak = {});

  std::size_t size() const { return experiments_.size(); }
  const std::vector<Experiment>& experiments() const { return experiments_; }

  /// Run every experiment whose name contains `filter` (all if empty).
  /// `progress` (optional) is invoked after each experiment completes.
  std::vector<ExperimentRecord> run(
      const std::string& filter = "",
      std::function<void(const ExperimentRecord&)> progress = {}) const;

  /// The same experiments as exec jobs (exec::run_job_set): job i is
  /// experiment i of the whole suite, its record a "pcieb-exp v1" text
  /// that names it, and suite.meta pins the systems. A quarantined
  /// experiment leaves an artifact but no record, so a resume runs it
  /// again; `on_quarantine` fires for each. `progress` fires per record,
  /// resumed ones first.
  JournaledSuiteRun run_journaled(
      const std::string& filter, const exec::RunConfig& cfg,
      const std::function<void(const ExperimentRecord&)>& progress = {},
      const std::function<void(const exec::JobResult&)>& on_quarantine = {})
      const;

  /// The standard sweep the paper's control program covers: LAT_RD,
  /// LAT_WRRD, BW_RD, BW_WR, BW_RDWR over transfer sizes and cache states
  /// for one system.
  static Suite standard(const std::string& system_name);

 private:
  std::vector<Experiment> experiments_;
};

/// One-line summary per record, aligned.
std::string summarize(const std::vector<ExperimentRecord>& records);

/// Digest-backed percentile table over the latency experiments (printed
/// under --telemetry): per-record p50/p99/p999 decoded from
/// ExperimentRecord::latency_digest, plus an "ALL (merged)" row merging
/// every digest — the campaign-level percentile the fixed summary cannot
/// provide. Byte-stable across serial, forked and resumed runs.
std::string digest_summary(const std::vector<ExperimentRecord>& records);

/// CSV with one row per record (kind-dependent columns filled or empty).
void write_csv(const std::vector<ExperimentRecord>& records,
               const std::string& path);

}  // namespace pcieb::core
