// The §5.4 control-program layer: named experiments, full-suite runs and
// structured reporting.
//
// The paper's NFP control program runs ~2500 individual tests over ~4
// hours and post-processes percentiles, CDFs, histograms and time series.
// Here a Suite is a declarative list of (system, parameters) experiments;
// run() executes them on fresh simulated systems and returns structured
// records that the reporting helpers turn into text or CSV.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/runner.hpp"
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

  /// The standard sweep the paper's control program covers: LAT_RD,
  /// LAT_WRRD, BW_RD, BW_WR, BW_RDWR over transfer sizes and cache states
  /// for one system.
  static Suite standard(const std::string& system_name);

 private:
  std::vector<Experiment> experiments_;
};

/// Run one experiment on a fresh system: the body of Suite::run, and what
/// a MultiRunner worker or thread executes.
ExperimentRecord run_experiment(const Experiment& experiment);

/// Canonical serialization of a completed record ("pcieb-exp v1" +
/// key=value lines, doubles at full precision) — the payload a
/// process-isolated suite worker returns and the resume journal stores
/// (docs/EXEC.md). Round-trips everything summarize()/write_csv() read;
/// the raw latency SampleSet is not carried across the process boundary.
std::string serialize_record(const ExperimentRecord& record);

/// Inverse of serialize_record. `expected` supplies the experiment
/// definition; nullopt when the payload is malformed or names a
/// different experiment (the caller then re-runs it).
std::optional<ExperimentRecord> deserialize_record(
    const std::string& payload, const Experiment& expected);

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
