// Crash-safe chaos campaigns: the trials are the jobs of
// exec::run_job_set, so a crashed, hung or OOM'd trial is retried, then
// quarantined with an artifact while the rest of the campaign completes,
// and a campaign resumed from its journal prints a summary and CSV
// byte-identical to an uninterrupted run (trial i is pure in
// (master_seed, i), and every summary field derives from the records in
// index order). Unlike check::run_campaign, which stops at the first
// failure to shrink it, every trial runs to a verdict: Ok, Violation (the
// monitors or the run failed inside a healthy worker) or Quarantined (the
// worker kept dying). See docs/EXEC.md.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/chaos.hpp"
#include "exec/job_set.hpp"

namespace pcieb::check {

struct ExecCampaignConfig {
  /// What to run: seed, trials, iters, shrink (chaos.threads belongs to
  /// the in-process run_campaign; run.threads picks pool threads here).
  ChaosConfig chaos;
  /// How: forked workers or pool threads, journal, resume, artifacts.
  exec::RunConfig run;
  /// Worker-isolated shrink budget for quarantined trials (0 = off;
  /// honored only when chaos.shrink). Timeout-class quarantines are not
  /// shrunk: every candidate re-run would cost a full deadline.
  std::size_t quarantine_shrink_budget = 32;
};

/// The tally covers every record, journaled or run: Ok, Violation and
/// Quarantined alike.
struct ExecCampaignResult : CampaignTally, exec::RunResult {
  std::vector<TrialRecord> records;  ///< sorted by trial index
  std::size_t ok = 0;
  std::size_t violation = 0;
  std::size_t quarantined = 0;
  /// In-process shrink of the lowest-index Violation trial (when
  /// chaos.shrink and one exists).
  std::optional<ShrinkResult> minimized;

  /// Canonical, byte-stable summary (independent of --jobs, resume and
  /// completion order). Quarantined-trial aggregation is empty-safe.
  std::string summary_text(const ChaosConfig& cfg) const;
  /// Canonical per-trial CSV (quoted cells) — what the CI interrupted-
  /// resume leg diffs against an uninterrupted reference run.
  void write_csv(const std::string& path) const;
};

/// Progress hook: fires in completion order (nondeterministic with more
/// than one worker or thread); `resumed` records fire first, in index
/// order.
using ExecTrialObserver = std::function<void(const TrialRecord&)>;

/// Run (or resume) the campaign to completion. Job i is trial i, its
/// record TrialRecord::serialize()'s text, and campaign.meta pins what
/// shapes a record; a quarantined trial is journaled with its verdict, so
/// a resume does not run it again. Throws exec::InfraError for
/// supervisor-side failures (journal I/O, fork, mismatched resume, a
/// worker record that does not parse or names another trial).
ExecCampaignResult run_campaign_isolated(const ExecCampaignConfig& cfg,
                                         const ExecTrialObserver& observe = {});

}  // namespace pcieb::check
