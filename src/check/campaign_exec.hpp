// Crash-safe chaos-campaign execution: every trial of a PR 3 chaos
// campaign runs in a process-isolated worker (src/exec) with a wall-clock
// deadline and an RSS budget, so one crashed, hung or OOM'd trial no
// longer kills the campaign — it is retried with capped exponential
// backoff and, if it keeps failing, quarantined with a structured failure
// artifact while the rest of the campaign completes.
//
// Completed trials append canonical records to an exec::Journal; a
// campaign resumed from that journal (`pciebench chaos --resume DIR`)
// skips finished trials and produces a summary and CSV byte-identical to
// an uninterrupted run, because trial i is a pure function of
// (master_seed, i) and every summary field is derived from the sorted
// records, never from wall-clock or completion order.
//
// Unlike in-process check::run_campaign (which stops at the first failure
// to hand one minimal reproducer to the shrinker), the isolated campaign
// runs every trial to a verdict: Ok, Violation (invariant monitors or the
// run itself failed inside a healthy worker) or Quarantined (the worker
// kept dying). See docs/EXEC.md.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/chaos.hpp"
#include "exec/pool.hpp"

namespace pcieb::check {

struct ExecCampaignConfig {
  ChaosConfig chaos;        ///< what to run (seed, trials, iters, shrink)
  exec::PoolConfig pool;    ///< jobs, limits, retries; scratch_dir may be
                            ///< empty (defaults under the journal)
  /// Journal directory; empty = a fresh temp directory (no resume).
  std::string journal_dir;
  bool resume = false;      ///< skip trials already recorded in the journal
  /// Quarantine artifacts directory; empty = "<journal>/artifacts".
  std::string artifacts_dir;
  /// Worker-isolated shrink budget for quarantined trials (0 = off;
  /// honored only when chaos.shrink). Timeout-class quarantines are not
  /// shrunk: every candidate re-run would cost a full deadline.
  std::size_t quarantine_shrink_budget = 32;
  /// TEST-ONLY: commit at most this many new records then return early,
  /// simulating a campaign killed mid-run (0 = run everything).
  std::size_t stop_after = 0;
};

/// The tally covers every record, journaled or run: Ok, Violation and
/// Quarantined alike.
struct ExecCampaignResult : CampaignTally {
  std::vector<TrialRecord> records;  ///< sorted by trial index
  std::size_t ok = 0;
  std::size_t violation = 0;
  std::size_t quarantined = 0;
  std::size_t resumed = 0;           ///< subset of records from the journal
  std::string journal_dir;
  std::string artifacts_dir;
  /// In-process shrink of the lowest-index Violation trial (when
  /// chaos.shrink and one exists).
  std::optional<ShrinkResult> minimized;

  bool all_ok() const { return violation == 0 && quarantined == 0; }

  /// Canonical, byte-stable summary (independent of --jobs, resume and
  /// completion order). Quarantined-trial aggregation is empty-safe.
  std::string summary_text(const ChaosConfig& cfg) const;
  /// Canonical per-trial CSV (quoted cells) — what the CI interrupted-
  /// resume leg diffs against an uninterrupted reference run.
  void write_csv(const std::string& path) const;
};

/// Progress hook: fires in completion order (nondeterministic when
/// pool.jobs > 1); `resumed` records fire first, in index order.
using ExecTrialObserver = std::function<void(const TrialRecord&)>;

/// Run (or resume) the campaign to completion. Throws exec::InfraError
/// for supervisor-side failures (journal I/O, fork, mismatched resume, a
/// worker record that does not parse).
ExecCampaignResult run_campaign_isolated(const ExecCampaignConfig& cfg,
                                         const ExecTrialObserver& observe = {});

}  // namespace pcieb::check
