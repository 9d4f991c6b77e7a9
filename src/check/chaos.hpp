// Chaos campaigns: randomized fault plans x workloads x system configs,
// run with the invariant monitors armed, with seed minimization.
//
// A campaign derives every trial deterministically from one master seed:
// trial i is a pure function of (master_seed, i), so any failure is
// replayable in isolation without re-running the campaign. Each trial
// builds a Table 1 system, arms a randomized FaultPlan (sometimes empty —
// fault-free trials double as monitor sanity checks), runs one
// micro-benchmark with a MonitorSuite attached in record mode, and fails
// when any invariant is violated or the run aborts (watchdog stall,
// quiescent deadlock, logic error).
//
// On failure the shrinker reduces the trial to a minimal reproducer by
// re-running candidates: greedily dropping fault-plan clauses, clearing
// per-rule predicates (time window, address range, direction, burst
// count) back to their defaults, and halving the trial length — keeping
// each change only while the trial still fails. The result prints as a
// one-line `pciebench run ... --faults '...' --monitors` command that
// replays the violation exactly. See docs/CHECKING.md.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/monitors.hpp"
#include "core/params.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "nic/overload.hpp"
#include "obs/digest.hpp"

namespace pcieb::check {

/// One fully-specified chaos trial: system + workload + fault plan.
struct TrialSpec {
  std::uint64_t index = 0;      ///< position in the campaign
  std::string system;           ///< Table 1 profile name
  bool iommu = false;           ///< arm the IOMMU (pages per params)
  core::BenchParams params;
  fault::FaultPlan plan;        ///< empty = fault-free trial
  /// Error-recovery escalation ladder; disabled keeps trials identical to
  /// previous releases. Campaign-level (every trial shares the policy).
  fault::RecoveryPolicy recovery;

  /// TEST-ONLY: arm sim::System::test_leak_credits_on_drop so the credit
  /// monitor has a known bug to catch (monitor self-tests, --seed-bug).
  /// generate_trial sets it in classic trials only.
  bool seed_credit_leak_bug = false;

  /// Tenant-chaos mode (tenants > 0): N SR-IOV VFs share the port, VF
  /// `attacker` owns the fault plan (every clause vf-scoped to it) and
  /// the rest are victims. The trial runs TWICE — attacker plan armed,
  /// then stripped — and byte-compares each victim's latency digest and
  /// counter line between the runs. 0 = classic single-tenant trial.
  unsigned tenants = 0;
  unsigned attacker = 0;
  /// Weakened isolation (shared wire/IO-TLB/uncore, device-scoped
  /// recovery): victim perturbation is then the measured blast radius,
  /// not a failure. Armed (default) makes any perturbation a violation.
  bool isolation_weakened = false;
  /// TEST-ONLY: arm sim::System::test_misroute_completions so
  /// the isolation monitors have a known cross-VF bleed to catch.
  bool seed_misroute_bug = false;

  /// Overload-chaos mode (overload_armed): instead of a micro-benchmark,
  /// the trial calibrates the datapath's capacity on `overload`'s own
  /// frames, as its repro does, then drives the open-loop overload datapath
  /// (nic::run_overload) at the campaign's multiple of it, composing the
  /// randomized fault plan with sustained past-capacity load, with BOTH
  /// the PCIe-level MonitorSuite and the OverloadMonitorSuite attached.
  /// Per-trial datapath variety (frame size, arrival process, ring size,
  /// admission threshold) is drawn from the trial stream; the load
  /// multiple / service model / backpressure come from the campaign
  /// config.
  bool overload_armed = false;
  nic::OverloadConfig overload;

  /// One line: system, workload knobs and the fault plan.
  std::string describe() const;
  /// The exact `pciebench run ... --monitors` invocation replaying this
  /// trial (the seeded-bug flag has no CLI equivalent and is omitted).
  std::string repro_command() const;
};

struct TrialOutcome {
  bool failed = false;
  std::uint64_t total_violations = 0;
  std::vector<Violation> violations;  ///< recorded subset, in order
  std::string error;                  ///< abort reason, if the run threw
  /// Simulator events executed and TLPs sent (both link directions) by
  /// the trial — the perf harness's raw material; zero-cost to record.
  std::uint64_t events = 0;
  std::uint64_t tlps = 0;
  /// Per-DMA latency digests ("dma_read"/"dma_write"); only populated
  /// when the campaign runs with telemetry enabled.
  obs::DigestSet digests;
  /// Recovery-ladder outcome (empty/"" when no policy was armed): the
  /// canonical transition digest and the final state. Journal-carried so
  /// resumed/forked campaigns summarize byte-identically.
  std::string recovery_digest;
  std::string recovery_state;
  /// Tenant-chaos differential identity (zero for classic trials):
  /// victims whose digest or counters differed between the armed and the
  /// stripped run, and device-wide recovery actions one VF's ladder
  /// performed. Armed isolation turns any perturbation into a violation;
  /// weakened isolation reports them as the measured blast radius.
  std::uint64_t perturbed_victims = 0;
  std::uint64_t device_wide_actions = 0;
  /// Overload-trial frame ledger (nic::OverloadResult::ledger(); "" for
  /// classic trials). Canonical integer-only string, journal-carried so
  /// resumed/forked campaigns summarize byte-identically.
  std::string overload;

  std::string summary() const;  ///< one line: pass, or why it failed
};

/// Parse a TrialOutcome::overload ledger back into its aggregate frame
/// counts (dropped = mac + ring + admission). Returns false when the
/// ledger is empty or malformed.
bool parse_overload_ledger(const std::string& ledger, std::uint64_t& offered,
                           std::uint64_t& delivered, std::uint64_t& dropped);

/// One trial's verdict, as every campaign mode records it: a forked
/// worker sends it back, the journal stores it, a resumed campaign reads
/// it, and CampaignTally::add folds it in every mode.
struct TrialRecord {
  enum class Status : std::uint8_t { Ok, Violation, Quarantined };

  std::uint64_t index = 0;
  Status status = Status::Ok;
  /// exec classification of the final attempt: "ok", "signal(SIGSEGV)"...
  std::string classification = "ok";
  unsigned attempts = 1;
  std::uint64_t violations = 0;
  std::string first_violation;  ///< formatted first monitor violation
  std::string error;            ///< abort reason from inside the run
  std::string spec;             ///< TrialSpec::describe()
  std::string repro;            ///< TrialSpec::repro_command()
  /// Serialized obs::DigestSet of the trial's per-DMA latencies; empty
  /// unless the campaign ran with telemetry. Carried through the journal
  /// so resumed campaigns merge identical campaign digests.
  std::string digests;
  /// Recovery-ladder outcome (empty unless recovery armed): the canonical
  /// transition digest and final state, journal-carried so resumed/forked
  /// campaigns summarize byte-identically.
  std::string recovery;
  std::string recovery_state;
  /// Tenant-chaos blast radius (zero for classic trials): victims
  /// perturbed by the attacker and device-wide recovery actions.
  /// Journal-carried only when nonzero so classic records are unchanged.
  std::uint64_t perturbed = 0;
  std::uint64_t device_wide = 0;
  /// Overload-trial frame ledger (empty for classic trials). Journal-
  /// carried only when nonempty so classic records are unchanged.
  std::string overload;
  bool resumed = false;         ///< loaded from the journal, not re-run

  /// The record of a trial that ran to a verdict: Ok or Violation, one
  /// attempt, classification "ok".
  static TrialRecord of(const TrialSpec& spec, const TrialOutcome& out);

  /// Canonical journal payload ("pcieb-trial v1" + key=value lines).
  std::string serialize() const;
  /// Inverse; nullopt on malformed/foreign payloads. Sets `resumed`.
  static std::optional<TrialRecord> deserialize(const std::string& payload);

  /// One canonical line for the summary ("  12 ok ..."). Excludes
  /// attempts/timing so resumed output matches uninterrupted output.
  std::string summary_line() const;
};

const char* to_string(TrialRecord::Status s);

/// Campaign-level tallies over the trials a campaign observed, folded
/// from their records in index order. Serial, threaded, forked and
/// resumed campaigns all fold through add(), so equal records give equal
/// tallies.
struct CampaignTally {
  /// The trials' latency digests merged (empty unless telemetry). Digest
  /// merge is commutative count addition, so every mode serializes the
  /// same bytes.
  obs::DigestSet digests;
  /// Recovery-ladder tallies (zero when no policy was armed): trials
  /// where the ladder fired at all, and trials that ended permanently
  /// quarantined.
  std::size_t trials_recovered = 0;
  std::size_t trials_quarantined = 0;
  /// Tenant-chaos blast radius (zero for classic campaigns): perturbed
  /// victim-runs and device-wide recovery actions, summed.
  std::uint64_t perturbed_victims = 0;
  std::uint64_t device_wide_actions = 0;
  /// Overload-chaos frame tallies (zero for classic campaigns), summed
  /// from each trial's ledger.
  std::uint64_t overload_offered = 0;
  std::uint64_t overload_delivered = 0;
  std::uint64_t overload_dropped = 0;

  /// Fold one trial in. Malformed digests or ledgers (a hand-edited
  /// journal) are skipped, not fatal: no verdict depends on them.
  void add(const TrialRecord& rec);
};

struct ChaosConfig {
  std::uint64_t master_seed = 0xc4a05;
  std::size_t trials = 20;
  /// Measured transactions per trial; small keeps a campaign in seconds.
  std::size_t iterations = 400;
  bool shrink = true;
  std::size_t shrink_budget = 128;  ///< max re-runs spent minimizing
  bool seed_credit_leak_bug = false;  ///< TEST-ONLY, classic trials only
  /// Intra-process parallelism: > 1 runs trials on a work-stealing thread
  /// pool (each trial is pure in (master_seed, index) and builds its own
  /// Simulator, so trials never share state). Outcomes are buffered and
  /// replayed in index order, so the observer sequence, the summary and
  /// the CampaignResult are byte-identical to a serial run — including
  /// the stop-at-first-failure semantics: with a lowest failing index f,
  /// the observer sees exactly trials 0..f and trials_run == f + 1, even
  /// though later trials may have executed. Shrinking stays serial.
  std::size_t threads = 1;
  /// Record per-DMA latency digests for every trial (attaches a trace
  /// sink per trial — measurable overhead, so strictly opt-in).
  bool telemetry = false;
  /// Arm the error-recovery ladder in every trial (disabled by default).
  fault::RecoveryPolicy recovery;
  /// Run the monitors in throw mode: the first invariant breach aborts
  /// the trial (the exception becomes outcome.error) instead of being
  /// recorded and re-run by the shrinker. CI's chaos-recovery leg uses
  /// this; shrinking wants record mode.
  bool monitors_throw = false;
  /// Tenant-chaos mode: number of SR-IOV VFs per trial (0 = classic),
  /// which VF carries the fault plan, and whether isolation runs
  /// weakened (blast-radius measurement) or armed (identity enforcement).
  unsigned tenants = 0;
  unsigned attacker = 0;
  bool isolation_weakened = false;
  bool seed_misroute_bug = false;  ///< TEST-ONLY, tenant trials only
  /// Overload-chaos mode: offered load as a multiple of each trial's
  /// calibrated capacity (0 = classic campaign). Mutually exclusive with
  /// tenant mode. Service model and backpressure apply to every trial.
  double offered_load = 0.0;
  nic::ServiceMode service = nic::ServiceMode::BusyPoll;
  bool backpressure = false;
};

/// Trial `index` of the campaign — pure in (cfg.master_seed, index).
TrialSpec generate_trial(const ChaosConfig& cfg, std::uint64_t index);

/// Build the system, arm monitors (record mode unless `throw_monitors`),
/// run the workload, check quiesce. Never throws on a finding; exceptions
/// from the run (watchdog, logic errors, thrown invariants) become
/// `outcome.error`. With `telemetry`, a per-trial DmaLatencyRecorder
/// fills outcome.digests.
TrialOutcome run_trial(const TrialSpec& spec, bool telemetry = false,
                       bool throw_monitors = false);

struct ShrinkResult {
  TrialSpec minimal;      ///< smallest spec that still fails
  TrialOutcome outcome;   ///< its (failing) outcome
  std::size_t runs = 0;   ///< trial executions spent shrinking
};

/// How a shrink candidate is executed. The default is in-process
/// run_trial; the crash-safe campaign driver substitutes a runner that
/// executes candidates in isolated worker processes so that a trial that
/// segfaults or hangs can still be minimized (docs/EXEC.md).
using TrialRunner = std::function<TrialOutcome(const TrialSpec&)>;

/// Minimize a failing trial; `failing` must fail under run_trial.
ShrinkResult shrink_trial(const TrialSpec& failing, std::size_t budget = 128);
/// Same, but candidates run through `runner` ("fails" = outcome.failed).
ShrinkResult shrink_trial(const TrialSpec& failing, std::size_t budget,
                          const TrialRunner& runner);

/// The tally covers the observed trials: 0..f for a first failure f.
struct CampaignResult : CampaignTally {
  std::size_t trials_run = 0;
  std::size_t failures = 0;
  std::optional<TrialSpec> first_failure;
  std::optional<ShrinkResult> minimized;  ///< present when shrink was on

  bool ok() const { return failures == 0; }
};

/// Run the whole campaign; `observe` (optional) fires after every trial.
/// Stops generating new trials after the first failure (which it shrinks
/// when cfg.shrink) — one minimal reproducer beats a pile of raw failures.
using TrialObserver =
    std::function<void(const TrialSpec&, const TrialOutcome&)>;
CampaignResult run_campaign(const ChaosConfig& cfg,
                            const TrialObserver& observe = {});

}  // namespace pcieb::check
