// Invariant monitors: a self-checking harness over the PCIe functions of
// one sim::System — its single function (n = 1), every SR-IOV VF of a
// shared port, or every device of a multi-device System.
//
// A MonitorSuite takes one slot of the simulator's per-event monitor array
// and asserts, after every executed event, the conservation laws of each
// function's ledgers (sim::PcieFunction) and of every port's link pair:
//
//  * clock — the event clock never moves backwards.
//  * bleed — no function ever accepts a TLP carrying another function's
//    requester ID (cross-VF tag bleed). A lone function has no RID check.
//  * credits — each posted-write credit ledger stays within [0, window]
//    at every step and has returned the full window at quiesce (every
//    consumed credit came back, via commit, RC drop or link drop).
//  * tags — every issued read tag is retired exactly once (delivered,
//    failed, or reclaimed by a timeout/error completion): issued ==
//    retired + in-flight at every step, and nothing in flight or queued
//    anywhere at quiesce.
//  * payload — byte conservation per function at quiesce (an aggregate
//    check would let a byte move between tenants unseen): write payload
//    issued == committed + accounted lost; read payload requested ==
//    delivered + accounted failed.
//  * replay — the DLL retry buffers never hold more TLPs than were sent,
//    and are empty at quiesce.
//  * recovery — every armed ladder converged once the queue drained:
//    Operational or permanently Quarantined, never stuck mid-ladder
//    (Contained/Resetting) or Degraded with no probation pending. A lone
//    function's ladder owns its whole port and must also agree with it:
//    Operational = links unblocked at full rate; Quarantined = frozen.
//
// Per step: clock, then bleed/credits/tags per function, then replay per
// port. At quiesce: credits/tags/payload per function, then replay per
// port, then recovery. On a shared port each detail carries a "vfN: "
// prefix, on a multi-device System a "devN: " prefix.
//
// Monitors are strictly opt-in (pciebench --monitors, the chaos driver,
// tests); an unarmed simulator pays one integer test per event, so runs
// without a suite stay bit-identical to the seed. Violations are recorded
// (default — the chaos shrinker re-runs failing trials to completion) or
// thrown (throw_on_violation). See docs/CHECKING.md.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/system.hpp"

namespace pcieb::check {

/// One invariant breach: which monitor, when, and what the ledger said.
struct Violation {
  std::string monitor;  ///< clock | bleed | credits | tags | payload | ...
  Picos when = 0;
  std::string detail;

  std::string format() const;
};

class InvariantError : public std::runtime_error {
 public:
  explicit InvariantError(const Violation& v)
      : std::runtime_error(v.format()), violation_(v) {}
  const Violation& violation() const { return violation_; }

 private:
  Violation violation_;
};

struct MonitorConfig {
  /// Throw InvariantError at the first breach instead of recording it.
  bool throw_on_violation = false;
};

/// The violation log every monitor suite records through: each breach is
/// counted, the first kMaxRecorded are kept in order, and throw mode
/// raises InvariantError at the first one.
class ViolationLog {
 public:
  /// Recorded-violation cap: past it, breaches are counted but not kept
  /// (one broken invariant re-fires every event; keep reports readable).
  static constexpr std::size_t kMaxRecorded = 16;

  bool ok() const { return total_ == 0; }
  /// All breaches observed, including re-fires past the recording cap.
  std::uint64_t total_violations() const { return total_; }
  /// The first kMaxRecorded breaches, in order of occurrence.
  const std::vector<Violation>& violations() const { return violations_; }

  /// Human-readable summary: every recorded violation plus totals, or a
  /// one-line all-clear, headed by the suite's name.
  std::string report() const;

 protected:
  ViolationLog(MonitorConfig cfg, const char* name) : cfg_(cfg), name_(name) {}
  void record(const char* monitor, Picos now, std::string detail);

 private:
  MonitorConfig cfg_;
  const char* name_;
  std::vector<Violation> violations_;
  std::uint64_t total_ = 0;
};

class MonitorSuite : public ViolationLog {
 public:
  /// Registers the suite's one devirtualized monitor slot on the
  /// system's simulator and captures baseline payload tallies, so a
  /// suite attached mid-life checks only the delta. One ledger per
  /// function; each detail names its VF or device when there are several.
  /// The destructor removes exactly its own slot, leaving any other
  /// registered monitors untouched.
  explicit MonitorSuite(sim::System& system, MonitorConfig cfg = {});
  ~MonitorSuite();

  MonitorSuite(const MonitorSuite&) = delete;
  MonitorSuite& operator=(const MonitorSuite&) = delete;

  /// Run the per-step invariants immediately (they otherwise run after
  /// every executed event).
  void check_now();

  /// Run the quiesce invariants — call once the event queue has drained
  /// (after the benchmark returns). Also re-runs the step invariants.
  void check_quiescent();

 private:
  /// One port's links and the detail prefix of their checks.
  struct Port {
    const sim::Link* up;
    const sim::Link* down;
    std::string label;
  };
  /// One function's ledgers: its detail prefix and the payload tallies
  /// at attach time (all zero on a fresh system).
  struct Ledger {
    const sim::PcieFunction* fn;
    std::string label;
    std::uint64_t write_issued;
    std::uint64_t write_committed;
    std::uint64_t write_lost;
    std::uint64_t read_requested;
    std::uint64_t read_delivered;
    std::uint64_t read_failed;
  };

  /// Simulator::MonitorFn trampoline: the per-event path is one indirect
  /// call through a plain function pointer, not a std::function.
  static void step_monitor(void* ctx, Picos now);
  void step_checks(Picos now);
  void check_recovery(Picos now);

  sim::Simulator& sim_;
  bool port_ladder_;
  std::vector<Port> ports_;
  std::vector<Ledger> ledgers_;

  Picos last_now_ = 0;
  bool clock_seen_ = false;
};

}  // namespace pcieb::check
