// Overload invariant monitors: graceful degradation, proved not presumed.
//
// An OverloadMonitorSuite consumes the nic::OverloadProbe hooks and
// asserts, at every monitor epoch while load is sustained and once more
// at quiesce, the properties that separate "degrades gracefully" from
// "falls over":
//
//  * conservation — every offered frame is in exactly one state at all
//    times: delivered, dropped at the MAC, dropped at the ring, dropped
//    by admission, or still in flight (DMA / backlog / in service). At
//    quiesce in-flight must be zero — no frame silently vanishes, even
//    under composed fault plans. The per-flow tallies must independently
//    sum to the same totals (a second axis the aggregate counters cannot
//    fake).
//  * progress — no receive livelock: a service operation that stays
//    pending across an entire monitor epoch while the delivered count is
//    frozen is a host spending its cycles taking interrupts instead of
//    finishing work (the classic receive-livelock failure;
//    OverloadConfig::test_livelock_bug plants exactly that bug). Mere
//    delivery stalls don't trip it — a composed fault plan can starve
//    the freelist for an epoch (frames then drop at the MAC/ring, which
//    conservation still accounts for) without any service op pending.
//    At quiesce, offered > 0 must have delivered > 0.
//  * occupancy — everything stays bounded: descriptor-ring occupancy and
//    resident freelist credits never exceed the ring size, the host
//    backlog never exceeds the admission threshold (when armed), and
//    cumulative PAUSE time never exceeds the pause budget.
//
// Same contract and the same ViolationLog as check::MonitorSuite: record
// violations by default so campaigns can shrink failing trials, or throw
// InvariantError at first breach (--throw-monitors / CI soak legs). See
// docs/OVERLOAD.md.
#pragma once

#include <cstdint>
#include <vector>

#include "check/monitors.hpp"
#include "nic/overload.hpp"

namespace pcieb::check {

class OverloadMonitorSuite : public ViolationLog {
 public:
  explicit OverloadMonitorSuite(MonitorConfig cfg = {});

  /// The probe to pass to nic::run_overload / run_overload_point. Valid
  /// for the suite's lifetime; one run per suite.
  const nic::OverloadProbe* probe() const { return &probe_; }

  bool quiesced() const { return quiesced_; }

 private:
  void on_epoch(const nic::OverloadStats& st, Picos now);
  void on_quiesce(const nic::OverloadStats& st,
                  const std::vector<core::FlowStats>& flows, Picos now);
  void check_conservation(const nic::OverloadStats& st, Picos now);
  void check_occupancy(const nic::OverloadStats& st, Picos now);

  nic::OverloadProbe probe_;

  std::uint64_t last_delivered_ = 0;
  std::uint64_t last_in_service_ = 0;
  bool epoch_seen_ = false;
  bool quiesced_ = false;
};

}  // namespace pcieb::check
