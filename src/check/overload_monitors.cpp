#include "check/overload_monitors.hpp"

#include <sstream>

namespace pcieb::check {

OverloadMonitorSuite::OverloadMonitorSuite(MonitorConfig cfg)
    : ViolationLog(cfg, "overload monitors") {
  probe_.on_epoch = [this](const nic::OverloadStats& st, Picos now) {
    on_epoch(st, now);
  };
  probe_.on_quiesce = [this](const nic::OverloadStats& st,
                             const std::vector<core::FlowStats>& flows,
                             Picos now) { on_quiesce(st, flows, now); };
}

void OverloadMonitorSuite::check_conservation(const nic::OverloadStats& st,
                                              Picos now) {
  const std::uint64_t accounted =
      st.delivered + st.dropped_total() + st.in_flight();
  if (accounted != st.offered) {
    std::ostringstream os;
    os << "frame accounting broke: offered " << st.offered << " != delivered "
       << st.delivered << " + dropped(mac " << st.dropped_mac << ", ring "
       << st.dropped_ring << ", admission " << st.dropped_admission
       << ") + in-flight(dma " << st.dma_inflight << ", backlog " << st.backlog
       << ", service " << st.in_service << ")";
    record("overload.conservation", now, os.str());
  }
}

void OverloadMonitorSuite::check_occupancy(const nic::OverloadStats& st,
                                           Picos now) {
  if (st.ring_max_pending > st.ring_slots) {
    record("overload.occupancy", now,
           "ring occupancy " + std::to_string(st.ring_max_pending) +
               " exceeded " + std::to_string(st.ring_slots) + " slots");
  }
  if (st.creds_max > st.ring_slots) {
    record("overload.occupancy", now,
           "freelist credits " + std::to_string(st.creds_max) +
               " exceeded ring size " + std::to_string(st.ring_slots));
  }
  if (st.admission_slots != 0 && st.backlog_max > st.admission_slots) {
    record("overload.occupancy", now,
           "host backlog " + std::to_string(st.backlog_max) +
               " exceeded admission threshold " +
               std::to_string(st.admission_slots));
  }
  if (st.pause_ps > st.pause_budget) {
    record("overload.occupancy", now,
           "PAUSE time " + std::to_string(st.pause_ps) +
               " ps exceeded budget " + std::to_string(st.pause_budget) +
               " ps");
  }
}

void OverloadMonitorSuite::on_epoch(const nic::OverloadStats& st, Picos now) {
  check_conservation(st, now);
  check_occupancy(st, now);
  // Forward progress: a service op pending at both edges of an epoch with
  // a frozen delivered count means the host started a frame it never
  // finishes — receive livelock (interrupt work starving the bottom
  // half). A delivery stall alone is NOT flagged: a composed fault plan
  // can starve the freelist for an epoch, in which case frames drop at
  // the MAC/ring (conservation accounts for them) and no service op is
  // pending because there is nothing to serve.
  if (epoch_seen_ && st.delivered <= last_delivered_ &&
      st.in_service > 0 && last_in_service_ > 0) {
    record("overload.progress", now,
           "receive livelock: service pending across a monitor epoch with "
           "delivered stuck at " +
               std::to_string(st.delivered));
  }
  epoch_seen_ = true;
  last_delivered_ = st.delivered;
  last_in_service_ = st.in_service;
}

void OverloadMonitorSuite::on_quiesce(const nic::OverloadStats& st,
                                      const std::vector<core::FlowStats>& flows,
                                      Picos now) {
  quiesced_ = true;
  check_conservation(st, now);
  check_occupancy(st, now);
  if (st.in_flight() != 0) {
    record("overload.conservation", now,
           "frames still in flight at quiesce: dma " +
               std::to_string(st.dma_inflight) + ", backlog " +
               std::to_string(st.backlog) + ", service " +
               std::to_string(st.in_service));
  }
  if (st.offered > 0 && st.delivered == 0) {
    record("overload.progress", now,
           "nothing delivered out of " + std::to_string(st.offered) +
               " offered frames");
  }
  // Per-flow tallies are a second, independent conservation axis.
  std::uint64_t f_off = 0, f_del = 0, f_drop = 0;
  for (const auto& f : flows) {
    f_off += f.offered;
    f_del += f.delivered;
    f_drop += f.dropped;
  }
  if (f_off != st.offered || f_del != st.delivered ||
      f_drop != st.dropped_total()) {
    std::ostringstream os;
    os << "per-flow tallies disagree with aggregates: flows say offered "
       << f_off << "/delivered " << f_del << "/dropped " << f_drop
       << ", counters say " << st.offered << "/" << st.delivered << "/"
       << st.dropped_total();
    record("overload.conservation", now, os.str());
  }
}

}  // namespace pcieb::check
