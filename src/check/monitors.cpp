#include "check/monitors.hpp"

#include <sstream>

namespace pcieb::check {

std::string Violation::format() const {
  std::ostringstream os;
  os << "invariant '" << monitor << "' violated @ " << to_nanos(when)
     << " ns: " << detail;
  return os.str();
}

void ViolationLog::record(const char* monitor, Picos now, std::string detail) {
  ++total_;
  Violation v{monitor, now, std::move(detail)};
  if (cfg_.throw_on_violation) throw InvariantError(v);
  if (violations_.size() < kMaxRecorded) violations_.push_back(std::move(v));
}

std::string ViolationLog::report() const {
  if (total_ == 0) return std::string(name_) + ": all invariants held\n";
  std::ostringstream os;
  for (const auto& v : violations_) os << v.format() << "\n";
  if (total_ > violations_.size()) {
    os << "... and " << (total_ - violations_.size())
       << " further violations past the recording cap\n";
  }
  os << name_ << ": " << total_ << " violation" << (total_ == 1 ? "" : "s")
     << " (" << violations_.size() << " recorded)\n";
  return os.str();
}

MonitorSuite::MonitorSuite(sim::System& system, MonitorConfig cfg)
    : ViolationLog(cfg, "monitors"),
      sim_(system.sim()),
      port_ladder_(!system.shared()) {
  const unsigned n = system.function_count();
  for (unsigned i = 0; i < n; ++i) {
    const sim::PcieFunction& f = system.function(i);
    // A lone function needs no name; a VF or a device does.
    const std::string label =
        n == 1 ? ""
               : (system.shared() ? "vf" : "dev") + std::to_string(i) + ": ";
    // A device's port is its own; a shared port is every VF's.
    if (i == 0 || !system.shared()) {
      ports_.push_back({&system.upstream(i), &system.downstream(i),
                        system.shared() ? "" : label});
    }
    ledgers_.push_back({&f, label, f.device().write_payload_issued(),
                        f.root_complex().write_bytes_committed(),
                        f.lost_write_bytes(),
                        f.device().read_payload_requested(),
                        f.device().read_payload_delivered(),
                        f.device().failed_read_bytes()});
  }
  sim_.add_monitor(&MonitorSuite::step_monitor, this);
}

MonitorSuite::~MonitorSuite() {
  sim_.remove_monitor(&MonitorSuite::step_monitor, this);
}

void MonitorSuite::step_monitor(void* ctx, Picos now) {
  auto* self = static_cast<MonitorSuite*>(ctx);
  // Clock first: if time ran backwards, everything else is suspect too.
  if (self->clock_seen_ && now < self->last_now_) {
    self->record("clock", now,
                 "event clock moved backwards: " +
                     std::to_string(self->last_now_) + " ps -> " +
                     std::to_string(now) + " ps");
  }
  self->clock_seen_ = true;
  self->last_now_ = now;
  self->step_checks(now);
}

void MonitorSuite::step_checks(Picos now) {
  for (const Ledger& l : ledgers_) {
    const auto& dev = l.fn->device();

    // bleed: the device counts-and-drops TLPs carrying a foreign
    // requester ID, so the counter moving at all is the isolation breach.
    if (dev.foreign_tlps() != 0) {
      record("bleed", now,
             l.label + std::to_string(dev.foreign_tlps()) +
                 " TLPs carried a foreign requester ID (cross-VF bleed)");
    }

    // credits: 0 <= available <= advertised window, at every instant.
    const std::int64_t credits = dev.posted_credits_available();
    const std::int64_t window =
        static_cast<std::int64_t>(dev.profile().posted_credit_bytes);
    if (credits < 0 || credits > window) {
      record("credits", now,
             l.label + "posted credits " + std::to_string(credits) +
                 " outside [0, " + std::to_string(window) + "]");
    }

    // tags: every issued tag is either retired or still in flight.
    const std::uint64_t issued = dev.read_requests_issued();
    const std::uint64_t retired = dev.read_requests_retired();
    const std::uint64_t inflight = dev.inflight_read_requests();
    if (retired > issued || issued - retired != inflight) {
      record("tags", now,
             l.label + "issued " + std::to_string(issued) + " != retired " +
                 std::to_string(retired) + " + in-flight " +
                 std::to_string(inflight) + " (" + dev.outstanding_tags() +
                 ")");
    }
  }

  // replay: the retry buffer tracks sent-but-unacked TLPs; it can never
  // hold more than were ever sent (an excess means retire accounting
  // drifted or wrapped).
  for (const Port& p : ports_) {
    for (const sim::Link* link : {p.up, p.down}) {
      if (link->unacked() > link->tlps_sent()) {
        record("replay", now,
               p.label + "retry buffer holds " +
                   std::to_string(link->unacked()) + " TLPs but only " +
                   std::to_string(link->tlps_sent()) + " were sent");
      }
    }
  }
}

void MonitorSuite::check_now() { step_checks(sim_.now()); }

void MonitorSuite::check_quiescent() {
  const Picos now = sim_.now();
  step_checks(now);

  for (const Ledger& l : ledgers_) {
    const auto& dev = l.fn->device();
    const auto& rc = l.fn->root_complex();

    // credits: with nothing in flight, the full window must have returned.
    const std::int64_t credits = dev.posted_credits_available();
    const std::int64_t window =
        static_cast<std::int64_t>(dev.profile().posted_credit_bytes);
    if (credits != window) {
      record("credits", now,
             l.label + "at quiesce " + std::to_string(credits) + " of " +
                 std::to_string(window) +
                 " posted credit bytes returned (leaked " +
                 std::to_string(window - credits) + ")");
    }

    // tags: nothing may still be in flight or queued anywhere.
    if (dev.inflight_read_requests() != 0 || dev.pending_read_ops() != 0 ||
        dev.pending_write_tlps() != 0 || rc.posted_writes_pending() != 0 ||
        rc.host_reads_pending() != 0 || rc.ordered_reads_pending() != 0) {
      record("tags", now,
             l.label + "work outstanding at quiesce: read requests " +
                 std::to_string(dev.inflight_read_requests()) + " (" +
                 dev.outstanding_tags() + "), read ops " +
                 std::to_string(dev.pending_read_ops()) + ", queued writes " +
                 std::to_string(dev.pending_write_tlps()) + ", rc posted " +
                 std::to_string(rc.posted_writes_pending()) +
                 ", rc host reads " + std::to_string(rc.host_reads_pending()) +
                 ", rc ordered reads " +
                 std::to_string(rc.ordered_reads_pending()));
    }

    // payload: byte conservation over the suite's lifetime.
    const std::uint64_t wr_issued = dev.write_payload_issued() - l.write_issued;
    const std::uint64_t wr_committed =
        rc.write_bytes_committed() - l.write_committed;
    const std::uint64_t wr_lost = l.fn->lost_write_bytes() - l.write_lost;
    if (wr_issued != wr_committed + wr_lost) {
      record("payload", now,
             l.label + "write bytes not conserved: issued " +
                 std::to_string(wr_issued) + " != committed " +
                 std::to_string(wr_committed) + " + lost " +
                 std::to_string(wr_lost));
    }
    const std::uint64_t rd_requested =
        dev.read_payload_requested() - l.read_requested;
    const std::uint64_t rd_delivered =
        dev.read_payload_delivered() - l.read_delivered;
    const std::uint64_t rd_failed = dev.failed_read_bytes() - l.read_failed;
    if (rd_requested != rd_delivered + rd_failed) {
      record("payload", now,
             l.label + "read bytes not conserved: requested " +
                 std::to_string(rd_requested) + " != delivered " +
                 std::to_string(rd_delivered) + " + failed " +
                 std::to_string(rd_failed));
    }
  }

  // replay: the retry buffers must be empty once the queue drained.
  for (const Port& p : ports_) {
    if (p.up->unacked() != 0 || p.down->unacked() != 0) {
      record("replay", now,
             p.label + "retry buffers not empty at quiesce: up " +
                 std::to_string(p.up->unacked()) + ", down " +
                 std::to_string(p.down->unacked()));
    }
  }

  check_recovery(now);
}

void MonitorSuite::check_recovery(Picos now) {
  // Every ladder must have converged — the function is either healthy
  // again or declared unrecoverable, within bounded sim-time (the queue
  // draining IS the bound: a ladder stuck mid-flight would still hold
  // scheduled events).
  for (std::size_t i = 0; i < ledgers_.size(); ++i) {
    const Ledger& l = ledgers_[i];
    const fault::RecoveryManager* rec = l.fn->recovery();
    if (rec == nullptr) continue;
    const auto fail = [&](const std::string& detail) {
      record("recovery", now, l.label + detail);
    };
    if (!rec->converged()) {
      fail(std::string("ladder did not converge: state '") +
           fault::to_string(rec->state()) +
           "' at quiesce (want operational or quarantined); digest " +
           rec->digest());
      continue;
    }
    // Port-state agreement applies only to a ladder that owns its whole
    // port (function i's is ports_[i]); per-VF lanes have no such single
    // verdict to agree with.
    if (!port_ladder_) continue;
    const sim::Link& up = *ports_[i].up;
    const sim::Link& down = *ports_[i].down;
    const std::string blocked = "up blocked=" + std::to_string(up.blocked()) +
                                ", down blocked=" +
                                std::to_string(down.blocked());
    if (rec->state() == fault::RecoveryState::Operational) {
      if (up.blocked() || down.blocked()) {
        fail("operational verdict but port still frozen: " + blocked);
      }
      if (up.recovery_derated() != rec->link_degraded() ||
          down.recovery_derated() != rec->link_degraded()) {
        fail("link derate disagrees with ladder: manager degraded=" +
             std::to_string(rec->link_degraded()) +
             ", up derated=" + std::to_string(up.recovery_derated()) +
             ", down derated=" + std::to_string(down.recovery_derated()));
      }
      if (rec->link_degraded()) {
        fail(
            "operational verdict with downtrain still active (restore never "
            "ran); digest " +
            rec->digest());
      }
    } else if (!up.blocked() || !down.blocked()) {  // Quarantined
      fail("quarantined verdict but port not frozen: " + blocked);
    }
  }
}

}  // namespace pcieb::check
