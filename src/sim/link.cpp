#include "sim/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/profiler.hpp"

namespace pcieb::sim {

double Link::effective_rate() {
  if (injector_) {
    obs::ProfScope prof(obs::CostCenter::FaultPredicates);
    if (const fault::FaultRule* rule = injector_->downtrain_now(sim_.now())) {
      if (!downtrained_) {
        downtrained_ = true;
        ++downtrains_;
        injector_->tally_downtrain();
        if (aer_) {
          aer_->record(fault::ErrorType::LinkDowntrain, sim_.now(), 0, 0,
                       rule->lanes ? rule->lanes : cfg_.lanes);
        }
      }
      if (rule != derated_rule_) {
        derated_rule_ = rule;
        derated_rate_ = rate_at(rule->lanes, rule->gen);
      }
      return derated_rate_;
    }
    downtrained_ = false;
  }
  if (recovery_derate_active_) return recovery_rate_;
  return line_rate_;
}

double Link::rate_at(unsigned lanes, unsigned gen) const {
  proto::LinkConfig derated = cfg_;
  if (lanes) derated.lanes = lanes;
  if (gen) derated.gen = static_cast<proto::Generation>(gen);
  return derated.tlp_gbps();
}

void Link::configure_tenants(const std::vector<unsigned>& weights) {
  if (weights.empty() || weights.size() > 64) {
    throw std::invalid_argument("Link: tenant count must be in 1..64");
  }
  if (tlps_ != 0 || lanes_.size() > 1) {
    throw std::logic_error("Link: configure_tenants after traffic");
  }
  double total = 0.0;
  for (const unsigned w : weights) {
    if (w == 0) throw std::invalid_argument("Link: zero arbitration weight");
    total += static_cast<double>(w);
  }
  // Fresh lanes: a serialization memo is only valid for its own lane's rate.
  std::vector<Lane> lanes;
  lanes.reserve(weights.size());
  for (const unsigned w : weights) {
    const double share = static_cast<double>(w) / total;
    lanes.emplace_back(sim_, share, share * line_rate_);
  }
  lanes_ = std::move(lanes);
}

Picos Link::busy_total() const {
  Picos total = 0;
  for (const Lane& lane : lanes_) total += lane.wire.busy_total();
  return total;
}

Picos Link::send(const proto::Tlp& tlp) {
  // One lane carries every function's TLPs (a plain link, or weakened
  // isolation's shared FIFO); with several, each function has its own.
  Lane& lane = lanes_.size() == 1 ? lanes_.front() : lanes_.at(tlp.func);
  if (blocked_ || lane.blocked) {
    // The port (DPC) or this function is contained, or resetting: the TLP
    // is discarded before the injector is consulted, so ordinals and RNG
    // draws are not consumed while the link is down — the fault stream
    // resumes exactly where it left off after a hot reset.
    ++blocked_drops_;
    ++lane.counters.blocked_drops;
    if (on_drop_) on_drop_(tlp);
    return sim_.now() + propagation_;
  }
  fault::LinkTxDecision decision;
  if (injector_) {
    obs::ProfScope prof(obs::CostCenter::FaultPredicates);
    decision =
        injector_->on_link_tx(tlp, upstream_, sim_.now(), injector_port_);
  }
  fault::AerLog* aer = lane.aer ? lane.aer : aer_;

  if (decision.linkdown) {
    // Surprise link-down: the port drops to detect mid-transfer. The
    // triggering TLP is lost, a fatal SurpriseLinkDown AER record fires,
    // and the hook freezes the port pair; from here on the blocked-
    // discard path above handles traffic until a recovery policy (if
    // any) hot-resets the link back up. It is a physical-layer event, so
    // the record lands in the shared log, never a function's own.
    ++tlps_;
    ++dropped_;
    ++lane.counters.tlps;
    ++lane.counters.dropped;
    if (aer_) {
      aer_->record(fault::ErrorType::SurpriseLinkDown, sim_.now(), tlp.addr,
                   tlp.tag, cfg_.lanes);
    }
    if (on_linkdown_) on_linkdown_();
    if (on_drop_) on_drop_(tlp);
    return sim_.now() + propagation_;
  }

  const unsigned wire_bytes = wire_bytes_of(tlp);
  ++tlps_;
  bytes_ += wire_bytes;
  payload_bytes_ += tlp.payload;
  ++lane.counters.tlps;
  lane.counters.wire_bytes += wire_bytes;
  lane.counters.payload_bytes += tlp.payload;

  // The lane serializes at its TDM share of the (possibly downtrained)
  // link rate; a VF-scoped recovery derate caps it further. A plain
  // link's one lane has share 1.0, and 1.0 * x == x exactly, so it
  // serializes at the line rate bit-for-bit.
  double rate = lane.share * effective_rate();
  if (lane.derate_active) {
    rate = std::min(rate, lane.share * lane.derate_rate);
  }
  Picos ser;
  if (rate == lane.base_rate && wire_bytes < kSerMemoMax) {
    if (wire_bytes >= lane.ser_memo.size()) {
      lane.ser_memo.resize(wire_bytes + 1, -1);
    }
    Picos& slot = lane.ser_memo[wire_bytes];
    if (slot < 0) slot = serialization_ps(wire_bytes, rate);
    ser = slot;
  } else {
    ser = serialization_ps(wire_bytes, rate);
  }

  // DLL recovery, on the lane's own clock (a replay storm or retrain
  // stalls only this lane's timeslots): each corrupted attempt occupies
  // the wire, is NAKed, and is replayed after the ACK/NAK round trip; a
  // lost ACK replays after REPLAY_TIMER instead. Replays happen before any
  // later TLP is accepted (the DLL retry buffer preserves order), so the
  // wasted attempts plus the timeout gaps simply extend the wire occupancy.
  if (decision.corrupt_attempts > 0 || decision.ack_losses > 0) {
    obs::ProfScope prof(obs::CostCenter::DllReplay);
    unsigned consecutive = 0;
    bool retrained = false;
    const auto attempts = [&](unsigned n, Picos gap, fault::ErrorType type) {
      for (unsigned i = 0; i < n && !retrained; ++i) {
        if (consecutive >= dll_.replay_num) {
          // REPLAY_NUM rollover: the DLL gives up on replaying and
          // retrains instead; training flushes whatever was corrupting
          // the lane, so the remaining injected attempts are moot.
          ++retrains_;
          ++lane.counters.retrains;
          lane.wire.occupy(dll_.retrain_time);
          if (aer) {
            aer->record(fault::ErrorType::ReplayNumRollover, sim_.now(),
                        tlp.addr, tlp.tag, consecutive);
          }
          retrained = true;
          return;
        }
        ++consecutive;
        ++replays_;
        ++lane.counters.replays;
        if (type == fault::ErrorType::ReplayTimeout) {
          ++replay_timeouts_;
          ++lane.counters.replay_timeouts;
        }
        bytes_ += wire_bytes;
        lane.counters.wire_bytes += wire_bytes;
        lane.wire.occupy(ser + gap);
        if (trace_) {
          trace_->record({sim_.now(), 0, tlp.addr, tlp.tag, wire_bytes,
                          obs::EventKind::LinkReplay, trace_comp_,
                          static_cast<std::uint8_t>(tlp.type)});
        }
        if (aer) aer->record(type, sim_.now(), tlp.addr, tlp.tag, i);
      }
    };
    attempts(decision.corrupt_attempts, dll_.ack_latency,
             fault::ErrorType::BadTlp);
    attempts(decision.ack_losses, dll_.replay_timer,
             fault::ErrorType::ReplayTimeout);
  }

  if (trace_) {
    // Span covers the wire occupancy (start may be in the future when the
    // TLP queues behind earlier traffic); delivery adds propagation.
    const Picos start = std::max(sim_.now(), lane.wire.next_free());
    trace_->record({start, ser, tlp.addr, tlp.tag, wire_bytes,
                    obs::EventKind::LinkTx, trace_comp_,
                    static_cast<std::uint8_t>(tlp.type)});
  }

  if (decision.drop) {
    // The TLP consumed the wire but never arrives — a loss that escaped
    // the DLL. Requesters recover via completion timeout; posted writes
    // are gone for good (the bench reports them as lost goodput).
    ++dropped_;
    ++lane.counters.dropped;
    if (on_drop_) on_drop_(tlp);
    return lane.wire.occupy(ser) + propagation_;
  }

  proto::Tlp copy = tlp;
  if (decision.poison) {
    copy.poisoned = true;
    ++poisoned_;
    ++lane.counters.poisoned;
  }
  ++unacked_;
  unacked_hwm_ = std::max(unacked_hwm_, unacked_);
  // The arrival instant is closed-form once the wire is claimed, so it is
  // filed now: one event per TLP. In-order delivery holds because the
  // wire is FIFO and propagation is constant.
  const Picos done = lane.wire.occupy(ser);
  sim_.sample_point(done);
  auto arrive = [this, &lane, copy] {
    // The far end's ACK retires the retry-buffer entry.
    if (unacked_ > 0) --unacked_;
    if (blocked_ || lane.blocked) {
      // Containment hit while this TLP was in flight: DPC discards it at
      // the port instead of delivering (deterministically — the discard
      // point is fixed by the blocking event's time).
      ++blocked_drops_;
      ++lane.counters.blocked_drops;
      if (on_drop_) on_drop_(copy);
      return;
    }
    if (deliver_) deliver_(copy);
  };
  static_assert(SmallFn::stored_inline<decltype(arrive)>(),
                "the per-TLP arrival must not allocate");
  sim_.at(done + propagation_, std::move(arrive));
  return done + propagation_;
}

}  // namespace pcieb::sim
