#include "sim/link.hpp"

#include <algorithm>
#include <stdexcept>

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
        proto::LinkConfig derated = cfg_;
        if (rule->lanes) derated.lanes = rule->lanes;
        if (rule->gen) derated.gen = static_cast<proto::Generation>(rule->gen);
        derated_rule_ = rule;
        derated_rate_ = derated.tlp_gbps();
      }
      return derated_rate_;
    }
    downtrained_ = false;
  }
  if (recovery_derate_active_) return recovery_rate_;
  return line_rate_;
}

void Link::set_recovery_derate(unsigned lanes, unsigned gen) {
  proto::LinkConfig derated = cfg_;
  if (lanes) derated.lanes = lanes;
  if (gen) derated.gen = static_cast<proto::Generation>(gen);
  recovery_rate_ = derated.tlp_gbps();
  recovery_derate_active_ = true;
}

bool Link::replay_attempts(unsigned n, Picos gap, Picos ser,
                           unsigned wire_bytes, const proto::Tlp& tlp,
                           fault::ErrorType type, unsigned& consecutive) {
  for (unsigned i = 0; i < n; ++i) {
    if (consecutive >= dll_.replay_num) {
      // REPLAY_NUM rollover: the DLL gives up on replaying and retrains
      // the link instead; training flushes whatever was corrupting the
      // lane, so the remaining injected attempts are moot.
      ++retrains_;
      wire_.occupy(dll_.retrain_time);
      if (aer_) {
        aer_->record(fault::ErrorType::ReplayNumRollover, sim_.now(),
                     tlp.addr, tlp.tag, consecutive);
      }
      return false;
    }
    ++consecutive;
    ++replays_;
    if (type == fault::ErrorType::ReplayTimeout) ++replay_timeouts_;
    bytes_ += wire_bytes;
    wire_.occupy(ser + gap);
    if (trace_) {
      trace_->record({sim_.now(), 0, tlp.addr, tlp.tag, wire_bytes,
                      obs::EventKind::LinkReplay, trace_comp_,
                      static_cast<std::uint8_t>(tlp.type)});
    }
    if (aer_) aer_->record(type, sim_.now(), tlp.addr, tlp.tag, i);
  }
  return true;
}

void Link::configure_tenants(const std::vector<unsigned>& weights) {
  if (weights.empty() || weights.size() > 64) {
    throw std::invalid_argument("Link: tenant count must be in 1..64");
  }
  if (tlps_ != 0 || !lanes_.empty()) {
    throw std::logic_error("Link: configure_tenants after traffic");
  }
  double total = 0.0;
  for (const unsigned w : weights) {
    if (w == 0) throw std::invalid_argument("Link: zero arbitration weight");
    total += static_cast<double>(w);
  }
  lanes_.resize(weights.size());
  for (std::size_t f = 0; f < weights.size(); ++f) {
    lanes_[f].wire = std::make_unique<SerialResource>(sim_);
    lanes_[f].share = static_cast<double>(weights[f]) / total;
    lanes_[f].base_rate = lanes_[f].share * line_rate_;
  }
}

void Link::set_func_blocked(unsigned func, bool blocked) {
  lanes_.at(func).blocked = blocked;
}

void Link::set_func_recovery_derate(unsigned func, unsigned lanes,
                                    unsigned gen) {
  proto::LinkConfig derated = cfg_;
  if (lanes) derated.lanes = lanes;
  if (gen) derated.gen = static_cast<proto::Generation>(gen);
  Lane& lane = lanes_.at(func);
  lane.derate_rate = derated.tlp_gbps();
  lane.derate_active = true;
}

void Link::clear_func_recovery_derate(unsigned func) {
  lanes_.at(func).derate_active = false;
}

void Link::set_func_aer(unsigned func, fault::AerLog* aer) {
  lanes_.at(func).aer = aer;
}

Picos Link::send_tenant(const proto::Tlp& tlp) {
  Lane& lane = lanes_.at(tlp.func);
  if (blocked_ || lane.blocked) {
    // Whole-port or per-function containment: discard before the
    // injector is consulted so fault ordinals and RNG draws are not
    // consumed — identical contract to the single-tenant blocked path.
    ++blocked_drops_;
    ++lane.counters.blocked_drops;
    if (on_drop_) on_drop_(tlp);
    return sim_.now() + propagation_;
  }
  fault::LinkTxDecision decision;
  if (injector_) {
    obs::ProfScope prof(obs::CostCenter::FaultPredicates);
    decision = injector_->on_link_tx(tlp, upstream_, sim_.now());
  }
  fault::AerLog* aer = lane.aer ? lane.aer : aer_;

  if (decision.linkdown) {
    // Surprise link-down is a physical-layer event: it cannot be scoped
    // to a function, so the record lands in the shared log and the hook
    // freezes the whole port pair.
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
  // link rate; a VF-scoped recovery derate caps it further.
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

  // DLL recovery runs on the lane's own clock: a replay storm or retrain
  // stalls only this function's timeslots.
  if (decision.corrupt_attempts > 0 || decision.ack_losses > 0) {
    obs::ProfScope prof(obs::CostCenter::DllReplay);
    unsigned consecutive = 0;
    bool retrained = false;
    const auto attempts = [&](unsigned n, Picos gap, fault::ErrorType type) {
      for (unsigned i = 0; i < n && !retrained; ++i) {
        if (consecutive >= dll_.replay_num) {
          ++retrains_;
          ++lane.counters.retrains;
          lane.wire->occupy(dll_.retrain_time);
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
        lane.wire->occupy(ser + gap);
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
    const Picos start = std::max(sim_.now(), lane.wire->next_free());
    trace_->record({start, ser, tlp.addr, tlp.tag, wire_bytes,
                    obs::EventKind::LinkTx, trace_comp_,
                    static_cast<std::uint8_t>(tlp.type)});
  }

  if (decision.drop) {
    ++dropped_;
    ++lane.counters.dropped;
    if (on_drop_) on_drop_(tlp);
    return lane.wire->occupy(ser) + propagation_;
  }

  proto::Tlp copy = tlp;
  if (decision.poison) {
    copy.poisoned = true;
    ++poisoned_;
    ++lane.counters.poisoned;
  }
  ++unacked_;
  unacked_hwm_ = std::max(unacked_hwm_, unacked_);
  const Picos done = lane.wire->occupy(ser, [this, &lane, copy] {
    if (deliver_) {
      sim_.after(propagation_, [this, &lane, copy] {
        if (unacked_ > 0) --unacked_;
        if (blocked_ || lane.blocked) {
          // Containment hit while this TLP was in flight: discard at the
          // port, deterministically.
          ++blocked_drops_;
          ++lane.counters.blocked_drops;
          if (on_drop_) on_drop_(copy);
          return;
        }
        deliver_(copy);
      });
    } else if (unacked_ > 0) {
      --unacked_;
    }
  });
  return done + propagation_;
}

Picos Link::send(const proto::Tlp& tlp) {
  if (!lanes_.empty()) return send_tenant(tlp);
  if (blocked_) {
    // The port is contained (DPC) or resetting: the TLP is discarded
    // before the injector is consulted, so ordinals and RNG draws are
    // not consumed while the link is down — the fault stream resumes
    // exactly where it left off after a hot reset.
    ++blocked_drops_;
    if (on_drop_) on_drop_(tlp);
    return sim_.now() + propagation_;
  }
  fault::LinkTxDecision decision;
  if (injector_) {
    obs::ProfScope prof(obs::CostCenter::FaultPredicates);
    decision = injector_->on_link_tx(tlp, upstream_, sim_.now());
  }

  if (decision.linkdown) {
    // Surprise link-down: the port drops to detect mid-transfer. The
    // triggering TLP is lost, a fatal SurpriseLinkDown AER record fires,
    // and the hook freezes the port pair; from here on the blocked-
    // discard path above handles traffic until a recovery policy (if
    // any) hot-resets the link back up.
    ++tlps_;
    ++dropped_;
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
  // At line rate (the overwhelmingly common case — derating only happens
  // inside downtrain fault windows) the serialization time is a pure
  // function of wire_bytes, memoized on first use with the identical
  // floating-point expression, so values match recomputation bit-for-bit.
  const double rate = effective_rate();
  Picos ser;
  if (rate == line_rate_ && wire_bytes < kSerMemoMax) {
    if (wire_bytes >= ser_memo_.size()) ser_memo_.resize(wire_bytes + 1, -1);
    Picos& slot = ser_memo_[wire_bytes];
    if (slot < 0) slot = serialization_ps(wire_bytes, rate);
    ser = slot;
  } else {
    ser = serialization_ps(wire_bytes, rate);
  }

  // DLL recovery: each corrupted attempt occupies the wire, is NAKed, and
  // is replayed after the ACK/NAK round trip; a lost ACK replays after
  // REPLAY_TIMER instead. Replays happen before any later TLP is accepted
  // (the DLL retry buffer preserves order), so the wasted attempts plus
  // the timeout gaps simply extend the wire occupancy.
  if (decision.corrupt_attempts > 0 || decision.ack_losses > 0) {
    obs::ProfScope prof(obs::CostCenter::DllReplay);
    unsigned consecutive = 0;
    if (replay_attempts(decision.corrupt_attempts, dll_.ack_latency, ser,
                        wire_bytes, tlp, fault::ErrorType::BadTlp,
                        consecutive)) {
      replay_attempts(decision.ack_losses, dll_.replay_timer, ser, wire_bytes,
                      tlp, fault::ErrorType::ReplayTimeout, consecutive);
    }
  }

  if (trace_) {
    // Span covers the wire occupancy (start may be in the future when the
    // TLP queues behind earlier traffic); delivery adds propagation.
    const Picos start = std::max(sim_.now(), wire_.next_free());
    trace_->record({start, ser, tlp.addr, tlp.tag, wire_bytes,
                    obs::EventKind::LinkTx, trace_comp_,
                    static_cast<std::uint8_t>(tlp.type)});
  }

  if (decision.drop) {
    // The TLP consumed the wire but never arrives — a loss that escaped
    // the DLL. Requesters recover via completion timeout; posted writes
    // are gone for good (the bench reports them as lost goodput).
    ++dropped_;
    if (on_drop_) on_drop_(tlp);
    return wire_.occupy(ser) + propagation_;
  }

  proto::Tlp copy = tlp;
  if (decision.poison) {
    copy.poisoned = true;
    ++poisoned_;
  }
  ++unacked_;
  unacked_hwm_ = std::max(unacked_hwm_, unacked_);
  const Picos done = wire_.occupy(ser, [this, copy] {
    if (deliver_) {
      // Deliver after the propagation delay; Link::send callers rely on
      // in-order delivery, which holds because propagation is constant.
      sim_.after(propagation_, [this, copy] {
        // The far end's ACK retires the retry-buffer entry.
        if (unacked_ > 0) --unacked_;
        if (blocked_) {
          // Containment hit while this TLP was in flight: DPC discards
          // it at the port instead of delivering (deterministically —
          // the discard point is fixed by the blocking event's time).
          ++blocked_drops_;
          if (on_drop_) on_drop_(copy);
          return;
        }
        deliver_(copy);
      });
    } else if (unacked_ > 0) {
      --unacked_;
    }
  });
  return done + propagation_;
}

}  // namespace pcieb::sim
