// One direction of a PCIe link as a serializing resource.
//
// Each TLP occupies the wire for wire_bytes at the TLP-layer rate (the raw
// rate derated by DLLP traffic — see LinkConfig::tlp_gbps), then arrives
// at the far end after a fixed propagation/PHY-pipeline delay. Delivery is
// in order, matching PCIe's per-VC ordering.
//
// The data link layer's recovery machinery is modelled explicitly: a TLP
// whose LCRC fails is NAKed and replayed from the retry buffer after the
// ACK/NAK round trip; a lost ACK expires REPLAY_TIMER and forces the same
// replay; and when one TLP accumulates REPLAY_NUM (4) replays the link
// escalates to a retrain, which blocks the wire for LinkDllConfig::
// retrain_time. The retry buffer preserves order, so recovery simply
// extends the wire occupancy in front of later TLPs. Faults come from an
// attached fault::FaultInjector (random or forced corruption, ack loss,
// drops, poison, downtrain windows).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "fault/aer.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "pcie/link_config.hpp"
#include "pcie/tlp.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace pcieb::sim {

/// Data-link-layer recovery parameters.
struct LinkDllConfig {
  /// NAK round trip before a corrupted TLP's replay begins.
  Picos ack_latency = from_nanos(250);
  /// REPLAY_TIMER expiry when an ACK is lost (spec: ~ twice the ack
  /// latency plus receiver L0s exit; dominated by the timeout).
  Picos replay_timer = from_nanos(1000);
  /// Replays of one TLP before the DLL escalates to a link retrain.
  unsigned replay_num = 4;
  /// Recovery/retrain duration — the wire is dead for this long.
  Picos retrain_time = from_micros(5);
};

class Link {
 public:
  using Deliver = std::function<void(const proto::Tlp&)>;

  Link(Simulator& sim, const proto::LinkConfig& cfg, Picos propagation,
       const LinkDllConfig& dll = {})
      : sim_(sim), cfg_(cfg), propagation_(propagation), dll_(dll),
        line_rate_(cfg.tlp_gbps()) {
    for (std::size_t t = 0; t < proto::kTlpTypeCount; ++t) {
      overhead_[t] =
          proto::overhead_bytes(static_cast<proto::TlpType>(t), cfg_);
    }
    lanes_.emplace_back(sim_, 1.0, line_rate_);
  }

  void set_deliver(Deliver d) { deliver_ = std::move(d); }

  /// Queue a TLP for transmission. Serialization starts when the wire is
  /// free; the receiver's deliver callback fires at
  /// serialization-complete + propagation. Returns the delivery time
  /// (for dropped TLPs: when delivery would have happened).
  Picos send(const proto::Tlp& tlp);

  std::uint64_t tlps_sent() const { return tlps_; }
  std::uint64_t wire_bytes_sent() const { return bytes_; }
  std::uint64_t payload_bytes_sent() const { return payload_bytes_; }
  std::uint64_t replays() const { return replays_; }
  std::uint64_t replay_timeouts() const { return replay_timeouts_; }
  std::uint64_t retrains() const { return retrains_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t poisoned() const { return poisoned_; }
  std::uint64_t downtrains() const { return downtrains_; }
  /// TLPs sent but not yet delivered (retry-buffer occupancy proxy).
  std::uint64_t unacked() const { return unacked_; }
  std::uint64_t unacked_hwm() const { return unacked_hwm_; }
  /// Wire occupancy summed over every lane.
  Picos busy_total() const;

  const proto::LinkConfig& config() const { return cfg_; }

  /// Attach fault machinery (nullptrs detach). `upstream` names this
  /// direction for the injector's dir= predicate (device -> RC is up);
  /// `port` is the port whose TLP ordinals it advances.
  void set_fault_injector(fault::FaultInjector* inj, bool upstream,
                          unsigned port = 0) {
    injector_ = inj;
    upstream_ = upstream;
    injector_port_ = port;
  }
  void set_aer(fault::AerLog* aer) { aer_ = aer; }

  /// Invoked with every TLP the link loses to an injected drop — the
  /// System uses it to reclaim posted-write credits and account lost
  /// goodput, since a dropped TLP produces no downstream event at all.
  using DropHook = std::function<void(const proto::Tlp&)>;
  void set_drop_hook(DropHook h) { on_drop_ = std::move(h); }

  /// Invoked once per surprise link-down the injector fires on this
  /// direction, after the SurpriseLinkDown AER record; the System uses it
  /// to freeze both directions of the port (DPC-style containment needs
  /// the pair, not just the direction the trigger TLP was on).
  using LinkDownHook = std::function<void()>;
  void set_linkdown_hook(LinkDownHook h) { on_linkdown_ = std::move(h); }

  /// Containment: a blocked link discards every TLP instead of
  /// transmitting it — deterministically, before the injector is even
  /// consulted, so fault ordinals and RNG draws are not consumed while
  /// the port is down. Discards are accounted through the drop hook.
  void set_blocked(bool blocked) { blocked_ = blocked; }
  bool blocked() const { return blocked_; }
  std::uint64_t blocked_drops() const { return blocked_drops_; }

  /// Recovery-action derate (adaptive downtrain): retrain this direction
  /// to `lanes`/`gen` until cleared. An injected downtrain window takes
  /// precedence while it is active — the fault models the marginal
  /// hardware, the recovery derate models policy on top of it.
  void set_recovery_derate(unsigned lanes, unsigned gen) {
    recovery_rate_ = rate_at(lanes, gen);
    recovery_derate_active_ = true;
  }
  void clear_recovery_derate() { recovery_derate_active_ = false; }
  bool recovery_derated() const { return recovery_derate_active_; }

  // --- Weighted TDM virtual lanes ---------------------------------------
  //
  // Every TLP serializes on a virtual lane, each at weight/total of the
  // link rate (non-work-conserving time-division arbitration, like a fixed
  // DLL timeslot schedule). A plain link is one lane of weight 1 that
  // carries every function's TLPs; configure_tenants gives each SR-IOV
  // function its own lane. A lane's timing is a pure function of its own
  // traffic: one tenant saturating its slice never delays another — the
  // property the isolation-identity acceptance pins. Aggregate counters
  // keep counting across all lanes; per-function counters ride alongside.

  /// One lane per function; weights[f] is lane f's arbitration weight
  /// (> 0). Call once, before any traffic.
  void configure_tenants(const std::vector<unsigned>& weights);

  /// Per-function containment: discard function f's TLPs at this port
  /// (before the injector is consulted — same determinism contract as
  /// set_blocked) while other functions keep transmitting.
  void set_func_blocked(unsigned func, bool blocked) {
    lanes_.at(func).blocked = blocked;
  }
  bool func_blocked(unsigned func) const { return lanes_.at(func).blocked; }

  /// VF-scoped recovery derate: only function f's lane retrains to the
  /// reduced lanes/gen share.
  void set_func_recovery_derate(unsigned func, unsigned lanes, unsigned gen) {
    Lane& lane = lanes_.at(func);
    lane.derate_rate = rate_at(lanes, gen);
    lane.derate_active = true;
  }
  void clear_func_recovery_derate(unsigned func) {
    lanes_.at(func).derate_active = false;
  }

  /// Route function f's DLL error records (replays, retrains, poison) to
  /// its own AER log; link-wide events (surprise link-down, downtrain)
  /// stay on the shared log.
  void set_func_aer(unsigned func, fault::AerLog* aer) {
    lanes_.at(func).aer = aer;
  }

  /// Per-lane counters (function f's lane; lane 0 on a plain link).
  struct FuncCounters {
    std::uint64_t tlps = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t replays = 0;
    std::uint64_t replay_timeouts = 0;
    std::uint64_t retrains = 0;
    std::uint64_t dropped = 0;
    std::uint64_t poisoned = 0;
    std::uint64_t blocked_drops = 0;
  };
  const FuncCounters& func_counters(unsigned func) const {
    return lanes_.at(func).counters;
  }

  /// Stable addresses of this direction's monotonic totals, for
  /// obs::CounterRegistry's raw readers — snapshot reads skip the
  /// std::function hop. Pointers stay valid for the Link's lifetime.
  struct CounterSources {
    const std::uint64_t* tlps;
    const std::uint64_t* wire_bytes;
    const std::uint64_t* payload_bytes;
    const std::uint64_t* replays;
    const std::uint64_t* replay_timeouts;
    const std::uint64_t* retrains;
    const std::uint64_t* dropped;
    const std::uint64_t* poisoned;
  };
  CounterSources counter_sources() const {
    return {&tlps_,     &bytes_,    &payload_bytes_, &replays_,
            &replay_timeouts_, &retrains_, &dropped_,       &poisoned_};
  }

  /// Attach tracing (nullptr detaches); `comp` names this direction's
  /// trace track (LinkUp / LinkDown).
  void set_trace(obs::TraceSink* sink, obs::Component comp) {
    trace_ = sink;
    trace_comp_ = comp;
  }

 private:
  /// One TDM virtual lane. The delivery callback captures `&lane`, so
  /// lanes change only before traffic.
  struct Lane {
    Lane(Simulator& sim, double share, double base_rate)
        : wire(sim), share(share), base_rate(base_rate) {}
    SerialResource wire;
    double share;      ///< weight / total weight
    double base_rate;  ///< share * line rate, memo anchor
    bool blocked = false;
    bool derate_active = false;
    double derate_rate = 0.0;  ///< derated link rate (share applied later)
    fault::AerLog* aer = nullptr;
    FuncCounters counters;
    /// wire_bytes -> serialization time at base_rate, filled lazily with
    /// the identical FP expression (-1 = not yet computed). Bypassed while
    /// a downtrain window or recovery derate changes the rate.
    std::vector<Picos> ser_memo;
  };

  /// TLP-layer rate honouring any active downtrain window; logs the
  /// transition into a window once per entry.
  double effective_rate();
  /// TLP-layer rate of this link retrained to `lanes`/`gen` (0 = keep).
  double rate_at(unsigned lanes, unsigned gen) const;

  Simulator& sim_;
  proto::LinkConfig cfg_;
  Picos propagation_;
  LinkDllConfig dll_;
  Deliver deliver_;
  DropHook on_drop_;
  LinkDownHook on_linkdown_;
  fault::FaultInjector* injector_ = nullptr;
  fault::AerLog* aer_ = nullptr;
  bool upstream_ = true;
  unsigned injector_port_ = 0;
  obs::TraceSink* trace_ = nullptr;
  obs::Component trace_comp_ = obs::Component::LinkUp;
  std::uint64_t tlps_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t replays_ = 0;
  std::uint64_t replay_timeouts_ = 0;
  std::uint64_t retrains_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t poisoned_ = 0;
  std::uint64_t downtrains_ = 0;
  std::uint64_t unacked_ = 0;
  std::uint64_t unacked_hwm_ = 0;
  bool downtrained_ = false;
  const fault::FaultRule* derated_rule_ = nullptr;
  double derated_rate_ = 0.0;
  bool blocked_ = false;
  std::uint64_t blocked_drops_ = 0;
  bool recovery_derate_active_ = false;
  double recovery_rate_ = 0.0;
  /// Per-TLP wire accounting without the per-call switch chain in
  /// proto::overhead_bytes: the overhead is a pure function of (type,
  /// cfg_), both fixed for this link's lifetime, so one 4-entry table
  /// covers every TLP.
  std::array<unsigned, proto::kTlpTypeCount> overhead_{};
  unsigned wire_bytes_of(const proto::Tlp& t) const {
    return overhead_[static_cast<std::size_t>(t.type)] + t.payload;
  }
  /// cfg_.tlp_gbps() computed once — it chains two switch lookups and
  /// floating-point math, far too heavy for a per-TLP call.
  double line_rate_;
  /// Memo bound for Lane::ser_memo: max header + MPS payload with margin.
  static constexpr unsigned kSerMemoMax = 8192;
  /// At least one lane; with exactly one, every function's TLPs use it.
  std::vector<Lane> lanes_;
};

}  // namespace pcieb::sim
