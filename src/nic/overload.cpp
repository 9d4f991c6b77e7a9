#include "nic/overload.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

#include "nic/frame.hpp"
#include "nic/ring.hpp"
#include "obs/trace.hpp"

namespace pcieb::nic {
namespace {

/// Buffer layout: freelist ring + MSI mailbox in the port's host-warm
/// first MB, packet landing area behind it (cycled).
constexpr std::uint64_t kRxDescArea = 0;
constexpr std::uint64_t kMsiArea = 256ull << 10;
constexpr std::uint64_t kPktArea = 1ull << 20;
constexpr std::uint64_t kRxDoorbell = 0x20;

/// Drop-site codes carried in FrameDrop trace flags (docs/OVERLOAD.md).
constexpr std::uint8_t kDropMac = 0;
constexpr std::uint8_t kDropRing = 1;
constexpr std::uint8_t kDropAdmission = 2;

core::LoadGenConfig loadgen_config(const OverloadConfig& cfg, bool calibrate,
                                   Picos frame_wire) {
  core::LoadGenConfig lg;
  lg.arrivals = cfg.arrivals;
  lg.mean_gap_ps =
      calibrate ? static_cast<double>(frame_wire)
                : 1e12 / (static_cast<double>(cfg.capacity_pps) *
                          cfg.offered_load);
  lg.burst_frames = cfg.burst_frames;
  lg.flows = cfg.flows;
  lg.zipf_s = cfg.zipf_s;
  lg.seed = cfg.seed;
  return lg;
}

/// One run of the RX driver over the engine's freelist: the wire's
/// arrival clock, PAUSE, packet DMAs, admission, MSIs and host service.
/// Every simulator event captures `this` (plus a Waiting for host
/// service) and every DMA callback `this` plus at most 4 B, so each fits
/// its wrapper's inline buffer; a frame whose packet DMA is in flight
/// waits in `dma_frames_`, named by its slot. A frame therefore costs no
/// heap allocation beyond deque block churn.
class RxDatapath final : public NicPort {
 public:
  RxDatapath(sim::System& system, const OverloadConfig& cfg,
             const OverloadProbe* probe, bool calibrate);

  OverloadResult run();

 private:
  struct Waiting {
    std::uint32_t flow;
    Picos t_arr;
  };

  void on_descriptors(Ring& ring) override;
  void schedule_arrival();
  void on_arrival();
  void on_frame_written(std::uint32_t slot);
  void finish_service(Waiting w);
  void pump_service();
  void raise_irq();
  void on_irq_wakeup();
  void maybe_flush();

  /// Hold `w` while its packet DMA is in flight; returns its slot.
  std::uint32_t park(Waiting w);
  Waiting unpark(std::uint32_t slot);

  sim::Simulator& sim_;
  obs::TraceSink* trace_;
  const OverloadConfig& cfg_;
  const OverloadProbe* probe_;
  const bool calibrate_;
  Ring rx_;  ///< the freelist

  const std::uint32_t frame_;
  const Picos frame_wire_;
  // Calibration runs the identical pipeline closed-loop: backpressure is
  // forced on with an unbounded budget, so the PAUSE mechanism throttles
  // line-rate arrivals to exactly the service rate and nothing drops —
  // the delivered rate IS the sustainable capacity.
  const bool backpressure_;
  const Picos pause_budget_;
  const std::uint32_t admission_slots_;

  core::LoadGen gen_;
  core::FlowTable flows_;
  OverloadStats st_;
  std::uint64_t returned_ = 0;  ///< buffers recycled (delivered + adm-drop)
  std::uint32_t irq_due_ = 0;
  std::uint64_t arrivals_ = 0;
  bool arrivals_done_ = false;
  std::uint32_t epoch_pos_ = 0;
  Picos pause_until_ = 0;
  bool mac_enabled_ = false;  ///< arrivals start once credits are resident
  bool host_awake_;
  bool irq_pending_ = false;  ///< MSI + wakeup scheduled, host still asleep
  bool service_busy_ = false;
  Picos service_ready_at_ = 0;  ///< livelock-bug postponement horizon
  Picos first_arrival_ = -1;
  Picos last_delivery_ = 0;
  obs::Digest latency_;
  std::deque<Waiting> backlog_;
  /// Frames whose packet DMA is in flight, by slot; free_slots_ lists
  /// the unused ones. At most ring_slots buffers are ever out, so the
  /// reserved storage never grows.
  std::vector<Waiting> dma_frames_;
  std::vector<std::uint32_t> free_slots_;
  const std::uint64_t msi_addr_;
};

RxDatapath::RxDatapath(sim::System& system, const OverloadConfig& cfg,
                       const OverloadProbe* probe, bool calibrate)
    : NicPort(system),
      sim_(system.sim()),
      trace_(system.trace_sink()),
      cfg_(cfg),
      probe_(probe),
      calibrate_(calibrate),
      rx_(*this,
          {kRxDescArea, kPktArea, kRxDoorbell, cfg.ring_slots,
           OverloadConfig::kDescBatch, OverloadConfig::kWbBatch,
           OverloadConfig::kDoorbellBatch}),
      frame_(cfg.frame_bytes),
      frame_wire_(wire_time(frame_)),
      backpressure_(calibrate ? true : cfg.backpressure),
      pause_budget_(calibrate ? std::numeric_limits<Picos>::max() / 2
                              : (cfg.backpressure ? cfg.pause_budget : 0)),
      admission_slots_(calibrate ? 0 : cfg.admission_slots),
      gen_(loadgen_config(cfg, calibrate, frame_wire_)),
      flows_(cfg.flows),
      host_awake_(cfg.service == ServiceMode::BusyPoll),
      msi_addr_(iova(kMsiArea)) {
  st_.ring_slots = cfg.ring_slots;
  st_.admission_slots = admission_slots_;
  st_.pause_budget = pause_budget_;
  dma_frames_.reserve(cfg.ring_slots);
  free_slots_.reserve(cfg.ring_slots);
}

std::uint32_t RxDatapath::park(Waiting w) {
  if (free_slots_.empty()) {
    dma_frames_.push_back(w);
    return static_cast<std::uint32_t>(dma_frames_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  dma_frames_[slot] = w;
  return slot;
}

RxDatapath::Waiting RxDatapath::unpark(std::uint32_t slot) {
  free_slots_.push_back(slot);
  return dma_frames_[slot];
}

void RxDatapath::on_descriptors(Ring&) {
  st_.creds_max = std::max(st_.creds_max, rx_.resident());
  rx_.recycle(returned_);
  if (!mac_enabled_) {
    // The driver enables the MAC only after the freelist is provisioned
    // (as real drivers do) — otherwise the first wire frames race the
    // first descriptor-fetch DMA and drop during cold start even far
    // below capacity.
    mac_enabled_ = true;
    schedule_arrival();
  }
}

void RxDatapath::schedule_arrival() {
  const Picos gap = calibrate_ ? frame_wire_ : gen_.next_gap();
  Picos due = sim_.now() + gap;
  // A paused sender holds its frames: the arrival clock stretches by
  // however much of the PAUSE window is still ahead.
  if (backpressure_ && due < pause_until_) due = pause_until_;
  sim_.at(due, [this] { on_arrival(); });
}

void RxDatapath::on_arrival() {
  const Picos now = sim_.now();
  if (first_arrival_ < 0) first_arrival_ = now;
  ++st_.offered;
  const std::uint32_t flow = gen_.next_flow();
  flows_.offered(flow);
  if (trace_) {
    trace_->record({now, 0, 0, flow, frame_, obs::EventKind::FrameArrival,
                    obs::Component::Device, 0});
  }
  if (cfg_.test_livelock_bug && cfg_.service == ServiceMode::Coalesce) {
    // TEST-ONLY receive livelock: broken moderation raises an MSI for
    // every wire arrival — dropped or not — so at sufficient offered
    // load the interrupt storm postpones the bottom half faster than
    // time passes and delivery freezes.
    raise_irq();
  }
  // MAC PAUSE: assert when resident freelist credits run low, bounded
  // by the cumulative pause budget.
  if (backpressure_ && rx_.resident() < OverloadConfig::kPauseThreshold &&
      now >= pause_until_) {
    const Picos remaining = pause_budget_ - st_.pause_ps;
    if (remaining > 0) {
      const Picos q = std::min(
          OverloadConfig::kPauseQuantumFrames * frame_wire_, remaining);
      pause_until_ = now + q;
      st_.pause_ps += q;
      ++st_.pause_events;
    }
  }
  if (!rx_.take()) {
    // The wire does not wait. With backpressure the budget failed to
    // protect the freelist (MAC drop); without it this is the classic
    // rx_no_buffer ring drop.
    if (backpressure_) {
      ++st_.dropped_mac;
    } else {
      ++st_.dropped_ring;
    }
    flows_.dropped(flow);
    if (trace_) {
      trace_->record({now, 0, 0, flow, frame_, obs::EventKind::FrameDrop,
                      obs::Component::Device,
                      backpressure_ ? kDropMac : kDropRing});
    }
  } else {
    ++st_.dma_inflight;
    rx_.fetch();
    const std::uint64_t addr = rx_.next_buffer();
    dev_.dma_write(addr, frame_, [this, slot = park({flow, now})] {
      on_frame_written(slot);
    });
  }
  // Monitor epoch: fires only while the offered load is sustained, so
  // the forward-progress check never judges the drain tail.
  if (probe_ && probe_->on_epoch &&
      ++epoch_pos_ >= OverloadConfig::kEpochArrivals) {
    epoch_pos_ = 0;
    st_.ring_max_pending = rx_.max_pending();
    probe_->on_epoch(st_, now);
  }
  ++arrivals_;
  if (arrivals_ < cfg_.frames) {
    schedule_arrival();
  } else {
    arrivals_done_ = true;
    maybe_flush();
  }
}

void RxDatapath::on_frame_written(std::uint32_t slot) {
  const Waiting w = unpark(slot);
  --st_.dma_inflight;
  rx_.write_back();
  if (admission_slots_ != 0 && backlog_.size() >= admission_slots_) {
    // Tail-drop at the driver: the frame burned PCIe bandwidth but the
    // host refuses to queue it — goodput degrades instead of the backlog
    // (and its latency) growing without bound.
    ++st_.dropped_admission;
    flows_.dropped(w.flow);
    ++returned_;
    if (trace_) {
      trace_->record({sim_.now(), 0, 0, w.flow, frame_,
                      obs::EventKind::FrameDrop, obs::Component::Device,
                      kDropAdmission});
    }
    rx_.recycle(returned_);
    maybe_flush();
  } else {
    backlog_.push_back(w);
    st_.backlog = backlog_.size();
    st_.backlog_max = std::max<std::uint64_t>(st_.backlog_max, backlog_.size());
    if (cfg_.service == ServiceMode::Coalesce) {
      ++irq_due_;
      maybe_flush();
    } else {
      pump_service();
    }
  }
}

void RxDatapath::finish_service(Waiting w) {
  if (sim_.now() < service_ready_at_) {
    // TEST-ONLY livelock: interrupt storms keep postponing the bottom
    // half; re-arm at the current horizon.
    sim_.at(service_ready_at_, [this, w] { finish_service(w); });
    return;
  }
  ++st_.delivered;
  flows_.delivered(w.flow);
  const Picos now = sim_.now();
  latency_.add(static_cast<std::uint64_t>(now - w.t_arr));
  if (trace_) {
    trace_->record({w.t_arr, now - w.t_arr, 0, w.flow, frame_,
                    obs::EventKind::FrameDelivered, obs::Component::Device,
                    0});
  }
  ++returned_;
  st_.in_service = 0;
  service_busy_ = false;
  last_delivery_ = now;
  rx_.recycle(returned_);
  rx_.fetch();
  pump_service();
  maybe_flush();
}

void RxDatapath::pump_service() {
  if (service_busy_ || !host_awake_) return;
  if (backlog_.empty()) {
    // Coalesced host goes back to sleep until the next MSI wakes it.
    if (cfg_.service == ServiceMode::Coalesce) host_awake_ = false;
    return;
  }
  service_busy_ = true;
  st_.in_service = 1;
  const Waiting w = backlog_.front();
  backlog_.pop_front();
  st_.backlog = backlog_.size();
  sim_.after(OverloadConfig::kHostService, [this, w] { finish_service(w); });
}

void RxDatapath::raise_irq() {
  if (irq_pending_ || host_awake_) {
    if (cfg_.test_livelock_bug) {
      // Broken moderation: the storm keeps hammering MSIs and each one
      // postpones in-progress service by the interrupt cost.
      ++st_.irqs;
      dev_.dma_write(msi_addr_, kPointerBytes, {});
      service_ready_at_ = std::max(service_ready_at_,
                                   sim_.now() + OverloadConfig::kIrqCost);
    }
    return;
  }
  irq_pending_ = true;
  irq_due_ = 0;
  ++st_.irqs;
  dev_.dma_write(msi_addr_, kPointerBytes, [this] {
    sim_.after(OverloadConfig::kIrqCost, [this] { on_irq_wakeup(); });
  });
}

void RxDatapath::on_irq_wakeup() {
  irq_pending_ = false;
  host_awake_ = true;
  if (cfg_.test_livelock_bug) {
    service_ready_at_ = std::max(service_ready_at_,
                                 sim_.now() + OverloadConfig::kIrqCost);
  }
  pump_service();
}

void RxDatapath::maybe_flush() {
  if (cfg_.service != ServiceMode::Coalesce) return;
  if (host_awake_ || irq_pending_ || backlog_.empty()) return;
  // Moderation while load is sustained; an unconditional flush once
  // arrivals end, so the tail of the backlog can never strand.
  if (arrivals_done_ || irq_due_ >= OverloadConfig::kIrqModeration) {
    raise_irq();
  }
}

OverloadResult RxDatapath::run() {
  const Picos start = sim_.now();
  rx_.recycle(returned_);
  sim_.run();

  st_.ring_max_pending = rx_.max_pending();
  st_.backlog = backlog_.size();
  if (probe_ && probe_->on_quiesce) {
    probe_->on_quiesce(st_, flows_.stats(), sim_.now());
  }

  OverloadResult r;
  r.stats = st_;
  r.capacity_pps = cfg_.capacity_pps;
  r.flows = flows_.stats();
  r.latency = std::move(latency_);
  r.offered_pps = 1e12 / gen_.config().mean_gap_ps;
  const Picos t0 = first_arrival_ >= 0 ? first_arrival_ : start;
  r.elapsed = std::max<Picos>(last_delivery_ - t0, 0);
  if (r.elapsed > 0 && st_.delivered > 0) {
    r.goodput_pps = static_cast<double>(st_.delivered) / to_seconds(r.elapsed);
    r.goodput_gbps = r.goodput_pps * frame_ * 8.0 / 1e9;
  }
  return r;
}

}  // namespace

const char* to_string(ServiceMode m) {
  switch (m) {
    case ServiceMode::BusyPoll: return "poll";
    case ServiceMode::Coalesce: return "coalesce";
  }
  return "?";
}

ServiceMode parse_service_mode(const std::string& s) {
  if (s == "poll") return ServiceMode::BusyPoll;
  if (s == "coalesce") return ServiceMode::Coalesce;
  throw std::invalid_argument("service mode must be poll or coalesce, got '" +
                              s + "'");
}

void OverloadConfig::validate() const {
  if (frame_bytes < kMinFrame || frame_bytes > kMaxFrame) {
    throw std::invalid_argument("overload: frame_bytes out of [60, 1514]");
  }
  if (ring_slots < kDoorbellBatch) {
    throw std::invalid_argument("overload: ring_slots below the doorbell batch");
  }
  if (offered_load <= 0) {
    throw std::invalid_argument("overload: offered_load must be > 0");
  }
  if (frames == 0) throw std::invalid_argument("overload: zero frames");
  if (flows == 0) throw std::invalid_argument("overload: zero flows");
  if (burst_frames == 0) throw std::invalid_argument("overload: zero burst");
}

std::string OverloadResult::ledger() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "offered=%llu delivered=%llu mac=%llu ring=%llu admission=%llu "
                "pause_ps=%lld irqs=%llu",
                static_cast<unsigned long long>(stats.offered),
                static_cast<unsigned long long>(stats.delivered),
                static_cast<unsigned long long>(stats.dropped_mac),
                static_cast<unsigned long long>(stats.dropped_ring),
                static_cast<unsigned long long>(stats.dropped_admission),
                static_cast<long long>(stats.pause_ps),
                static_cast<unsigned long long>(stats.irqs));
  return buf;
}

void register_overload_counters(obs::CounterRegistry& reg,
                                const OverloadResult& result) {
  const OverloadStats s = result.stats;  // snapshot by value
  reg.add_counter("nic.overload.offered",
                  [s] { return static_cast<double>(s.offered); });
  reg.add_counter("nic.overload.delivered",
                  [s] { return static_cast<double>(s.delivered); });
  reg.add_counter("nic.overload.dropped.mac",
                  [s] { return static_cast<double>(s.dropped_mac); });
  reg.add_counter("nic.overload.dropped.ring",
                  [s] { return static_cast<double>(s.dropped_ring); });
  reg.add_counter("nic.overload.dropped.admission",
                  [s] { return static_cast<double>(s.dropped_admission); });
  reg.add_counter("nic.overload.pause.events",
                  [s] { return static_cast<double>(s.pause_events); });
  reg.add_counter("nic.overload.pause.ps",
                  [s] { return static_cast<double>(s.pause_ps); });
  reg.add_counter("nic.overload.irqs",
                  [s] { return static_cast<double>(s.irqs); });
  reg.add_gauge("nic.overload.ring.max_pending",
                [s] { return static_cast<double>(s.ring_max_pending); });
  reg.add_gauge("nic.overload.backlog.max",
                [s] { return static_cast<double>(s.backlog_max); });
}

std::uint64_t calibrate_capacity(const sim::SystemConfig& sys_cfg,
                                 const OverloadConfig& cfg) {
  cfg.validate();
  // Capacity is a property of the healthy path: strip faults/recovery —
  // and the planted livelock bug — so the scale a faulted or bugged
  // overload run is measured against stays stable.
  sim::SystemConfig clean = sys_cfg;
  clean.fault_plan = {};
  clean.recovery = {};
  OverloadConfig cal = cfg;
  cal.test_livelock_bug = false;
  sim::System system(clean);
  const OverloadResult r =
      RxDatapath(system, cal, /*probe=*/nullptr, /*calibrate=*/true).run();
  if (r.stats.delivered == 0 || r.elapsed <= 0) {
    throw std::runtime_error("overload calibration delivered no frames");
  }
  return static_cast<std::uint64_t>(static_cast<double>(r.stats.delivered) *
                                    1e12 / static_cast<double>(r.elapsed));
}

OverloadResult run_overload(sim::System& system, const OverloadConfig& cfg,
                            const OverloadProbe* probe) {
  cfg.validate();
  if (cfg.capacity_pps == 0) {
    throw std::invalid_argument(
        "run_overload: capacity_pps unset (run calibrate_capacity first)");
  }
  return RxDatapath(system, cfg, probe, /*calibrate=*/false).run();
}

OverloadResult run_overload_point(const sim::SystemConfig& sys_cfg,
                                  const OverloadConfig& cfg,
                                  const OverloadProbe* probe) {
  OverloadConfig run_cfg = cfg;
  if (run_cfg.capacity_pps == 0) {
    run_cfg.capacity_pps = calibrate_capacity(sys_cfg, cfg);
  }
  sim::System system(sys_cfg);
  OverloadResult r = run_overload(system, run_cfg, probe);
  return r;
}

}  // namespace pcieb::nic
