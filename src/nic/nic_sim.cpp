#include "nic/nic_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "nic/frame.hpp"
#include "nic/ring.hpp"

namespace pcieb::nic {
namespace {

/// Fixed buffer layout: rings and the MSI mailbox live in the first MB,
/// then a TX packet region and an RX packet region, each cycled through.
constexpr std::uint64_t kTxDescArea = 0;
constexpr std::uint64_t kRxDescArea = 256ull << 10;
constexpr std::uint64_t kMsiArea = 512ull << 10;
constexpr std::uint64_t kTxPktArea = 1ull << 20;
constexpr std::uint64_t kRxPktArea = 4ull << 20;

constexpr std::uint64_t kTxDoorbell = 0x10;
constexpr std::uint64_t kRxDoorbell = 0x20;
/// Status reads are full MRd/CplD round trips that occupy both link
/// directions.
constexpr std::uint64_t kStatusRegister = 0x30;

/// One closed-loop run: a saturating TX driver and line-rate RX arrivals
/// over the engine's TX ring and RX freelist, plus what the engine leaves
/// to the driver — TX completion on the wire, interrupts and status
/// reads. Every event and DMA callback captures only `this`.
class NicSimRun final : public NicPort {
 public:
  NicSimRun(sim::System& system, const NicSimConfig& cfg);

  NicSimResult run();

 private:
  void on_descriptors(Ring& ring) override;
  void pump_tx();
  void on_tx_sent();
  void on_rx_tick();
  void on_rx_written();
  void interrupt(std::uint32_t& due);

  sim::Simulator& sim_;
  const NicSimConfig& cfg_;
  const Picos frame_wire_;
  Ring tx_;
  Ring rx_;  ///< the freelist
  const std::uint64_t msi_addr_;

  std::uint64_t tx_sent_ = 0;
  std::uint32_t tx_irq_due_ = 0;
  Picos tx_last_ = 0;
  std::uint64_t rx_arrivals_ = 0;
  std::uint64_t rx_delivered_ = 0;
  std::uint64_t rx_dropped_ = 0;
  std::uint32_t rx_irq_due_ = 0;
  Picos rx_last_ = 0;
};

NicSimRun::NicSimRun(sim::System& system, const NicSimConfig& cfg)
    : NicPort(system),
      sim_(system.sim()),
      cfg_(cfg),
      frame_wire_(wire_time(cfg.frame_bytes)),
      tx_(*this,
          {kTxDescArea, kTxPktArea, kTxDoorbell, NicSimConfig::kRingSlots,
           cfg.desc_batch, cfg.tx_wb_batch, cfg.doorbell_batch}),
      rx_(*this,
          {kRxDescArea, kRxPktArea, kRxDoorbell, NicSimConfig::kRingSlots,
           cfg.desc_batch, cfg.rx_wb_batch, cfg.doorbell_batch}),
      msi_addr_(iova(kMsiArea)) {}

void NicSimRun::on_descriptors(Ring& ring) {
  if (&ring == &tx_) {
    tx_.refill(cfg_.packets);
    pump_tx();
  } else {
    rx_.recycle(rx_delivered_);
  }
}

void NicSimRun::pump_tx() {
  tx_.fetch();
  while (tx_.take()) {
    // Packet data on the NIC: serialize onto the wire.
    dev_.dma_read(tx_.next_buffer(), cfg_.frame_bytes, [this] {
      sim_.after(frame_wire_, [this] { on_tx_sent(); });
    });
  }
}

void NicSimRun::on_tx_sent() {
  ++tx_sent_;
  tx_last_ = sim_.now();
  tx_.write_back();
  interrupt(tx_irq_due_);
  tx_.refill(cfg_.packets);
  pump_tx();
}

void NicSimRun::on_rx_tick() {
  if (rx_arrivals_ >= cfg_.packets) return;
  ++rx_arrivals_;
  if (rx_.take()) {
    rx_.fetch();
    const std::uint64_t addr = rx_.next_buffer();
    dev_.dma_write(addr, cfg_.frame_bytes, [this] { on_rx_written(); });
  } else {
    ++rx_dropped_;  // freelist starved: the wire does not wait
  }
  sim_.after(frame_wire_, [this] { on_rx_tick(); });
}

void NicSimRun::on_rx_written() {
  ++rx_delivered_;
  rx_last_ = sim_.now();
  rx_.write_back();
  interrupt(rx_irq_due_);
  // The driver recycles delivered buffers back onto the freelist.
  rx_.recycle(rx_delivered_);
}

void NicSimRun::interrupt(std::uint32_t& due) {
  if (cfg_.irq_moderation == 0 || ++due < cfg_.irq_moderation) return;
  due = 0;
  dev_.dma_write(msi_addr_, kPointerBytes, {});
  if (cfg_.mmio_status_reads) {
    rc_.host_mmio_read(kStatusRegister, kPointerBytes, {});
  }
}

NicSimResult NicSimRun::run() {
  const Picos start = sim_.now();
  rx_.recycle(0);
  tx_.refill(cfg_.packets);
  sim_.after(frame_wire_, [this] { on_rx_tick(); });
  sim_.run();

  NicSimResult r;
  r.rx_dropped = rx_dropped_;
  r.tx_ring_max_pending = tx_.max_pending();
  r.rx_ring_max_pending = rx_.max_pending();
  const auto rate = [&](std::uint64_t n, Picos last, double& pps,
                        double& gbps) {
    const double elapsed_s = to_seconds(last - start);
    if (elapsed_s <= 0) return;
    pps = static_cast<double>(n) / elapsed_s;
    gbps = pps * cfg_.frame_bytes * 8.0 / 1e9;
  };
  rate(tx_sent_, tx_last_, r.tx_pps, r.tx_goodput_gbps);
  rate(rx_delivered_, rx_last_, r.rx_pps, r.rx_goodput_gbps);
  r.per_direction_goodput_gbps = std::min(r.tx_goodput_gbps, r.rx_goodput_gbps);
  return r;
}

}  // namespace

// The presets, as deltas from the modern defaults.
NicSimConfig NicSimConfig::simple() {
  return {.desc_batch = 1, .tx_wb_batch = 1, .rx_wb_batch = 1,
          .doorbell_batch = 1, .irq_moderation = 1, .mmio_status_reads = true};
}

NicSimConfig NicSimConfig::modern_kernel() {
  return {.doorbell_batch = 2, .irq_moderation = 4, .mmio_status_reads = true};
}

NicSimConfig NicSimConfig::modern_dpdk() {
  // Polling: no interrupts, no register reads.
  return {.doorbell_batch = 32};
}

void NicSimConfig::validate() const {
  if (frame_bytes < kMinFrame || frame_bytes > kMaxFrame) {
    throw std::invalid_argument("nic_sim: frame_bytes out of [60, 1514]");
  }
  if (desc_batch == 0 || tx_wb_batch == 0 || rx_wb_batch == 0 ||
      doorbell_batch == 0) {
    throw std::invalid_argument("nic_sim: zero batch size");
  }
  if (doorbell_batch > kRingSlots) {
    throw std::invalid_argument("nic_sim: doorbell_batch > ring slots");
  }
}

NicSimResult run_nic_sim(sim::System& system, const NicSimConfig& cfg) {
  cfg.validate();
  return NicSimRun(system, cfg).run();
}

}  // namespace pcieb::nic
