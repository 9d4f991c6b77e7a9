// The NIC descriptor-ring engine that nic/nic_sim (closed-loop TX and RX)
// and nic/overload (open-loop RX) drive.
//
// DescriptorRing models only the occupancy protocol (producer/consumer
// indices over a fixed number of slots). NicPort owns a port's 8 MB host
// buffer and the device's MMIO doorbell dispatch, both detached from the
// System when the port is destroyed. Ring adds, per ring, the driver's refill with one MMIO
// doorbell per batch, the NIC's descriptor fetch (desc_batch descriptors
// per DMA read, at most kMaxDescFetches in flight), write-back batching
// and the packet-buffer cursor. A driver derives from NicPort, keeps its
// own buffer layout and everything above the ring, and hears of fetched
// descriptors through on_descriptors().
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/host_buffer.hpp"
#include "sim/system.hpp"

namespace pcieb::nic {

class DescriptorRing {
 public:
  explicit DescriptorRing(std::uint32_t slots) : slots_(slots) {
    if (slots == 0) throw std::invalid_argument("DescriptorRing: zero slots");
  }

  /// Producer (driver on TX / freelist; device on RX completion) posts
  /// `n` descriptors. Returns how many actually fit.
  std::uint32_t post(std::uint32_t n) {
    const std::uint32_t fit = std::min(n, free_slots());
    tail_ += fit;
    max_pending_ = std::max(max_pending_, pending());
    return fit;
  }

  /// Consumer takes up to `n` descriptors; returns how many were taken.
  std::uint32_t consume(std::uint32_t n) {
    const std::uint32_t take = std::min(n, pending());
    head_ += take;
    return take;
  }

  std::uint32_t pending() const {
    return static_cast<std::uint32_t>(tail_ - head_);
  }
  std::uint32_t free_slots() const { return slots_ - pending(); }
  std::uint64_t total_posted() const { return tail_; }
  std::uint64_t total_consumed() const { return head_; }
  /// High-watermark occupancy over the ring's lifetime — what the
  /// bounded-occupancy overload monitor checks against the slot count.
  std::uint32_t max_pending() const { return max_pending_; }

 private:
  std::uint32_t slots_;
  std::uint32_t max_pending_ = 0;
  std::uint64_t tail_ = 0;  ///< producer index (monotonic)
  std::uint64_t head_ = 0;  ///< consumer index (monotonic)
};

constexpr std::uint32_t kDescriptorBytes = 16;
/// Doorbells, status registers and MSI mailboxes are pointer-sized.
constexpr std::uint32_t kPointerBytes = 4;
/// The NIC fetches descriptors for packet N+1 while packet N is in flight
/// (even the simple NIC's engine overlaps independent DMAs).
constexpr unsigned kMaxDescFetches = 8;

class Ring;

class NicPort {
 public:
  NicPort(const NicPort&) = delete;
  NicPort& operator=(const NicPort&) = delete;

 protected:
  explicit NicPort(sim::System& system);
  ~NicPort();  ///< detaches the buffer and the doorbell dispatch

  std::uint64_t iova(std::uint64_t offset) const {
    return buffer_.iova(offset);
  }

  sim::DmaDevice& dev_;
  sim::RootComplex& rc_;

 private:
  friend class Ring;

  /// A descriptor fetch landed: `ring` holds more resident descriptors.
  virtual void on_descriptors(Ring& ring) = 0;

  sim::System& system_;
  sim::HostBuffer buffer_;
  std::vector<Ring*> rings_;  ///< doorbell dispatch targets
};

/// Offsets are into the port's buffer; the packet region is 3 MB.
struct RingConfig {
  std::uint64_t desc_area, pkt_area, doorbell;
  std::uint32_t slots, desc_batch, wb_batch, doorbell_batch;
};

class Ring {
 public:
  Ring(NicPort& port, const RingConfig& cfg);
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  // ---- driver side ----
  /// Post descriptors in doorbell-batch groups, one MMIO doorbell each,
  /// while a group fits the ring and the total posted stays below
  /// `limit`; the group that reaches `limit` may be partial.
  void refill(std::uint64_t limit);
  /// Freelist refill: whole doorbell batches only, with at most a ring's
  /// worth of buffers out beyond the `returned` ones the host recycled.
  void recycle(std::uint64_t returned) {
    refill((returned + cfg_.slots) / cfg_.doorbell_batch *
           cfg_.doorbell_batch);
  }

  // ---- NIC side ----
  void fetch();  ///< fetch posted descriptors; each landed read calls back
  /// Use one fetched descriptor; false when none is resident.
  bool take() {
    if (resident_ == 0) return false;
    --resident_;
    return true;
  }
  /// IOVA of the next 2 KB packet buffer, cycling through the region.
  std::uint64_t next_buffer() {
    return port_.iova(cfg_.pkt_area + (cursor_++ * 2048) % (3ull << 20));
  }
  /// One completion; every wb_batch-th writes the batch back.
  void write_back() {
    if (++wb_due_ < cfg_.wb_batch) return;
    port_.dev_.dma_write(desc_iova_, wb_due_ * kDescriptorBytes, {});
    wb_due_ = 0;
  }

  std::uint64_t doorbell() const { return cfg_.doorbell; }
  std::uint32_t resident() const { return resident_; }
  std::uint32_t max_pending() const { return ring_.max_pending(); }

 private:
  NicPort& port_;
  const RingConfig cfg_;
  const std::uint64_t desc_iova_;
  DescriptorRing ring_;
  std::uint32_t resident_ = 0;  ///< fetched descriptors not yet used
  unsigned fetches_in_flight_ = 0;
  std::uint32_t wb_due_ = 0;
  std::uint64_t cursor_ = 0;
};

}  // namespace pcieb::nic
