#include "nic/ring.hpp"

#include "pcie/tlp.hpp"

namespace pcieb::nic {

NicPort::NicPort(sim::System& system)
    : dev_(system.device()),
      rc_(system.root_complex()),
      system_(system),
      buffer_(sim::BufferConfig{.size_bytes = 8ull << 20}) {
  system.attach_buffer(&buffer_);
  system.thrash_cache();
  system.warm_host(buffer_, 0, 1ull << 20);  // rings and mailboxes warm
  // Doorbells are posted writes host->device, routed through the real
  // MMIO path (root complex -> downstream link -> device CSR handler).
  dev_.set_mmio_handler([this](const proto::Tlp& tlp, bool is_write) {
    if (!is_write) return;  // register reads have no side effects here
    for (Ring* ring : rings_) {
      if (tlp.addr == ring->doorbell()) ring->fetch();
    }
  });
}

NicPort::~NicPort() {
  dev_.set_mmio_handler({});
  system_.attach_buffer(nullptr);
}

Ring::Ring(NicPort& port, const RingConfig& cfg)
    : port_(port),
      cfg_(cfg),
      desc_iova_(port.iova(cfg.desc_area)),
      ring_(cfg.slots) {
  port_.rings_.push_back(this);
}

void Ring::refill(std::uint64_t limit) {
  while (ring_.total_posted() < limit &&
         ring_.free_slots() >= cfg_.doorbell_batch) {
    ring_.post(static_cast<std::uint32_t>(std::min<std::uint64_t>(
        cfg_.doorbell_batch, limit - ring_.total_posted())));
    port_.rc_.host_mmio_write(cfg_.doorbell, kPointerBytes);
  }
}

void Ring::fetch() {
  while (fetches_in_flight_ < kMaxDescFetches && ring_.pending() > 0) {
    const std::uint32_t n = std::min(cfg_.desc_batch, ring_.pending());
    ring_.consume(n);
    ++fetches_in_flight_;
    port_.dev_.dma_read(desc_iova_, n * kDescriptorBytes, [this, n] {
      resident_ += n;
      --fetches_in_flight_;
      port_.on_descriptors(*this);
    });
  }
}

}  // namespace pcieb::nic
