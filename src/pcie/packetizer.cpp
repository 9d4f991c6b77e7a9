#include "pcie/packetizer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pcieb::proto {
namespace {

constexpr std::uint64_t k4K = 4096;

std::uint32_t bytes_to_boundary(std::uint64_t addr, std::uint64_t boundary) {
  return static_cast<std::uint32_t>(boundary - (addr % boundary));
}

void check_len(std::uint32_t len) {
  if (len == 0) throw std::invalid_argument("packetizer: zero-length DMA");
}

// The three cut rules, each written once as a loop over an emitter so the
// TlpVec, counting, and byte-totalling forms all share one definition and
// cannot drift apart.

template <typename Emit>
void emit_write(const LinkConfig& cfg, std::uint64_t addr, std::uint32_t len,
                Emit&& emit) {
  check_len(len);
  std::uint32_t tag = 0;
  while (len > 0) {
    std::uint32_t chunk = std::min<std::uint32_t>(len, cfg.mps);
    chunk = std::min(chunk, bytes_to_boundary(addr, k4K));
    emit(Tlp{TlpType::MemWr, addr, chunk, 0, tag++});
    addr += chunk;
    len -= chunk;
  }
}

template <typename Emit>
void emit_read_requests(const LinkConfig& cfg, std::uint64_t addr,
                        std::uint32_t len, Emit&& emit) {
  check_len(len);
  std::uint32_t tag = 0;
  while (len > 0) {
    std::uint32_t chunk = std::min<std::uint32_t>(len, cfg.mrrs);
    chunk = std::min(chunk, bytes_to_boundary(addr, k4K));
    emit(Tlp{TlpType::MemRd, addr, 0, chunk, tag++});
    addr += chunk;
    len -= chunk;
  }
}

template <typename Emit>
void emit_completions(const LinkConfig& cfg, std::uint64_t addr,
                      std::uint32_t len, Emit&& emit) {
  check_len(len);
  const std::uint32_t tag = 0;
  // An RCB-unaligned first completion must end at the next RCB boundary;
  // aligned ones may carry a full MPS. Subsequent completions carry up to
  // MPS bytes each (MPS is a multiple of RCB, so they stay RCB-cut).
  const std::uint32_t first =
      addr % cfg.rcb != 0
          ? std::min<std::uint32_t>(len, bytes_to_boundary(addr, cfg.rcb))
          : std::min<std::uint32_t>(len, cfg.mps);
  emit(Tlp{TlpType::CplD, addr, first, 0, tag});
  addr += first;
  len -= first;
  while (len > 0) {
    std::uint32_t chunk = std::min<std::uint32_t>(len, cfg.mps);
    emit(Tlp{TlpType::CplD, addr, chunk, 0, tag});
    addr += chunk;
    len -= chunk;
  }
}

}  // namespace

std::uint32_t count_read_requests(const LinkConfig& cfg, std::uint64_t addr,
                                  std::uint32_t len) {
  std::uint32_t n = 0;
  emit_read_requests(cfg, addr, len, [&n](const Tlp&) { ++n; });
  return n;
}

void segment_write(const LinkConfig& cfg, std::uint64_t addr,
                   std::uint32_t len, TlpVec& out) {
  out.clear();
  emit_write(cfg, addr, len, [&out](const Tlp& t) { out.push_back(t); });
}

void segment_read_requests(const LinkConfig& cfg, std::uint64_t addr,
                           std::uint32_t len, TlpVec& out) {
  out.clear();
  emit_read_requests(cfg, addr, len,
                     [&out](const Tlp& t) { out.push_back(t); });
}

void segment_completions(const LinkConfig& cfg, std::uint64_t addr,
                         std::uint32_t len, TlpVec& out) {
  out.clear();
  emit_completions(cfg, addr, len, [&out](const Tlp& t) { out.push_back(t); });
}

DirectionBytes dma_write_bytes(const LinkConfig& cfg, std::uint64_t addr,
                               std::uint32_t len) {
  DirectionBytes b;
  emit_write(cfg, addr, len,
             [&](const Tlp& tlp) { b.upstream += tlp.wire_bytes(cfg); });
  return b;
}

DirectionBytes dma_read_bytes(const LinkConfig& cfg, std::uint64_t addr,
                              std::uint32_t len) {
  DirectionBytes b;
  emit_read_requests(cfg, addr, len, [&](const Tlp& req) {
    b.upstream += req.wire_bytes(cfg);
    emit_completions(cfg, req.addr, req.read_len, [&](const Tlp& cpl) {
      b.downstream += cpl.wire_bytes(cfg);
    });
  });
  return b;
}

DirectionBytes mmio_write_bytes(const LinkConfig& cfg, std::uint32_t len) {
  check_len(len);
  DirectionBytes b;
  emit_write(cfg, 0, len,
             [&](const Tlp& tlp) { b.downstream += tlp.wire_bytes(cfg); });
  return b;
}

DirectionBytes mmio_read_bytes(const LinkConfig& cfg, std::uint32_t len) {
  check_len(len);
  DirectionBytes b;
  emit_read_requests(cfg, 0, len, [&](const Tlp& req) {
    b.downstream += req.wire_bytes(cfg);
    emit_completions(cfg, req.addr, req.read_len, [&](const Tlp& cpl) {
      b.upstream += cpl.wire_bytes(cfg);
    });
  });
  return b;
}

}  // namespace pcieb::proto
