#include "sim/host_buffer.hpp"

#include <stdexcept>

namespace pcieb::sim {

HostBuffer::HostBuffer(const BufferConfig& cfg)
    : cfg_(cfg), base_iova_(cfg.base_iova) {
  if (cfg_.size_bytes == 0 || cfg_.chunk_bytes == 0 || cfg_.page_bytes == 0) {
    throw std::invalid_argument("BufferConfig: zero sizes");
  }
  if (cfg_.chunk_bytes % cfg_.page_bytes != 0 &&
      cfg_.page_bytes % cfg_.chunk_bytes != 0) {
    throw std::invalid_argument("BufferConfig: chunk/page sizes incompatible");
  }
  const std::uint64_t chunks =
      (cfg_.size_bytes + cfg_.chunk_bytes - 1) / cfg_.chunk_bytes;
  chunk_phys_.reserve(chunks);
  Xoshiro256 rng(cfg_.seed);
  // Scatter chunks across a 1 TB physical window, chunk-aligned; the
  // region above 2^41 stays reserved for "foreign" traffic so benchmark
  // addresses never collide with thrash lines.
  const std::uint64_t slots = (1ull << 40) / cfg_.chunk_bytes;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    chunk_phys_.push_back((rng.below(slots) + 1) * cfg_.chunk_bytes);
  }
}

std::uint64_t HostBuffer::iova(std::uint64_t offset) const {
  if (offset >= cfg_.size_bytes) {
    throw std::out_of_range("HostBuffer::iova: offset beyond buffer");
  }
  return base_iova_ + offset;
}

std::uint64_t HostBuffer::window_iova(std::uint64_t offset,
                                      std::uint64_t len) const {
  // Two comparisons instead of offset + len, which could wrap.
  if (offset > cfg_.size_bytes || len > cfg_.size_bytes - offset) {
    throw std::out_of_range("HostBuffer::window_iova: window beyond buffer");
  }
  return base_iova_ + offset;
}

std::uint64_t HostBuffer::phys(std::uint64_t offset) const {
  if (offset >= cfg_.size_bytes) {
    throw std::out_of_range("HostBuffer::phys: offset beyond buffer");
  }
  return chunk_phys_[offset / cfg_.chunk_bytes] + offset % cfg_.chunk_bytes;
}

bool HostBuffer::contains_iova(std::uint64_t addr) const {
  return addr >= base_iova_ && addr < base_iova_ + cfg_.size_bytes;
}

std::uint64_t HostBuffer::iova_to_phys(std::uint64_t addr) const {
  if (!contains_iova(addr)) {
    throw std::out_of_range("HostBuffer::iova_to_phys: address outside buffer");
  }
  return phys(addr - base_iova_);
}

}  // namespace pcieb::sim
