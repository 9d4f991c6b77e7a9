// Host-side DMA buffer, as the kernel drivers of §5.3 set it up: a
// logically contiguous IOVA range backed by physically contiguous chunks
// (4 MB by default, the largest reliably contiguous allocation on stock
// Linux; hugetlbfs-style 2 MB / 1 GB pages are the superpage options), on
// a selectable NUMA node.
//
// Physical chunk placement is scattered pseudo-randomly so cache sets are
// exercised the way scattered kernel allocations exercise them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace pcieb::sim {

struct BufferConfig {
  std::uint64_t size_bytes = 64ull << 20;
  std::uint64_t chunk_bytes = 4ull << 20;  ///< physically contiguous unit
  std::uint64_t page_bytes = 4096;         ///< backing page size (IOMMU granule)
  bool local = true;                       ///< on the device's NUMA node?
  /// Device-visible base address. Give each device's buffer a distinct
  /// base in multi-device setups so they do not alias in caches/IO-TLB.
  std::uint64_t base_iova = 0x4000'0000ull;
  std::uint64_t seed = 0x9e3779b9;
};

class HostBuffer {
 public:
  explicit HostBuffer(const BufferConfig& cfg);

  /// Device-visible address of a byte offset (the IOVA the DMA targets).
  std::uint64_t iova(std::uint64_t offset) const;

  /// Device-visible address of the window [offset, offset + len). Throws
  /// std::out_of_range unless the whole window lies inside the buffer.
  std::uint64_t window_iova(std::uint64_t offset, std::uint64_t len) const;

  /// Host physical address backing the offset (indexes caches/DRAM).
  std::uint64_t phys(std::uint64_t offset) const;

  /// True if `addr` (an IOVA) falls inside this buffer.
  bool contains_iova(std::uint64_t addr) const;

  /// Translate an IOVA back to the physical address (identity within a
  /// chunk). Throws if outside the buffer.
  std::uint64_t iova_to_phys(std::uint64_t addr) const;

  std::uint64_t size() const { return cfg_.size_bytes; }
  bool local() const { return cfg_.local; }
  std::uint64_t page_bytes() const { return cfg_.page_bytes; }
  std::uint64_t base_iova() const { return base_iova_; }

 private:
  BufferConfig cfg_;
  std::uint64_t base_iova_;
  std::vector<std::uint64_t> chunk_phys_;  ///< physical base per chunk
};

}  // namespace pcieb::sim
