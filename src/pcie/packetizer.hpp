// Segmentation of DMA operations into TLPs.
//
// Rules implemented (PCIe Base Spec 3.1):
//  * Memory writes are cut at MPS boundaries and must not cross 4 KB
//    address boundaries.
//  * Memory read requests are cut at MRRS boundaries and must not cross
//    4 KB address boundaries.
//  * Completions for one read request are cut so that the first CplD ends
//    at a Read Completion Boundary (RCB) aligned address, then subsequent
//    CplDs carry up to MPS bytes (MPS is a multiple of RCB). Unaligned
//    reads therefore cost extra completion TLPs — the effect the paper's
//    model explicitly does not capture but pcie-bench can measure via the
//    offset parameter.
//
// Each segmentation writes into a caller-owned, reusable TlpVec: the
// simulator's components keep one per segmentation site as a scratch
// buffer, so steady-state segmentation performs no allocations. The
// *_bytes totals are computed without materializing TLP sequences at all.
#pragma once

#include <cstdint>

#include "pcie/link_config.hpp"
#include "pcie/tlp.hpp"
#include "pcie/tlp_vec.hpp"

namespace pcieb::proto {

/// Byte totals a DMA op places on each link direction.
/// "Upstream" is device -> root complex, "downstream" the reverse.
struct DirectionBytes {
  std::uint64_t upstream = 0;
  std::uint64_t downstream = 0;
};

/// Split a device DMA write into MWr TLPs (upstream), replacing `out`'s
/// contents.
void segment_write(const LinkConfig& cfg, std::uint64_t addr,
                   std::uint32_t len, TlpVec& out);

/// Split a device DMA read into MRd request TLPs (upstream), replacing
/// `out`'s contents.
void segment_read_requests(const LinkConfig& cfg, std::uint64_t addr,
                           std::uint32_t len, TlpVec& out);

/// Completions generated for ONE read request (downstream), replacing
/// `out`'s contents.
void segment_completions(const LinkConfig& cfg, std::uint64_t addr,
                         std::uint32_t len, TlpVec& out);

/// Number of MRd TLPs segment_read_requests would emit, without building
/// them.
std::uint32_t count_read_requests(const LinkConfig& cfg, std::uint64_t addr,
                                  std::uint32_t len);

/// Wire bytes for a device DMA write of `len` at `addr`.
DirectionBytes dma_write_bytes(const LinkConfig& cfg, std::uint64_t addr,
                               std::uint32_t len);

/// Wire bytes for a device DMA read of `len` at `addr` (requests upstream,
/// completions downstream).
DirectionBytes dma_read_bytes(const LinkConfig& cfg, std::uint64_t addr,
                              std::uint32_t len);

/// Wire bytes for a host MMIO write to the device (small posted write,
/// downstream).
DirectionBytes mmio_write_bytes(const LinkConfig& cfg, std::uint32_t len);

/// Wire bytes for a host MMIO read from the device (request downstream,
/// completion upstream).
DirectionBytes mmio_read_bytes(const LinkConfig& cfg, std::uint32_t len);

}  // namespace pcieb::proto
