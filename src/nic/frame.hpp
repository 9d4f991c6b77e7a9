// Ethernet framing constants shared by the NIC substrate.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace pcieb::nic {

constexpr std::uint32_t kMinFrame = 60;    ///< minimum frame, FCS stripped
constexpr std::uint32_t kMaxFrame = 1514;  ///< standard MTU frame, FCS stripped
constexpr std::uint32_t kFcsBytes = 4;
constexpr std::uint32_t kPreambleSfd = 8;
constexpr std::uint32_t kInterFrameGap = 12;

/// Wire bytes consumed per frame whose DMA size is `frame_bytes`
/// (FCS stripped before DMA, so wire adds FCS + preamble + IFG = 24 B).
constexpr std::uint32_t wire_bytes(std::uint32_t frame_bytes) {
  return frame_bytes + kFcsBytes + kPreambleSfd + kInterFrameGap;
}

/// Every NIC model runs 40GbE.
constexpr double kWireGbps = 40.0;

/// Time one frame occupies the wire at `gbps`.
constexpr Picos wire_time(std::uint32_t frame_bytes, double gbps = kWireGbps) {
  return serialization_ps(wire_bytes(frame_bytes), gbps);
}

/// MAC/PHY pipeline latency through a loopback (ExaNIC-style).
constexpr Picos kMacLoop = from_nanos(40);

/// One frame's loopback trip: serialized out, through the MAC loop and
/// serialized back in.
constexpr Picos loop_time(std::uint32_t frame_bytes) {
  return kMacLoop + 2 * wire_time(frame_bytes);
}

}  // namespace pcieb::nic
