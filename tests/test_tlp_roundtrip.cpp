// TLP header serialization property tests: pack_header/unpack_header is
// the identity over every TLP the packetizer produces across MPS, MRRS
// and RCB configurations, over randomized well-formed headers, and
// malformed buffers are rejected instead of trusted.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "pcie/packetizer.hpp"
#include "pcie/tlp.hpp"

namespace pcieb {
namespace {

using proto::CplStatus;
using proto::Tlp;
using proto::TlpType;

void expect_round_trip(const Tlp& t) {
  const auto buf = proto::pack_header(t);
  const Tlp back = proto::unpack_header(buf);
  EXPECT_EQ(back, t) << t.describe();
}

TEST(TlpRoundTrip, PacketizerOutputsAcrossConfigs) {
  proto::LinkConfig cfg;
  proto::TlpVec out;
  std::size_t tlps = 0;
  for (const unsigned mps : {128u, 256u, 512u}) {
    for (const unsigned rcb : {64u, 128u}) {
      for (const unsigned mrrs : {512u, 4096u}) {
        cfg.mps = mps;
        cfg.rcb = rcb;
        cfg.mrrs = mrrs;
        cfg.validate();
        // Offsets straddling RCB, MPS and 4 KB boundaries; sizes from a
        // single byte to multi-TLP bursts.
        for (const std::uint64_t addr :
             {std::uint64_t{0}, std::uint64_t{60}, std::uint64_t{0xFFC},
              std::uint64_t{0x10000} - 130}) {
          for (const std::uint32_t len : {1u, 64u, 257u, 1500u, 4096u}) {
            proto::segment_write(cfg, addr, len, out);
            for (auto& t : out) {
              expect_round_trip(t);
              ++tlps;
            }
            proto::segment_read_requests(cfg, addr, len, out);
            for (auto& t : out) {
              expect_round_trip(t);
              ++tlps;
            }
            proto::segment_completions(cfg, addr, len, out);
            for (auto& t : out) {
              expect_round_trip(t);
              ++tlps;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(tlps, 1000u);  // the sweep genuinely covered many shapes
}

TEST(TlpRoundTrip, RandomizedWellFormedHeaders) {
  Xoshiro256 rng(0x71f9);
  for (int i = 0; i < 2000; ++i) {
    Tlp t;
    t.type = static_cast<TlpType>(rng.below(4));
    t.addr = rng.next();
    t.tag = static_cast<std::uint32_t>(rng.next());
    t.poisoned = rng.below(2) != 0;
    t.func = static_cast<std::uint8_t>(rng.below(8));
    switch (t.type) {
      case TlpType::MemRd:
        t.read_len = 1 + static_cast<std::uint32_t>(rng.below(1 << 20));
        break;
      case TlpType::MemWr:
        t.payload = 1 + static_cast<std::uint32_t>(rng.below(1 << 20));
        break;
      case TlpType::CplD:
        t.payload = static_cast<std::uint32_t>(rng.below(1 << 20));
        t.cpl_status = static_cast<CplStatus>(rng.below(3));
        break;
      case TlpType::Cpl:
        t.cpl_status = static_cast<CplStatus>(rng.below(3));
        break;
    }
    expect_round_trip(t);
  }
}

Tlp valid_write() {
  Tlp t;
  t.type = TlpType::MemWr;
  t.addr = 0x1000;
  t.payload = 256;
  t.tag = 9;
  return t;
}

TEST(TlpRoundTrip, RejectsShortAndLongBuffers) {
  const auto buf = proto::pack_header(valid_write());
  EXPECT_THROW(proto::unpack_header(buf.data(), buf.size() - 1),
               std::invalid_argument);
  std::vector<std::uint8_t> longer(buf.begin(), buf.end());
  longer.push_back(0);
  EXPECT_THROW(proto::unpack_header(longer.data(), longer.size()),
               std::invalid_argument);
}

TEST(TlpRoundTrip, RejectsUnknownTypeAndReservedFlagBits) {
  auto buf = proto::pack_header(valid_write());
  buf[0] = 4;  // one past Cpl
  EXPECT_THROW(proto::unpack_header(buf), std::invalid_argument);

  buf = proto::pack_header(valid_write());
  buf[1] |= 0x08;  // reserved flag bit
  EXPECT_THROW(proto::unpack_header(buf), std::invalid_argument);
}

TEST(TlpRoundTrip, RejectsFieldCombinationsNoWellFormedTlpProduces) {
  // MRd carrying payload.
  Tlp rd;
  rd.type = TlpType::MemRd;
  rd.read_len = 64;
  auto buf = proto::pack_header(rd);
  buf[14] = 1;  // payload byte 0
  EXPECT_THROW(proto::unpack_header(buf), std::invalid_argument);

  // MWr with a read length.
  buf = proto::pack_header(valid_write());
  buf[18] = 1;
  EXPECT_THROW(proto::unpack_header(buf), std::invalid_argument);

  // Completion status bits on a request TLP.
  buf = proto::pack_header(valid_write());
  buf[1] |= (1u << 1);  // CplStatus::UR
  EXPECT_THROW(proto::unpack_header(buf), std::invalid_argument);

  // Cpl (no data) carrying payload.
  Tlp cpl;
  cpl.type = TlpType::Cpl;
  cpl.cpl_status = CplStatus::UR;
  buf = proto::pack_header(cpl);
  buf[14] = 4;
  EXPECT_THROW(proto::unpack_header(buf), std::invalid_argument);
}

TEST(TlpRoundTrip, PackRefusesMalformedTlps) {
  Tlp rd_with_payload;
  rd_with_payload.type = TlpType::MemRd;
  rd_with_payload.read_len = 64;
  rd_with_payload.payload = 8;
  EXPECT_THROW(proto::pack_header(rd_with_payload), std::invalid_argument);

  Tlp zero_len_read;
  zero_len_read.type = TlpType::MemRd;
  EXPECT_THROW(proto::pack_header(zero_len_read), std::invalid_argument);

  Tlp empty_write;
  empty_write.type = TlpType::MemWr;
  EXPECT_THROW(proto::pack_header(empty_write), std::invalid_argument);

  Tlp status_on_request = valid_write();
  status_on_request.cpl_status = CplStatus::CA;
  EXPECT_THROW(proto::pack_header(status_on_request), std::invalid_argument);
}

}  // namespace
}  // namespace pcieb
