// Packetizer properties across negotiated link configurations — MPS,
// MRRS, RCB, 32/64-bit addressing and ECRC all change the byte
// accounting; the §3 equations must generalize to every combination.
#include <gtest/gtest.h>

#include <numeric>

#include "pcie/bandwidth.hpp"
#include "pcie/packetizer.hpp"

namespace pcieb::proto {
namespace {

struct ConfigCase {
  unsigned mps;
  unsigned mrrs;
  unsigned rcb;
  bool addr64;
  bool ecrc;
};

LinkConfig make(const ConfigCase& c) {
  LinkConfig cfg = gen3_x8();
  cfg.mps = c.mps;
  cfg.mrrs = c.mrrs;
  cfg.rcb = c.rcb;
  cfg.addr64 = c.addr64;
  cfg.ecrc = c.ecrc;
  cfg.validate();
  return cfg;
}

class ConfigSweep : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ConfigSweep, WritesMatchEquationOne) {
  const LinkConfig cfg = make(GetParam());
  const unsigned hdr = overhead_bytes(TlpType::MemWr, cfg);
  for (std::uint32_t sz : {1u, 64u, 255u, 256u, 1000u, 4096u, 9000u}) {
    const auto b = dma_write_bytes(cfg, 0, sz);
    EXPECT_EQ(b.upstream, ((sz + cfg.mps - 1) / cfg.mps) * hdr + sz)
        << "sz=" << sz;
  }
}

TEST_P(ConfigSweep, ReadsMatchEquationsTwoAndThree) {
  const LinkConfig cfg = make(GetParam());
  const unsigned rd_hdr = overhead_bytes(TlpType::MemRd, cfg);
  const unsigned cpl_hdr = overhead_bytes(TlpType::CplD, cfg);
  for (std::uint32_t sz : {64u, 500u, 512u, 2048u, 8192u}) {
    const auto b = dma_read_bytes(cfg, 0, sz);
    EXPECT_EQ(b.upstream, ((sz + cfg.mrrs - 1) / cfg.mrrs) * rd_hdr) << sz;
    // Aligned reads: ceil(chunk/MPS) completions per MRRS chunk.
    std::uint64_t cpls = 0;
    for (std::uint32_t left = sz; left > 0;) {
      const std::uint32_t chunk = std::min(left, cfg.mrrs);
      cpls += (chunk + cfg.mps - 1) / cfg.mps;
      left -= chunk;
    }
    EXPECT_EQ(b.downstream, cpls * cpl_hdr + sz) << sz;
  }
}

TEST_P(ConfigSweep, SegmentationConservesBytes) {
  const LinkConfig cfg = make(GetParam());
  for (std::uint64_t addr : {0ull, 7ull, 63ull, 4093ull}) {
    for (std::uint32_t sz : {1u, 64u, 513u, 4097u}) {
      TlpVec tlps;
      std::uint64_t wr = 0;
      segment_write(cfg, addr, sz, tlps);
      for (const auto& t : tlps) wr += t.payload;
      EXPECT_EQ(wr, sz);
      std::uint64_t rd = 0;
      segment_read_requests(cfg, addr, sz, tlps);
      for (const auto& t : tlps) rd += t.read_len;
      EXPECT_EQ(rd, sz);
      std::uint64_t cpl = 0;
      segment_completions(cfg, addr, sz, tlps);
      for (const auto& t : tlps) cpl += t.payload;
      EXPECT_EQ(cpl, sz);
    }
  }
}

TEST_P(ConfigSweep, CompletionsRespectRcbAndMps) {
  const LinkConfig cfg = make(GetParam());
  for (std::uint64_t addr : {0ull, 4ull, 60ull, 100ull}) {
    TlpVec cpls;
    segment_completions(cfg, addr, 4096, cpls);
    for (std::size_t i = 0; i < cpls.size(); ++i) {
      EXPECT_LE(cpls[i].payload, cfg.mps);
      if (i + 1 < cpls.size()) {
        EXPECT_EQ((cpls[i].addr + cpls[i].payload) % cfg.rcb, 0u)
            << "addr=" << addr << " i=" << i;
      }
    }
  }
}

TEST_P(ConfigSweep, EffectiveBandwidthOrderingHolds) {
  const LinkConfig cfg = make(GetParam());
  for (std::uint32_t sz : {64u, 256u, 1024u}) {
    const double rdwr = effective_rdwr_gbps(cfg, sz);
    EXPECT_LT(rdwr, effective_write_gbps(cfg, sz));
    EXPECT_LE(rdwr, effective_read_gbps(cfg, sz) + 1e-9);
    EXPECT_LT(effective_write_gbps(cfg, sz), cfg.tlp_gbps());
  }
}

TEST_P(ConfigSweep, EcrcAndAddr32ShiftGoodputTheRightWay) {
  ConfigCase base_case = GetParam();
  base_case.ecrc = false;
  base_case.addr64 = true;
  const LinkConfig base = make(base_case);

  ConfigCase with_ecrc = base_case;
  with_ecrc.ecrc = true;
  EXPECT_LT(effective_write_gbps(make(with_ecrc), 256),
            effective_write_gbps(base, 256));

  ConfigCase addr32 = base_case;
  addr32.addr64 = false;
  EXPECT_GT(effective_write_gbps(make(addr32), 256),
            effective_write_gbps(base, 256));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConfigSweep,
    ::testing::Values(ConfigCase{128, 128, 64, true, false},
                      ConfigCase{128, 512, 64, true, false},
                      ConfigCase{256, 512, 64, true, false},   // the paper's
                      ConfigCase{256, 512, 128, true, false},
                      ConfigCase{256, 4096, 64, true, false},
                      ConfigCase{512, 512, 64, false, false},
                      ConfigCase{512, 1024, 128, true, true},
                      ConfigCase{1024, 4096, 128, false, true},
                      ConfigCase{4096, 4096, 128, true, false}));

}  // namespace
}  // namespace pcieb::proto
