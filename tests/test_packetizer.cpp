#include "pcie/packetizer.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace pcieb::proto {
namespace {

std::uint64_t total_payload(const TlpVec& tlps) {
  return std::accumulate(tlps.begin(), tlps.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const Tlp& t) {
                           return acc + t.payload;
                         });
}

std::uint64_t total_requested(const TlpVec& tlps) {
  return std::accumulate(tlps.begin(), tlps.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const Tlp& t) {
                           return acc + t.read_len;
                         });
}

TEST(SegmentWrite, SingleTlpWhenWithinMps) {
  const LinkConfig cfg = gen3_x8();
  TlpVec tlps;
  segment_write(cfg, 0, 256, tlps);
  ASSERT_EQ(tlps.size(), 1u);
  EXPECT_EQ(tlps[0].payload, 256u);
  EXPECT_EQ(tlps[0].type, TlpType::MemWr);
}

TEST(SegmentWrite, SplitsAtMps) {
  const LinkConfig cfg = gen3_x8();
  TlpVec tlps;
  segment_write(cfg, 0, 257, tlps);
  ASSERT_EQ(tlps.size(), 2u);
  EXPECT_EQ(tlps[0].payload, 256u);
  EXPECT_EQ(tlps[1].payload, 1u);
  EXPECT_EQ(tlps[1].addr, 256u);
}

TEST(SegmentWrite, NeverCrosses4KBoundary) {
  const LinkConfig cfg = gen3_x8();
  TlpVec tlps;
  segment_write(cfg, 4096 - 100, 300, tlps);
  for (const auto& t : tlps) {
    const std::uint64_t first_page = t.addr / 4096;
    const std::uint64_t last_page = (t.addr + t.payload - 1) / 4096;
    EXPECT_EQ(first_page, last_page) << t.describe();
  }
  EXPECT_EQ(total_payload(tlps), 300u);
}

TEST(SegmentWrite, ZeroLengthThrows) {
  const LinkConfig cfg = gen3_x8();
  TlpVec tlps;
  EXPECT_THROW(segment_write(cfg, 0, 0, tlps), std::invalid_argument);
}

TEST(SegmentReadRequests, SplitsAtMrrs) {
  const LinkConfig cfg = gen3_x8();  // MRRS 512
  TlpVec reqs;
  segment_read_requests(cfg, 0, 2048, reqs);
  ASSERT_EQ(reqs.size(), 4u);
  for (const auto& r : reqs) {
    EXPECT_EQ(r.type, TlpType::MemRd);
    EXPECT_EQ(r.read_len, 512u);
    EXPECT_EQ(r.payload, 0u);
  }
  EXPECT_EQ(total_requested(reqs), 2048u);
}

TEST(SegmentReadRequests, TagsAreDistinct) {
  const LinkConfig cfg = gen3_x8();
  TlpVec reqs;
  segment_read_requests(cfg, 0, 2048, reqs);
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    EXPECT_NE(reqs[i].tag, reqs[i - 1].tag);
  }
}

TEST(SegmentCompletions, AlignedSingleRcbChunk) {
  const LinkConfig cfg = gen3_x8();
  TlpVec cpls;
  segment_completions(cfg, 0, 64, cpls);
  ASSERT_EQ(cpls.size(), 1u);
  EXPECT_EQ(cpls[0].payload, 64u);
}

TEST(SegmentCompletions, FirstCplEndsAtRcbBoundaryWhenUnaligned) {
  const LinkConfig cfg = gen3_x8();  // RCB 64
  TlpVec cpls;
  segment_completions(cfg, 0x10, 128, cpls);
  ASSERT_GE(cpls.size(), 2u);
  EXPECT_EQ(cpls[0].payload, 64u - 0x10);
  EXPECT_EQ((cpls[0].addr + cpls[0].payload) % cfg.rcb, 0u);
}

TEST(SegmentCompletions, UnalignedReadsCostExtraTlps) {
  // §3: "unaligned PCIe reads may generate additional TLPs".
  const LinkConfig cfg = gen3_x8();
  TlpVec aligned;
  TlpVec unaligned;
  segment_completions(cfg, 0, 512, aligned);
  segment_completions(cfg, 4, 512, unaligned);
  EXPECT_GT(unaligned.size(), aligned.size());
}

TEST(SegmentCompletions, ChunksBoundedByMps) {
  const LinkConfig cfg = gen3_x8();
  TlpVec cpls;
  segment_completions(cfg, 0, 4096, cpls);
  for (const auto& c : cpls) {
    EXPECT_LE(c.payload, cfg.mps);
  }
}

TEST(DmaBytes, WriteMatchesPaperEquation1) {
  // Btx = ceil(sz/MPS) * 24 + sz
  const LinkConfig cfg = gen3_x8();
  for (std::uint32_t sz : {64u, 256u, 257u, 512u, 1024u, 1500u, 2048u}) {
    const auto b = dma_write_bytes(cfg, 0, sz);
    const std::uint64_t expect = ((sz + cfg.mps - 1) / cfg.mps) * 24 + sz;
    EXPECT_EQ(b.upstream, expect) << "sz=" << sz;
    EXPECT_EQ(b.downstream, 0u);
  }
}

TEST(DmaBytes, ReadMatchesPaperEquations2And3) {
  // Btx = ceil(sz/MRRS) * 24; Brx = ceil(sz/MPS) * 20 + sz (aligned).
  const LinkConfig cfg = gen3_x8();
  for (std::uint32_t sz : {64u, 512u, 513u, 1024u, 2048u}) {
    const auto b = dma_read_bytes(cfg, 0, sz);
    EXPECT_EQ(b.upstream, ((sz + cfg.mrrs - 1) / cfg.mrrs) * 24ull) << sz;
    EXPECT_EQ(b.downstream, ((sz + cfg.mps - 1) / cfg.mps) * 20ull + sz) << sz;
  }
}

TEST(DmaBytes, MmioWriteIsDownstreamOnly) {
  const LinkConfig cfg = gen3_x8();
  const auto b = mmio_write_bytes(cfg, 4);
  EXPECT_EQ(b.downstream, 28u);  // 24 + 4
  EXPECT_EQ(b.upstream, 0u);
}

TEST(DmaBytes, MmioReadUsesBothDirections) {
  const LinkConfig cfg = gen3_x8();
  const auto b = mmio_read_bytes(cfg, 4);
  EXPECT_EQ(b.downstream, 24u);      // MRd request
  EXPECT_EQ(b.upstream, 20u + 4u);   // CplD with 4 B
}

// ---- property sweeps -------------------------------------------------------

struct SegCase {
  std::uint64_t addr;
  std::uint32_t len;
};

class SegmentationSweep : public ::testing::TestWithParam<SegCase> {};

TEST_P(SegmentationSweep, WriteConservesBytesAndRespectsMps) {
  const LinkConfig cfg = gen3_x8();
  const auto [addr, len] = GetParam();
  TlpVec tlps;
  segment_write(cfg, addr, len, tlps);
  EXPECT_EQ(total_payload(tlps), len);
  std::uint64_t expected_addr = addr;
  for (const auto& t : tlps) {
    EXPECT_LE(t.payload, cfg.mps);
    EXPECT_GT(t.payload, 0u);
    EXPECT_EQ(t.addr, expected_addr);  // contiguous, in order
    expected_addr += t.payload;
  }
}

TEST_P(SegmentationSweep, ReadRequestsConserveAndRespectMrrs) {
  const LinkConfig cfg = gen3_x8();
  const auto [addr, len] = GetParam();
  TlpVec reqs;
  segment_read_requests(cfg, addr, len, reqs);
  EXPECT_EQ(total_requested(reqs), len);
  for (const auto& r : reqs) {
    EXPECT_LE(r.read_len, cfg.mrrs);
    EXPECT_GT(r.read_len, 0u);
  }
}

TEST_P(SegmentationSweep, CompletionsConserveAndStayRcbCut) {
  const LinkConfig cfg = gen3_x8();
  const auto [addr, len] = GetParam();
  TlpVec cpls;
  segment_completions(cfg, addr, len, cpls);
  EXPECT_EQ(total_payload(cpls), len);
  // Every completion except the last ends on an RCB boundary.
  for (std::size_t i = 0; i + 1 < cpls.size(); ++i) {
    EXPECT_EQ((cpls[i].addr + cpls[i].payload) % cfg.rcb, 0u)
        << "i=" << i << " addr=" << addr << " len=" << len;
  }
}

TEST_P(SegmentationSweep, ReadByteTotalsConsistentAcrossApis) {
  const LinkConfig cfg = gen3_x8();
  const auto [addr, len] = GetParam();
  const auto b = dma_read_bytes(cfg, addr, len);
  std::uint64_t up = 0, down = 0;
  TlpVec reqs;
  TlpVec cpls;
  segment_read_requests(cfg, addr, len, reqs);
  for (const auto& r : reqs) {
    up += r.wire_bytes(cfg);
    segment_completions(cfg, r.addr, r.read_len, cpls);
    for (const auto& c : cpls) {
      down += c.wire_bytes(cfg);
    }
  }
  EXPECT_EQ(b.upstream, up);
  EXPECT_EQ(b.downstream, down);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SegmentationSweep,
    ::testing::Values(SegCase{0, 1}, SegCase{0, 8}, SegCase{0, 63},
                      SegCase{0, 64}, SegCase{0, 65}, SegCase{4, 64},
                      SegCase{60, 64}, SegCase{0, 255}, SegCase{0, 256},
                      SegCase{0, 257}, SegCase{0, 511}, SegCase{0, 512},
                      SegCase{0, 513}, SegCase{100, 1500}, SegCase{0, 2048},
                      SegCase{4090, 16}, SegCase{4095, 2}, SegCase{8191, 4097},
                      SegCase{0, 65536}));

}  // namespace
}  // namespace pcieb::proto
