#include "sim/device.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pcieb::sim {
namespace {

/// Harness that plays the host side: reflects read requests back as
/// completions after a fixed delay and counts writes.
struct Fixture {
  proto::LinkConfig link_cfg = proto::gen3_x8();
  Simulator sim;
  Link upstream{sim, link_cfg, from_nanos(100)};
  Link downstream{sim, link_cfg, from_nanos(100)};
  DeviceProfile profile;
  DmaDevice dev;
  std::vector<proto::Tlp> host_received;
  Picos host_latency = from_nanos(50);

  explicit Fixture(DeviceProfile p = DeviceProfile::netfpga_sume())
      : profile(p), dev(sim, p, link_cfg, upstream) {
    upstream.set_deliver([this](const proto::Tlp& t) {
      host_received.push_back(t);
      if (t.type == proto::TlpType::MemRd) {
        sim.after(host_latency, [this, t] {
          proto::TlpVec cpls;
          proto::segment_completions(link_cfg, t.addr, t.read_len, cpls);
          for (auto cpl : cpls) {
            cpl.tag = t.tag;
            downstream.send(cpl);
          }
        });
      } else if (t.type == proto::TlpType::MemWr) {
        // Immediate commit: return posted credits.
        sim.after(host_latency, [this, t] {
          dev.grant_posted_credits(t.payload);
        });
      }
    });
    downstream.set_deliver([this](const proto::Tlp& t) { dev.on_downstream(t); });
  }
};

TEST(DmaDeviceTest, ReadCompletes) {
  Fixture f;
  Picos done = -1;
  f.dev.dma_read(0x1000, 64, [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(f.dev.reads_completed(), 1u);
  ASSERT_EQ(f.host_received.size(), 1u);
  EXPECT_EQ(f.host_received[0].type, proto::TlpType::MemRd);
}

TEST(DmaDeviceTest, LargeReadSplitsAtMrrs) {
  Fixture f;
  int done = 0;
  f.dev.dma_read(0, 2048, [&] { ++done; });
  f.sim.run();
  EXPECT_EQ(done, 1);  // one DMA completion for the whole transfer
  EXPECT_EQ(f.host_received.size(), 4u);  // 4 MRd requests at MRRS 512
}

TEST(DmaDeviceTest, WriteEmitsTlps) {
  Fixture f;
  Picos queued = -1;
  f.dev.dma_write(0x2000, 600, [&] { queued = f.sim.now(); });
  f.sim.run();
  EXPECT_GT(queued, 0);
  EXPECT_EQ(f.host_received.size(), 3u);  // 256+256+88 at MPS 256
  EXPECT_EQ(f.dev.writes_sent(), 3u);
}

TEST(DmaDeviceTest, ZeroLengthThrows) {
  Fixture f;
  EXPECT_THROW(f.dev.dma_read(0, 0, {}), std::invalid_argument);
  EXPECT_THROW(f.dev.dma_write(0, 0, {}), std::invalid_argument);
}

TEST(DmaDeviceTest, CmdIfRejectedWhenUnavailable) {
  Fixture f;  // NetFPGA profile: no command interface
  EXPECT_THROW(f.dev.dma_read(0, 8, {}, /*use_cmd_if=*/true),
               std::invalid_argument);
}

TEST(DmaDeviceTest, CmdIfRejectedAboveLimit) {
  Fixture f(DeviceProfile::nfp6000());  // cmd IF up to 128 B
  EXPECT_THROW(f.dev.dma_read(0, 256, {}, true), std::invalid_argument);
  EXPECT_NO_THROW(f.dev.dma_read(0, 128, {}, true));
  f.sim.run();
}

TEST(DmaDeviceTest, CmdIfIsFasterThanDescriptorPath) {
  Fixture a(DeviceProfile::nfp6000());
  Picos desc_done = -1;
  a.dev.dma_read(0, 64, [&] { desc_done = a.sim.now(); });
  a.sim.run();

  Fixture b(DeviceProfile::nfp6000());
  Picos cmd_done = -1;
  b.dev.dma_read(0, 64, [&] { cmd_done = b.sim.now(); }, true);
  b.sim.run();
  EXPECT_LT(cmd_done, desc_done);
}

TEST(DmaDeviceTest, ReadTagsLimitConcurrency) {
  DeviceProfile p = DeviceProfile::netfpga_sume();
  p.read_tags = 2;
  Fixture f(p);
  f.host_latency = from_nanos(10000);  // long completions hold tags
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    f.dev.dma_read(static_cast<std::uint64_t>(i) * 4096, 64, [&] { ++done; });
  }
  // Run a slice long enough for issue but shorter than completion.
  f.sim.run_until(from_nanos(5000));
  EXPECT_EQ(f.host_received.size(), 2u);  // only 2 tags' worth issued
  EXPECT_EQ(f.dev.read_tags_in_use(), 2u);
  f.sim.run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(f.dev.read_tags_in_use(), 0u);
}

TEST(DmaDeviceTest, PostedCreditsThrottleWrites) {
  DeviceProfile p = DeviceProfile::netfpga_sume();
  p.posted_credit_bytes = 256;
  Fixture f(p);
  f.host_latency = from_nanos(10000);  // credits return slowly
  int queued = 0;
  for (int i = 0; i < 4; ++i) {
    f.dev.dma_write(static_cast<std::uint64_t>(i) * 4096, 128, [&] { ++queued; });
  }
  f.sim.run_until(from_nanos(5000));
  EXPECT_EQ(f.host_received.size(), 2u);  // 2 x 128 B fills the window
  f.sim.run();
  EXPECT_EQ(queued, 4);
}

TEST(DmaDeviceTest, CreditOverflowThrows) {
  Fixture f;
  EXPECT_THROW(f.dev.grant_posted_credits(1), std::logic_error);
}

TEST(DmaDeviceTest, UnknownCompletionTagCountedAndDropped) {
  // A stray completion must never take the device down — it is counted
  // and discarded (tags are monotonic, so nothing can be misdelivered).
  Fixture f;
  proto::Tlp bogus{proto::TlpType::CplD, 0, 64, 0, 999};
  EXPECT_NO_THROW(f.dev.on_downstream(bogus));
  EXPECT_EQ(f.dev.unexpected_completions(), 1u);
  EXPECT_EQ(f.dev.reads_completed(), 0u);
}

TEST(DmaDeviceTest, StagingDelaysReadCompletion) {
  DeviceProfile with = DeviceProfile::nfp6000();
  DeviceProfile without = with;
  without.staging_gbps = 0.0;
  without.staging_base = 0;

  Fixture a(with);
  Picos t_with = -1;
  a.dev.dma_read(0, 2048, [&] { t_with = a.sim.now(); });
  a.sim.run();

  Fixture b(without);
  Picos t_without = -1;
  b.dev.dma_read(0, 2048, [&] { t_without = b.sim.now(); });
  b.sim.run();
  EXPECT_GT(t_with, t_without);
  EXPECT_EQ(t_with - t_without, with.staging_delay(2048));
}

TEST(DeviceProfileTest, PresetsMatchPaperDescriptions) {
  const auto nfp = DeviceProfile::nfp6000();
  EXPECT_GT(nfp.dma_enqueue, 0);                       // enqueue FIFO
  EXPECT_EQ(nfp.cmd_if_max_bytes, 128u);               // §5.1
  EXPECT_EQ(nfp.timestamp_resolution, from_nanos(19.2));
  const auto netfpga = DeviceProfile::netfpga_sume();
  EXPECT_EQ(netfpga.dma_enqueue, 0);                   // no FIFO (§5.2)
  EXPECT_EQ(netfpga.timestamp_resolution, from_nanos(4));
  EXPECT_EQ(netfpga.staging_gbps, 0.0);
}

TEST(DeviceProfileTest, StagingDelayScalesWithSize) {
  const auto nfp = DeviceProfile::nfp6000();
  EXPECT_GT(nfp.staging_delay(2048), nfp.staging_delay(64));
  DeviceProfile none = DeviceProfile::netfpga_sume();
  EXPECT_EQ(none.staging_delay(4096), 0);
}

}  // namespace
}  // namespace pcieb::sim
