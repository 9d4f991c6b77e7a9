#include "sim/iommu.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/plan.hpp"

namespace pcieb::sim {
namespace {

IommuConfig enabled_cfg() {
  IommuConfig cfg;
  cfg.enabled = true;
  cfg.tlb_entries = 4;
  cfg.page_bytes = 4096;
  cfg.walkers = 2;
  cfg.walk_latency = from_nanos(330);
  cfg.walk_occupancy_read = from_nanos(330);
  cfg.walk_occupancy_write = from_nanos(165);
  return cfg;
}

Picos translate_at(Simulator& sim, Iommu& iommu, std::uint64_t addr,
                   bool is_write = false) {
  Picos done = -1;
  iommu.translate(addr, is_write, [&] { done = sim.now(); });
  sim.run();
  return done;
}

TEST(IommuTest, DisabledIsFree) {
  Simulator sim;
  Iommu iommu(sim, IommuConfig{});
  EXPECT_EQ(translate_at(sim, iommu, 0x1234), 0);
  EXPECT_EQ(iommu.tlb_misses(), 0u);
}

TEST(IommuTest, FirstAccessWalks) {
  Simulator sim;
  Iommu iommu(sim, enabled_cfg());
  EXPECT_EQ(translate_at(sim, iommu, 0x1000), from_nanos(330));
  EXPECT_EQ(iommu.tlb_misses(), 1u);
}

TEST(IommuTest, SecondAccessSamePageHits) {
  Simulator sim;
  Iommu iommu(sim, enabled_cfg());
  translate_at(sim, iommu, 0x1000);
  const Picos before = sim.now();
  Picos done = -1;
  iommu.translate(0x1a00, false, [&] { done = sim.now(); });  // same page
  sim.run();
  EXPECT_EQ(done, before);  // no walk, no added latency
  EXPECT_EQ(iommu.tlb_hits(), 1u);
}

TEST(IommuTest, LruEviction) {
  Simulator sim;
  Iommu iommu(sim, enabled_cfg());  // 4 entries
  for (std::uint64_t p = 0; p < 5; ++p) {
    translate_at(sim, iommu, p * 4096);  // fills and evicts page 0
  }
  iommu.reset_stats();
  translate_at(sim, iommu, 0);  // page 0 was evicted
  EXPECT_EQ(iommu.tlb_misses(), 1u);
  iommu.reset_stats();
  translate_at(sim, iommu, 4 * 4096);  // page 4 still resident
  EXPECT_EQ(iommu.tlb_hits(), 1u);
}

TEST(IommuTest, LruRefreshOnHit) {
  Simulator sim;
  Iommu iommu(sim, enabled_cfg());
  for (std::uint64_t p = 0; p < 4; ++p) translate_at(sim, iommu, p * 4096);
  translate_at(sim, iommu, 0);           // refresh page 0
  translate_at(sim, iommu, 100 * 4096);  // evicts page 1 (now LRU), not 0
  iommu.reset_stats();
  translate_at(sim, iommu, 0);
  EXPECT_EQ(iommu.tlb_hits(), 1u);
  iommu.reset_stats();
  translate_at(sim, iommu, 4096);
  EXPECT_EQ(iommu.tlb_misses(), 1u);
}

TEST(IommuTest, WalkerPoolBoundsThroughput) {
  Simulator sim;
  Iommu iommu(sim, enabled_cfg());  // 2 walkers, 330 ns occupancy
  int done = 0;
  for (std::uint64_t p = 0; p < 6; ++p) {
    iommu.translate(p * 4096, false, [&] { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 6);
  // 6 misses on 2 walkers at 330 ns -> three serialized rounds.
  EXPECT_EQ(sim.now(), from_nanos(3 * 330));
}

TEST(IommuTest, WriteWalksOccupyLess) {
  // Writes hold a walker for half the time, so a stream of write misses
  // finishes sooner than the same stream of read misses.
  Simulator sim_rd;
  Iommu iommu_rd(sim_rd, enabled_cfg());
  for (std::uint64_t p = 0; p < 8; ++p) {
    iommu_rd.translate(p * 4096, false, [] {});
  }
  sim_rd.run();

  Simulator sim_wr;
  Iommu iommu_wr(sim_wr, enabled_cfg());
  for (std::uint64_t p = 0; p < 8; ++p) {
    iommu_wr.translate(p * 4096, true, [] {});
  }
  sim_wr.run();
  EXPECT_LT(sim_wr.now(), sim_rd.now());
}

TEST(IommuTest, SuperpagesCollapseFootprint) {
  IommuConfig cfg = enabled_cfg();
  cfg.page_bytes = 2ull << 20;  // 2 MB superpages
  Simulator sim;
  Iommu iommu(sim, cfg);
  // 64 distinct 4 KB-page addresses inside one superpage: one walk total.
  for (std::uint64_t p = 0; p < 64; ++p) translate_at(sim, iommu, p * 4096);
  EXPECT_EQ(iommu.tlb_misses(), 1u);
  EXPECT_EQ(iommu.tlb_hits(), 63u);
}

TEST(IommuTest, FlushForcesRewalk) {
  Simulator sim;
  Iommu iommu(sim, enabled_cfg());
  translate_at(sim, iommu, 0x1000);
  iommu.flush_tlb();
  iommu.reset_stats();
  translate_at(sim, iommu, 0x1000);
  EXPECT_EQ(iommu.tlb_misses(), 1u);
}

TEST(IommuTest, EnabledZeroStructuresThrow) {
  IommuConfig cfg = enabled_cfg();
  cfg.tlb_entries = 0;
  Simulator sim;
  EXPECT_THROW(Iommu(sim, cfg), std::invalid_argument);
}

TEST(IommuTest, ConcurrentMissesOnSamePageInsertOnce) {
  Simulator sim;
  Iommu iommu(sim, enabled_cfg());
  int done = 0;
  iommu.translate(0x1000, false, [&] { ++done; });
  iommu.translate(0x1000, false, [&] { ++done; });  // racing walk, same page
  sim.run();
  EXPECT_EQ(done, 2);
  iommu.reset_stats();
  translate_at(sim, iommu, 0x1000);
  EXPECT_EQ(iommu.tlb_hits(), 1u);
}

// --- Multi-domain (SR-IOV) tests: docs/ISOLATION.md -----------------------

void translate_dom(Simulator& sim, Iommu& iommu, unsigned domain,
                   std::uint64_t addr) {
  bool ok = false;
  iommu.translate_checked(addr, /*is_write=*/false, domain,
                          [&](bool o) { ok = o; });
  sim.run();
  EXPECT_TRUE(ok);
}

TEST(IommuDomainTest, PerDomainHitMissAccounting) {
  Simulator sim;
  Iommu iommu(sim, enabled_cfg());
  iommu.configure_domains(2, /*partitioned=*/true);
  translate_dom(sim, iommu, 0, 0x1000);  // miss (cold)
  translate_dom(sim, iommu, 0, 0x1000);  // hit
  translate_dom(sim, iommu, 1, 0x5000);  // miss in the other domain
  EXPECT_EQ(iommu.domain_stats(0).misses, 1u);
  EXPECT_EQ(iommu.domain_stats(0).hits, 1u);
  EXPECT_EQ(iommu.domain_stats(1).misses, 1u);
  EXPECT_EQ(iommu.domain_stats(1).hits, 0u);
  // Global counters stay the sum of the domains.
  EXPECT_EQ(iommu.tlb_misses(), 2u);
  EXPECT_EQ(iommu.tlb_hits(), 1u);
}

TEST(IommuDomainTest, ConfigureDomainsOnceBeforeTranslations) {
  Simulator sim;
  Iommu used(sim, enabled_cfg());
  translate_dom(sim, used, 0, 0x1000);
  EXPECT_THROW(used.configure_domains(2, /*partitioned=*/true),
               std::logic_error);

  Iommu twice(sim, enabled_cfg());
  twice.configure_domains(2, /*partitioned=*/true);
  EXPECT_THROW(twice.configure_domains(2, /*partitioned=*/false),
               std::logic_error);

  Iommu bad(sim, enabled_cfg());
  EXPECT_THROW(bad.configure_domains(0, true), std::invalid_argument);
  EXPECT_THROW(bad.configure_domains(257, true), std::invalid_argument);
}

TEST(IommuDomainTest, RemapDomainFlushesOnlyThatDomain) {
  Simulator sim;
  Iommu iommu(sim, enabled_cfg());
  iommu.configure_domains(2, /*partitioned=*/true);
  translate_dom(sim, iommu, 0, 0x1000);
  translate_dom(sim, iommu, 1, 0x1000);
  const std::uint64_t global_before = iommu.remaps();
  iommu.remap_domain(0);  // VF 0 FLR: only its mappings are rebuilt
  EXPECT_EQ(iommu.domain_stats(0).remaps, 1u);
  EXPECT_EQ(iommu.domain_stats(1).remaps, 0u);
  EXPECT_EQ(iommu.remaps(), global_before + 1);
  iommu.reset_stats();
  translate_dom(sim, iommu, 0, 0x1000);  // stale: walks again
  translate_dom(sim, iommu, 1, 0x1000);  // untouched: still cached
  EXPECT_EQ(iommu.domain_stats(0).misses, 1u);
  EXPECT_EQ(iommu.domain_stats(1).hits, 1u);
  EXPECT_EQ(iommu.domain_stats(1).misses, 0u);
  // remaps persist across reset_stats, like the global counter.
  EXPECT_EQ(iommu.domain_stats(0).remaps, 1u);
}

// Property: a translation cached by one domain NEVER satisfies another
// domain's lookup — in partitioned mode (separate structures) and in
// shared mode (one pool, composite keys) alike, even for identical pages.
TEST(IommuDomainTest, NoTranslationResolvesAcrossDomains) {
  for (const bool partitioned : {true, false}) {
    Simulator sim;
    IommuConfig cfg = enabled_cfg();
    cfg.tlb_entries = 64;  // no capacity evictions during the property run
    Iommu iommu(sim, cfg);
    iommu.configure_domains(4, partitioned);
    Xoshiro256 rng(0xd04a);
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t page = rng.below(8);  // heavy page collisions
      const unsigned owner = static_cast<unsigned>(rng.below(4));
      const unsigned other = (owner + 1 + rng.below(3)) % 4;
      const std::uint64_t addr = page * 4096;
      iommu.reset_stats();
      translate_dom(sim, iommu, owner, addr);   // warm owner's domain
      translate_dom(sim, iommu, owner, addr);   // sanity: owner now hits
      ASSERT_EQ(iommu.domain_stats(owner).hits, 1u);
      const std::uint64_t other_misses = iommu.domain_stats(other).misses;
      const std::uint64_t other_hits = iommu.domain_stats(other).hits;
      translate_dom(sim, iommu, other, addr);   // must walk, never hit
      ASSERT_EQ(iommu.domain_stats(other).hits, other_hits)
          << "cross-domain TLB hit (partitioned=" << partitioned << ")";
      ASSERT_EQ(iommu.domain_stats(other).misses, other_misses + 1);
      iommu.flush_tlb();
    }
  }
}

TEST(IommuDomainTest, PartitioningContainsEvictionStorms) {
  // tlb_entries=4 split across 2 domains = 2-entry slices. The attacker
  // domain storms 8 distinct pages; the victim's cached page survives in
  // partitioned mode and is evicted in shared mode.
  for (const bool partitioned : {true, false}) {
    Simulator sim;
    Iommu iommu(sim, enabled_cfg());
    iommu.configure_domains(2, partitioned);
    translate_dom(sim, iommu, 1, 0x1000);  // victim caches its page
    for (std::uint64_t p = 0; p < 8; ++p) {
      translate_dom(sim, iommu, 0, 0x100000 + p * 4096);  // attacker storm
    }
    iommu.reset_stats();
    translate_dom(sim, iommu, 1, 0x1000);
    if (partitioned) {
      EXPECT_EQ(iommu.domain_stats(1).hits, 1u) << "victim entry evicted";
    } else {
      EXPECT_EQ(iommu.domain_stats(1).misses, 1u)
          << "shared pool should have evicted the victim entry";
    }
  }
}

// A plain IOMMU is one domain over one pool: configuring that shape
// explicitly, shared or partitioned, changes nothing observable under a
// random read/write stream with evictions, walker queueing and faults.
struct IommuRun {
  std::vector<std::pair<Picos, bool>> done;  ///< per request: time, ok
  std::array<std::uint64_t, 4> totals{};     ///< hits, misses, evictions, faults
  std::array<std::uint64_t, 4> domain0{};
};

IommuRun run_random_stream(int shape) {
  Simulator sim;
  IommuConfig cfg = enabled_cfg();
  cfg.tlb_entries = 8;
  cfg.walkers = 2;
  Iommu iommu(sim, cfg);
  if (shape > 0) iommu.configure_domains(1, /*partitioned=*/shape == 2);
  fault::FaultInjector injector(fault::parse_plan("iommu@prob=0.05"));
  iommu.set_fault_injector(&injector);

  IommuRun r;
  r.done.assign(3000, {-1, false});
  Xoshiro256 rng(0x10bb);
  for (std::size_t i = 0; i < r.done.size(); ++i) {
    const std::uint64_t addr = rng.below(24) * 4096 + rng.below(4096);
    const bool is_write = rng.below(2) != 0;
    sim.at(from_nanos(40) * static_cast<Picos>(i), [&, i, addr, is_write] {
      iommu.translate_checked(addr, is_write, [&, i](bool ok) {
        r.done[i] = {sim.now(), ok};
      });
    });
  }
  sim.run();
  r.totals = {iommu.tlb_hits(), iommu.tlb_misses(), iommu.tlb_evictions(),
              iommu.faults()};
  const Iommu::DomainStats& d = iommu.domain_stats(0);
  r.domain0 = {d.hits, d.misses, d.evictions, d.faults};
  return r;
}

TEST(IommuDomainTest, PlainIommuIsOneDomainOverOnePool) {
  const IommuRun plain = run_random_stream(0);
  for (const int shape : {1, 2}) {
    const IommuRun configured = run_random_stream(shape);
    EXPECT_EQ(configured.done, plain.done) << "shape " << shape;
    EXPECT_EQ(configured.totals, plain.totals) << "shape " << shape;
    EXPECT_EQ(configured.domain0, plain.domain0) << "shape " << shape;
  }
  // The one domain is billed for everything, and every path ran.
  EXPECT_EQ(plain.domain0, plain.totals);
  EXPECT_GT(plain.totals[0], 0u);
  EXPECT_GT(plain.totals[2], 0u);
  EXPECT_GT(plain.totals[3], 0u);
  for (const auto& [t, ok] : plain.done) ASSERT_GE(t, 0);
}

}  // namespace
}  // namespace pcieb::sim
