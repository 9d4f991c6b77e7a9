// Lazy bulk warm (warm_host_range / warm_device_range) identity: the
// bulk form must be byte-identical — tags, LRU stamps, valid/dirty bits,
// statistics, and every subsequent probe outcome — to the legacy eager
// per-line host_touch / write_allocate loop it replaces. The chaos
// campaign's per-trial prepare_state cost rides on this (hot-path rounds
// 3 and 4), so the equivalence is pinned by a randomized property test,
// the edge cases the analytic statistics accounting depends on, the
// shipped LLC geometries with a forced eviction in every set, and every
// topology's warm entry point against the per-line loop it replaced.
#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/host_buffer.hpp"
#include "sim/switched_system.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb::sim {
namespace {

CacheConfig make_cfg(std::uint64_t sets, unsigned ways, unsigned ddio) {
  CacheConfig cfg;
  cfg.ways = ways;
  cfg.line_bytes = 64;
  cfg.ddio_ways = ddio;
  cfg.size_bytes = sets * ways * cfg.line_bytes;
  return cfg;
}

/// The legacy eager loops System::warm_host/warm_device used to run.
void eager_warm_host(LastLevelCache& c, std::uint64_t addr, std::uint64_t len,
                     bool dirty) {
  const unsigned line = c.config().line_bytes;
  for (std::uint64_t o = 0; o < len; o += line) c.host_touch(addr + o, dirty);
}

void eager_warm_device(LastLevelCache& c, std::uint64_t addr,
                       std::uint64_t len) {
  const unsigned line = c.config().line_bytes;
  for (std::uint64_t o = 0; o < len; o += line) c.write_allocate(addr + o);
}

void expect_stats_equal(const LastLevelCache& lazy, const LastLevelCache& ref,
                        const std::string& where) {
  EXPECT_EQ(lazy.hits(), ref.hits()) << where;
  EXPECT_EQ(lazy.misses(), ref.misses()) << where;
  EXPECT_EQ(lazy.dirty_evictions(), ref.dirty_evictions()) << where;
  EXPECT_EQ(lazy.ddio_allocations(), ref.ddio_allocations()) << where;
  EXPECT_EQ(lazy.ddio_evictions(), ref.ddio_evictions()) << where;
}

/// Drive both caches through an identical random probe mix and demand
/// identical outcomes at every step. Outcome identity transitively pins
/// the tag/LRU/valid/dirty state the warm left behind: a single swapped
/// LRU stamp changes a later eviction choice, which changes a later
/// probe result or statistic.
void expect_probe_identical(LastLevelCache& lazy, LastLevelCache& ref,
                            std::uint64_t seed, std::uint64_t addr_span,
                            int steps) {
  Xoshiro256 rng(seed);
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t addr = rng.below(addr_span) * 64;
    switch (rng.below(4)) {
      case 0:
        ASSERT_EQ(lazy.read_probe(addr), ref.read_probe(addr)) << "step " << i;
        break;
      case 1:
        ASSERT_EQ(lazy.write_allocate(addr), ref.write_allocate(addr))
            << "step " << i;
        break;
      case 2:
        lazy.host_touch(addr, (i & 1) != 0);
        ref.host_touch(addr, (i & 1) != 0);
        break;
      case 3:
        ASSERT_EQ(lazy.contains(addr), ref.contains(addr)) << "step " << i;
        break;
    }
    expect_stats_equal(lazy, ref, "step " + std::to_string(i));
  }
}

TEST(CacheWarmTest, LazyWarmMatchesEagerLoopAcrossRandomizedShapes) {
  Xoshiro256 rng(0xca5e);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t sets = 1ull << (3 + rng.below(4));  // 8..64
    const unsigned ways = static_cast<unsigned>(1 + rng.below(8));
    const unsigned ddio = static_cast<unsigned>(1 + rng.below(ways));
    const CacheConfig cfg = make_cfg(sets, ways, ddio);
    LastLevelCache lazy(cfg), ref(cfg);

    // Random base state: fresh, cleared, or thrashed (all leave a
    // whole-cache fill pending, so the bulk warm takes the lazy path).
    switch (rng.below(3)) {
      case 0: break;
      case 1: lazy.clear(); ref.clear(); break;
      case 2: lazy.thrash(); ref.thrash(); break;
    }

    // Random range, deliberately allowed to wrap every set's replacement
    // domain several times (count up to 3x the cache's line capacity).
    const std::uint64_t count = 1 + rng.below(3 * sets * ways);
    const std::uint64_t base = rng.below(1024) * 64;
    const bool dirty = rng.below(2) == 0;
    const bool ddio_warm = rng.below(3) == 0;
    if (ddio_warm) {
      lazy.warm_device_range(base, count * 64);
      eager_warm_device(ref, base, count * 64);
    } else {
      lazy.warm_host_range(base, count * 64, dirty);
      eager_warm_host(ref, base, count * 64, dirty);
    }
    expect_stats_equal(lazy, ref, "post-warm trial " + std::to_string(trial));

    // Probe over a span covering the warmed range and beyond.
    expect_probe_identical(lazy, ref, 0x9e37 + trial, 1024 + count + 64, 300);
  }
}

TEST(CacheWarmTest, WarmAfterTouchFallsBackAndStillMatches) {
  const CacheConfig cfg = make_cfg(16, 4, 2);
  LastLevelCache lazy(cfg), ref(cfg);
  lazy.thrash();
  ref.thrash();
  // A touched set breaks whole-cache pendingness: the bulk form must
  // fall back to the eager loop and still be identical.
  lazy.read_probe(0x40);
  ref.read_probe(0x40);
  lazy.warm_host_range(0, 48 * 64, true);
  eager_warm_host(ref, 0, 48 * 64, true);
  expect_stats_equal(lazy, ref, "fallback");
  expect_probe_identical(lazy, ref, 0xfa11, 256, 200);
}

TEST(CacheWarmTest, SecondRangeFallsBackAndStillMatches) {
  const CacheConfig cfg = make_cfg(16, 4, 2);
  LastLevelCache lazy(cfg), ref(cfg);
  lazy.thrash();
  ref.thrash();
  // Two overlapping warms: the second must not take the lazy path (its
  // touches could hit the first range's lines, breaking the analytic
  // statistics) — and the combined result must match two eager loops.
  lazy.warm_host_range(0, 32 * 64, true);
  eager_warm_host(ref, 0, 32 * 64, true);
  lazy.warm_host_range(16 * 64, 32 * 64, false);
  eager_warm_host(ref, 16 * 64, 32 * 64, false);
  expect_stats_equal(lazy, ref, "two ranges");
  expect_probe_identical(lazy, ref, 0x2ca5e, 256, 200);
}

TEST(CacheWarmTest, ThrashAfterLazyWarmDiscardsOverlayIdentically) {
  const CacheConfig cfg = make_cfg(16, 4, 2);
  LastLevelCache lazy(cfg), ref(cfg);
  lazy.thrash();
  ref.thrash();
  lazy.warm_host_range(0, 40 * 64, true);
  eager_warm_host(ref, 0, 40 * 64, true);
  // A new whole-cache fill supersedes the (unreplayed) warm; clocks and
  // statistics must still line up with the eager world.
  lazy.thrash();
  ref.thrash();
  expect_stats_equal(lazy, ref, "post-thrash");
  expect_probe_identical(lazy, ref, 0x7d1, 256, 200);
}

TEST(CacheWarmTest, MisalignedRangeMatchesEagerLoop) {
  const CacheConfig cfg = make_cfg(16, 4, 2);
  LastLevelCache lazy(cfg), ref(cfg);
  lazy.thrash();
  ref.thrash();
  // Unaligned base and a length that is not a line multiple: the line
  // count must replicate the eager loop's ceil(len/line) iterations.
  lazy.warm_host_range(0x20, 40 * 64 + 17, true);
  eager_warm_host(ref, 0x20, 40 * 64 + 17, true);
  expect_stats_equal(lazy, ref, "misaligned");
  expect_probe_identical(lazy, ref, 0x3b9, 256, 200);
}

TEST(CacheWarmTest, ContainsMaterializesLazyWarm) {
  const CacheConfig cfg = make_cfg(16, 4, 2);
  LastLevelCache cache(cfg);
  cache.thrash();
  cache.warm_host_range(0, 8 * 64, true);
  // contains() is a const probe, but it must still see the lazy warm.
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(7 * 64));
  EXPECT_FALSE(cache.contains(9 * 64));
}

TEST(CacheWarmTest, DeviceWarmWrapsDdioQuotaIdentically) {
  // 8 sets x 4 ways with a 2-way DDIO quota; 80 lines = 10 per set, so
  // every set wraps its quota 8 times — the eviction-statistics edge.
  const CacheConfig cfg = make_cfg(8, 4, 2);
  for (const bool thrashed : {false, true}) {
    LastLevelCache lazy(cfg), ref(cfg);
    if (thrashed) {
      lazy.thrash();
      ref.thrash();
    }
    lazy.warm_device_range(0, 80 * 64);
    eager_warm_device(ref, 0, 80 * 64);
    expect_stats_equal(lazy, ref,
                       thrashed ? "ddio wrap thrashed" : "ddio wrap cold");
    expect_probe_identical(lazy, ref, 0xdd10 + (thrashed ? 1 : 0), 128, 200);
  }
}

// --- Residency and forced evictions over whole geometries -------------
//
// A random probe mix touches a few hundred lines; on a 20K-set cache a
// warm line with a misplaced way or LRU stamp hides from it. These checks
// instead compare residency of every warmed line, then force an eviction
// in every set and compare again: the victim is the set's oldest stamp
// (within the DDIO ways for write_allocate, over all ways for
// host_touch), so a wrong stamp or way evicts a different line.

/// Number of warmed lines whose residency differs; reports the first.
std::uint64_t residency_mismatches(const LastLevelCache& lazy,
                                   const LastLevelCache& ref,
                                   std::uint64_t addr, std::uint64_t lines,
                                   const std::string& where) {
  std::uint64_t bad = 0;
  for (std::uint64_t i = 0; i < lines; ++i) {
    const std::uint64_t a = addr + i * 64;
    if (lazy.contains(a) != ref.contains(a) && bad++ == 0) {
      ADD_FAILURE() << where << ": line " << i << " (addr 0x" << std::hex
                    << a << std::dec << ") lazy=" << lazy.contains(a)
                    << " eager=" << ref.contains(a);
    }
  }
  return bad;
}

/// One fresh line per set, far above every warmed tag, through
/// write_allocate (ddio) or host_touch; outcomes and statistics must match.
void force_eviction_per_set(LastLevelCache& lazy, LastLevelCache& ref,
                            std::uint64_t round, bool ddio,
                            const std::string& where) {
  const std::uint64_t sets = lazy.config().sets();
  for (std::uint64_t s = 0; s < sets; ++s) {
    const std::uint64_t addr = (sets * ((1ull << 24) + round) + s) * 64;
    if (ddio) {
      ASSERT_EQ(lazy.write_allocate(addr), ref.write_allocate(addr))
          << where << ": set " << s;
    } else {
      lazy.host_touch(addr, false);
      ref.host_touch(addr, false);
    }
  }
  expect_stats_equal(lazy, ref, where);
}

enum class Fill { Clear, Thrash };
enum class WarmKind { HostClean, HostDirty, Device };

struct WarmShape {
  std::uint64_t sets;
  unsigned ways;
  unsigned ddio;
};

std::string shape_name(const WarmShape& g, Fill fill, WarmKind kind) {
  static const char* const kinds[] = {"host-clean", "host-dirty", "device"};
  return std::to_string(g.sets) + "x" + std::to_string(g.ways) + "/ddio" +
         std::to_string(g.ddio) +
         (fill == Fill::Clear ? " clear " : " thrash ") +
         kinds[static_cast<int>(kind)];
}

/// Arm the fill in both caches, then warm `lines` lines from addr: in
/// bulk in `lazy`, through the per-line loop in `ref`.
void fill_and_warm(LastLevelCache& lazy, LastLevelCache& ref, Fill fill,
                   WarmKind kind, std::uint64_t addr, std::uint64_t lines) {
  for (LastLevelCache* c : {&lazy, &ref}) {
    c->thrash();
    if (fill == Fill::Clear) c->clear();  // a cleared cache, LRU clock > 0
  }
  if (kind == WarmKind::Device) {
    lazy.warm_device_range(addr, lines * 64);
    eager_warm_device(ref, addr, lines * 64);
  } else {
    const bool dirty = kind == WarmKind::HostDirty;
    lazy.warm_host_range(addr, lines * 64, dirty);
    eager_warm_host(ref, addr, lines * 64, dirty);
  }
}

/// Warm a range that wraps every set's replacement domain at least twice,
/// starting mid-cache so sets get unequal touch counts, then compare
/// residency of every warmed line before and after two forced-eviction
/// rounds (DDIO ways first, then whole sets).
void check_geometry(const WarmShape& g, Fill fill, WarmKind kind) {
  const CacheConfig cfg = make_cfg(g.sets, g.ways, g.ddio);
  const std::string where = shape_name(g, fill, kind);
  LastLevelCache lazy(cfg), ref(cfg);
  const unsigned span = kind == WarmKind::Device ? g.ddio : g.ways;
  const std::uint64_t lines = (2 * span + 1) * g.sets + g.sets / 2 + 7;
  const std::uint64_t addr = (g.sets / 3 + 5) * 64;
  fill_and_warm(lazy, ref, fill, kind, addr, lines);
  expect_stats_equal(lazy, ref, where + " post-warm");
  EXPECT_EQ(residency_mismatches(lazy, ref, addr, lines, where + " warm"), 0u);
  force_eviction_per_set(lazy, ref, 0, /*ddio=*/true, where + " ddio evict");
  EXPECT_EQ(residency_mismatches(lazy, ref, addr, lines, where + " ddio evict"),
            0u);
  force_eviction_per_set(lazy, ref, 1, /*ddio=*/false, where + " host evict");
  EXPECT_EQ(residency_mismatches(lazy, ref, addr, lines, where + " host evict"),
            0u);
}

void check_all_fills_and_kinds(const WarmShape& g) {
  for (const Fill fill : {Fill::Clear, Fill::Thrash}) {
    for (const WarmKind kind :
         {WarmKind::HostClean, WarmKind::HostDirty, WarmKind::Device}) {
      check_geometry(g, fill, kind);
    }
  }
}

// The shipped LLCs: 15 MB (12,288 sets) and the 25 MB of NFP6000-BDW
// (20,480 sets), both 20-way with a 2-way DDIO quota.
TEST(CacheWarmGeometryTest, Shipped15MbLlc) {
  check_all_fills_and_kinds({12288, 20, 2});
}

TEST(CacheWarmGeometryTest, Shipped25MbLlc) {
  check_all_fills_and_kinds({20480, 20, 2});
}

// One- and two-way domains: the clear-fill cycle [1, 0, 2, ...] collapses
// to [0] and [1, 0], the edges of the closed form.
TEST(CacheWarmGeometryTest, OneAndTwoWayDomains) {
  for (const std::uint64_t sets : {12ull, 61ull}) {
    for (const unsigned ways : {1u, 2u}) {
      for (unsigned ddio = 1; ddio <= ways; ++ddio) {
        check_all_fills_and_kinds({sets, ways, ddio});
      }
    }
  }
  check_all_fills_and_kinds({61, 20, 1});
  check_all_fills_and_kinds({61, 3, 2});
}

// Set counts that are not powers of two and arbitrary domain widths, with
// an eviction walk: `ways` rounds of one forced eviction per set,
// alternating DDIO-way and whole-set victims, so the LRU order of every
// set is read back well past its oldest line.
TEST(CacheWarmGeometryTest, RandomShapesEvictionWalk) {
  Xoshiro256 rng(0x0c105ed);
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint64_t sets = 5 + rng.below(120);
    const auto ways = static_cast<unsigned>(1 + rng.below(20));
    const WarmShape g{sets, ways, static_cast<unsigned>(1 + rng.below(ways))};
    const CacheConfig cfg = make_cfg(g.sets, g.ways, g.ddio);
    const Fill fill = rng.below(2) == 0 ? Fill::Clear : Fill::Thrash;
    const auto kind = static_cast<WarmKind>(rng.below(3));
    const std::string where =
        "trial " + std::to_string(trial) + " " + shape_name(g, fill, kind);
    LastLevelCache lazy(cfg), ref(cfg);
    const std::uint64_t lines = 1 + rng.below(4 * g.sets * g.ways);
    const std::uint64_t addr = rng.below(4096) * 64;
    fill_and_warm(lazy, ref, fill, kind, addr, lines);
    expect_stats_equal(lazy, ref, where);
    ASSERT_EQ(residency_mismatches(lazy, ref, addr, lines, where), 0u);
    for (unsigned round = 0; round < g.ways; ++round) {
      const bool ddio_round = round % 2 == 0;
      force_eviction_per_set(lazy, ref, round, ddio_round, where);
      ASSERT_EQ(residency_mismatches(lazy, ref, addr, lines,
                                     where + " round " + std::to_string(round)),
                0u);
    }
  }
}

// --- Topology warm entry points -----------------------------------------
//
// Every topology's warm_host/warm_device now goes through the bulk path.
// Each test below runs the topology's warm on one system and, on a twin,
// the per-line loop the topology used to run (kept here as the
// reference), then compares the cache state as above.

/// The per-line loops a shared-port System, a multi-device System and
/// SwitchedSystem used to run.
void per_line_warm_host(LastLevelCache& c, const HostBuffer& buf,
                        std::uint64_t offset, std::uint64_t len) {
  const unsigned line = c.config().line_bytes;
  for (std::uint64_t o = offset; o < offset + len; o += line) {
    c.host_touch(buf.iova(o), /*dirty=*/true);
  }
}

void per_line_warm_device(LastLevelCache& c, const HostBuffer& buf,
                          std::uint64_t offset, std::uint64_t len) {
  const unsigned line = c.config().line_bytes;
  for (std::uint64_t o = offset; o < offset + len; o += line) {
    c.write_allocate(buf.iova(o));
  }
}

/// Residency of every buffer's window, stats, then one forced eviction
/// round of each kind, between a topology's cache and its twin's.
void expect_topology_caches_equal(LastLevelCache& bulk, LastLevelCache& ref,
                                  const std::vector<const HostBuffer*>& bufs,
                                  std::uint64_t window,
                                  const std::string& where) {
  expect_stats_equal(bulk, ref, where);
  const auto all_windows = [&](const std::string& when) {
    for (const HostBuffer* b : bufs) {
      EXPECT_EQ(residency_mismatches(bulk, ref, b->iova(0), window / 64,
                                     where + " " + when),
                0u);
    }
  };
  all_windows("warm");
  force_eviction_per_set(bulk, ref, 0, /*ddio=*/true, where + " ddio evict");
  all_windows("ddio evict");
  force_eviction_per_set(bulk, ref, 1, /*ddio=*/false, where + " host evict");
  all_windows("host evict");
}

BufferConfig window_buffer(unsigned index) {
  BufferConfig b;
  b.size_bytes = 4ull << 20;
  b.base_iova = 0x4000'0000ull + index * (1ull << 38);
  b.seed = 0x5eed + index;
  return b;
}

// 1.5 MB windows: 24K lines, 8 per set of a 4-VF slice (3,072 sets), which
// wraps the 1-, 2- and 3-way DDIO quotas, and 2 per set of a whole 15 MB
// LLC.
constexpr std::uint64_t kWindow = 3ull << 19;

TEST(TopologyWarmTest, MultiTenantBulkWarmMatchesPerLineLoop) {
  for (const bool per_vf_uncore : {true, false}) {
    for (const bool device_warm : {false, true}) {
      SystemConfig cfg = sys::profile_by_name("NFP6000-HSW").config;
      cfg.tenants = 4;
      cfg.isolation.per_vf_uncore = per_vf_uncore;
      if (per_vf_uncore) cfg.ddio_quota = {1, 2, 3, 20};
      System bulk(cfg), ref(cfg);
      std::vector<HostBuffer> bufs;
      for (unsigned vf = 0; vf < cfg.tenants; ++vf) {
        bufs.emplace_back(window_buffer(vf));
      }
      // A per-function BenchRunner's preparation: thrash then warm, one VF
      // at a time (on a shared uncore each thrash discards the previous
      // VF's warm).
      for (unsigned vf = 0; vf < cfg.tenants; ++vf) {
        bulk.thrash_cache(vf);
        ref.thrash_cache(vf);
        if (device_warm) {
          bulk.warm_device(bufs[vf], 0, kWindow, vf);
          per_line_warm_device(ref.memory(vf).cache(), bufs[vf], 0, kWindow);
        } else {
          bulk.warm_host(bufs[vf], 0, kWindow, vf);
          per_line_warm_host(ref.memory(vf).cache(), bufs[vf], 0, kWindow);
        }
      }
      const std::string where =
          std::string(per_vf_uncore ? "per-vf" : "shared") +
          (device_warm ? " device" : " host");
      std::vector<const HostBuffer*> all;
      for (const HostBuffer& b : bufs) all.push_back(&b);
      const unsigned caches = per_vf_uncore ? cfg.tenants : 1;
      for (unsigned vf = 0; vf < caches; ++vf) {
        expect_topology_caches_equal(bulk.memory(vf).cache(),
                                     ref.memory(vf).cache(), all, kWindow,
                                     where + " vf" + std::to_string(vf));
      }
    }
  }
}

TEST(TopologyWarmTest, SharedUncoreSecondWarmFallsBackIdentically) {
  // Without a thrash between them, the second VF's warm lands on a cache
  // that already holds the first's lazy range: it must fall back to the
  // per-line loop and still match.
  SystemConfig cfg = sys::profile_by_name("NFP6000-HSW").config;
  cfg.tenants = 2;
  cfg.isolation.per_vf_uncore = false;
  System bulk(cfg), ref(cfg);
  const HostBuffer b0(window_buffer(0)), b1(window_buffer(1));
  bulk.thrash_cache(0);
  ref.thrash_cache(0);
  bulk.warm_host(b0, 0, kWindow, 0);
  per_line_warm_host(ref.memory(0).cache(), b0, 0, kWindow);
  bulk.warm_device(b1, 4096, kWindow, 1);
  per_line_warm_device(ref.memory(1).cache(), b1, 4096, kWindow);
  expect_topology_caches_equal(bulk.memory(0).cache(), ref.memory(0).cache(),
                               {&b0, &b1}, kWindow + 4096, "shared two warms");
}

/// multi_runner's preparation for a multi-device System and SwitchedSystem:
/// one thrash, then every device's window warmed into the shared LLC (the
/// first lazily, the rest through the fallback on top of it).
template <typename Topology>
void check_shared_llc_topology(Topology& bulk, Topology& ref, unsigned devices,
                               const std::string& where) {
  std::vector<HostBuffer> bufs;
  for (unsigned d = 0; d < devices; ++d) bufs.emplace_back(window_buffer(d));
  bulk.thrash_cache();
  ref.thrash_cache();
  for (unsigned d = 0; d < devices; ++d) {
    bulk.warm_host(bufs[d], 0, kWindow);
    per_line_warm_host(ref.memory().cache(), bufs[d], 0, kWindow);
  }
  std::vector<const HostBuffer*> all;
  for (const HostBuffer& b : bufs) all.push_back(&b);
  expect_topology_caches_equal(bulk.memory().cache(), ref.memory().cache(),
                               all, kWindow, where);
}

TEST(TopologyWarmTest, MultiDeviceBulkWarmMatchesPerLineLoop) {
  SystemConfig cfg = sys::profile_by_name("NFP6000-BDW").config;
  for (const unsigned devices : {1u, 3u}) {
    cfg.devices = devices;
    System bulk(cfg), ref(cfg);
    check_shared_llc_topology(bulk, ref, devices,
                              "multi-device x" + std::to_string(devices));
  }
}

TEST(TopologyWarmTest, SwitchedBulkWarmMatchesPerLineLoop) {
  const SystemConfig base = sys::profile_by_name("NFP6000-HSW").config;
  for (const unsigned devices : {1u, 3u}) {
    SwitchedSystem bulk(base, devices), ref(base, devices);
    check_shared_llc_topology(bulk, ref, devices,
                              "switched x" + std::to_string(devices));
  }
}

// --- Window bounds -------------------------------------------------------
//
// A window running past the buffer's end must throw before touching the
// cache, on every topology — including lengths whose offset + len wraps.

/// Window (offset, len) pairs that do not fit a 4 MB buffer.
std::vector<std::pair<std::uint64_t, std::uint64_t>> bad_windows() {
  const std::uint64_t size = 4ull << 20;
  return {{0, size + 1},
          {size - 64, 128},
          {size, 64},
          {size + 64, 0},
          {64, std::numeric_limits<std::uint64_t>::max()},
          {std::numeric_limits<std::uint64_t>::max(), 2}};
}

template <typename WarmFn>
void expect_rejects_bad_windows(const LastLevelCache& cache,
                                const HostBuffer& buf, WarmFn warm,
                                const std::string& where) {
  for (const auto& [offset, len] : bad_windows()) {
    EXPECT_THROW(warm(offset, len), std::out_of_range)
        << where << " offset=" << offset << " len=" << len;
  }
  // The check runs before any touch: the per-line loops warmed every
  // in-bounds line of {0, size + 1} before throwing.
  EXPECT_FALSE(cache.contains(buf.iova(0))) << where;
  EXPECT_FALSE(cache.contains(buf.iova(buf.size() - 64))) << where;
  EXPECT_EQ(cache.misses(), 0u) << where;
}

TEST(TopologyWarmTest, EveryTopologyRejectsWindowPastBufferEnd) {
  const SystemConfig base = sys::profile_by_name("NFP6000-HSW").config;
  const HostBuffer buf(window_buffer(0));
  const std::uint64_t size = buf.size();

  System system(base);
  expect_rejects_bad_windows(
      system.memory().cache(), buf,
      [&](std::uint64_t o, std::uint64_t l) { system.warm_host(buf, o, l); },
      "System::warm_host");
  expect_rejects_bad_windows(
      system.memory().cache(), buf,
      [&](std::uint64_t o, std::uint64_t l) { system.warm_device(buf, o, l); },
      "System::warm_device");
  EXPECT_NO_THROW(system.warm_host(buf, size - 64, 64));
  EXPECT_NO_THROW(system.warm_device(buf, size, 0));

  SystemConfig tcfg = base;
  tcfg.tenants = 2;
  System tenants(tcfg);
  expect_rejects_bad_windows(
      tenants.memory(1).cache(), buf,
      [&](std::uint64_t o, std::uint64_t l) {
        tenants.warm_host(buf, o, l, 1);
      },
      "System::warm_host (vf1)");
  expect_rejects_bad_windows(
      tenants.memory(1).cache(), buf,
      [&](std::uint64_t o, std::uint64_t l) {
        tenants.warm_device(buf, o, l, 1);
      },
      "System::warm_device (vf1)");
  EXPECT_NO_THROW(tenants.warm_host(buf, 0, size, 1));

  SystemConfig mcfg = base;
  mcfg.devices = 2;
  System multi(mcfg);
  expect_rejects_bad_windows(
      multi.memory().cache(), buf,
      [&](std::uint64_t o, std::uint64_t l) { multi.warm_host(buf, o, l); },
      "System::warm_host (2 devices)");
  EXPECT_NO_THROW(multi.warm_host(buf, 0, size));

  SwitchedSystem switched(base, 2);
  expect_rejects_bad_windows(
      switched.memory().cache(), buf,
      [&](std::uint64_t o, std::uint64_t l) { switched.warm_host(buf, o, l); },
      "SwitchedSystem::warm_host");
  EXPECT_NO_THROW(switched.warm_host(buf, 0, size));
}

}  // namespace
}  // namespace pcieb::sim
