// Heap allocations on the simulator's per-frame and per-write hot paths.
//
// This executable replaces the global operator new/delete with counting
// versions, so it lives alone: nothing else links them. Each check runs
// one workload at two sizes and divides the extra allocations by the
// extra work (delivered frames, DMA writes), so set-up costs — System
// construction, table and pool warm-up — cancel out and only the
// steady-state per-unit cost is bounded. What may remain per frame is
// std::deque block churn (one block per 512 B of queued entries).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "core/params.hpp"
#include "core/runner.hpp"
#include "nic/overload.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace pcieb;

namespace {

/// Extra heap allocations allowed per extra unit of work. Deque block
/// churn, about 0.14 per frame, fits; a single closure that outgrows
/// its wrapper's inline buffer adds at least 1.
constexpr double kBudget = 0.3;

struct Cost {
  std::uint64_t allocs = 0;
  std::uint64_t units = 0;
};

struct OverloadCosts {
  Cost calibrate;  ///< units: frames (calibration delivers every frame)
  Cost run;        ///< units: delivered frames
};

OverloadCosts overload_costs(std::uint64_t frames, nic::ServiceMode service,
                             double load) {
  const sim::SystemConfig sys_cfg =
      sys::profile_by_name("NFP6000-HSW").config;
  nic::OverloadConfig cfg;
  cfg.service = service;
  cfg.backpressure = service == nic::ServiceMode::Coalesce;
  cfg.offered_load = load;
  cfg.frames = frames;
  cfg.seed = 3;

  OverloadCosts out;
  std::uint64_t t0 = g_allocs.load();
  cfg.capacity_pps = nic::calibrate_capacity(sys_cfg, cfg);
  out.calibrate = {g_allocs.load() - t0, frames};

  t0 = g_allocs.load();
  sim::System system(sys_cfg);
  const nic::OverloadResult r = nic::run_overload(system, cfg);
  out.run = {g_allocs.load() - t0, r.stats.delivered};
  return out;
}

double per_extra_unit(const Cost& small, const Cost& large) {
  EXPECT_GT(large.units, small.units);
  const double extra_allocs = static_cast<double>(large.allocs) -
                              static_cast<double>(small.allocs);
  return extra_allocs / static_cast<double>(large.units - small.units);
}

struct OverloadCase {
  nic::ServiceMode service;
  double load;
};

void PrintTo(const OverloadCase& c, std::ostream* os) {
  *os << nic::to_string(c.service) << ' ' << c.load << 'x';
}

class OverloadAllocs : public ::testing::TestWithParam<OverloadCase> {};

TEST_P(OverloadAllocs, DeliveredFramesStayWithinBudget) {
  const OverloadCase c = GetParam();
  const OverloadCosts small = overload_costs(2000, c.service, c.load);
  const OverloadCosts large = overload_costs(4000, c.service, c.load);
  const double cal = per_extra_unit(small.calibrate, large.calibrate);
  const double run = per_extra_unit(small.run, large.run);
  std::printf("%s %.1fx: calibrate %.3f allocs/frame, run %.3f "
              "allocs/delivered frame (%llu -> %llu delivered)\n",
              nic::to_string(c.service), c.load, cal, run,
              static_cast<unsigned long long>(small.run.units),
              static_cast<unsigned long long>(large.run.units));
  EXPECT_LE(cal, kBudget);
  EXPECT_LE(run, kBudget);
}

INSTANTIATE_TEST_SUITE_P(
    PollAndCoalesce, OverloadAllocs,
    ::testing::Values(OverloadCase{nic::ServiceMode::BusyPoll, 0.5},
                      OverloadCase{nic::ServiceMode::BusyPoll, 4.0},
                      OverloadCase{nic::ServiceMode::Coalesce, 0.5},
                      OverloadCase{nic::ServiceMode::Coalesce, 4.0}),
    [](const ::testing::TestParamInfo<OverloadCase>& info) {
      return std::string(nic::to_string(info.param.service)) +
             (info.param.load < 1.0 ? "_half" : "_4x");
    });

Cost bw_wr_cost(std::size_t iterations) {
  core::BenchParams p;
  p.kind = core::BenchKind::BwWr;
  p.transfer_size = 64;
  p.window_bytes = 8ull << 20;
  p.cache_state = core::CacheState::HostWarm;
  p.iterations = iterations;
  p.seed = 5;
  const std::uint64_t t0 = g_allocs.load();
  sim::System system(sys::profile_by_name("NFP6000-HSW").config);
  core::BenchRunner runner(system, p);
  runner.run_bandwidth();
  return {g_allocs.load() - t0, system.device().writes_sent()};
}

TEST(BenchRunnerAllocs, DmaWritesStayWithinBudget) {
  const Cost small = bw_wr_cost(5000);
  const Cost large = bw_wr_cost(10000);
  const double per_write = per_extra_unit(small, large);
  std::printf("BW_WR 64 B: %.3f allocs/DMA write\n", per_write);
  EXPECT_LE(per_write, kBudget);
}

}  // namespace
