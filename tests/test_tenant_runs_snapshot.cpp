// Tier-2 snapshot of core::run_tenant_bench, one serial op stream per PCIe
// function of a sim::System. bench/expected/tenant_runs.txt pins the
// per-function runs that no other snapshot reaches (tenant chaos trials
// only draw bandwidth kinds and, like the isolation sweep, run without
// warmup):
//
//  * 4 VFs on NFP6000-HSW running LAT_RD at 64 B and LAT_WRRD at 256 B,
//    and each again through the NFP command interface (LAT_WRRD at its
//    128 B limit), all with 200 warmup ops;
//  * 4 VFs of BW_RDWR over a device-warmed window with the IOMMU on at
//    4 KB pages;
//  * 4 VFs of BW_RD with every isolation knob weakened, so one shared LLC
//    is thrashed and host-warmed once per VF;
//  * a one-function (tenants = 1) BW_WR run.
//
// Each VF's line holds its serialized latency digest, counters_line, ops,
// payload, lost payload, elapsed time and goodput at %.17g; each run adds
// its up and down link TLP counts and the simulated end time. Event
// counts are left out, as in trial_outcomes.txt, so a change that cuts
// simulator events without moving a TLP keeps this file. On a mismatch
// the test writes the actual text to a temp file and names it, and
//
//   cp <that file> bench/expected/tenant_runs.txt
//
// regenerates the pin.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "exec/journal.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

using namespace pcieb;

namespace {

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

core::BenchParams params_of(core::BenchKind kind, std::uint32_t size,
                            std::size_t iterations) {
  core::BenchParams p;
  p.kind = kind;
  p.transfer_size = size;
  p.window_bytes = 1ull << 20;
  p.iterations = iterations;
  p.seed = 7;
  return p;
}

std::string run_lines(const char* label, const sim::SystemConfig& cfg,
                      const core::BenchParams& p) {
  sim::System system(cfg);
  const std::vector<core::TenantResult> results =
      core::run_tenant_bench(system, p);
  std::string out;
  for (const core::TenantResult& r : results) {
    out += fmt("%s vf%u ops=%" PRIu64 " payload=%" PRIu64 " lost=%" PRIu64
               " elapsed_ps=%lld goodput=%.17g",
               label, r.vf, r.ops, r.payload_bytes, r.lost_payload_bytes,
               static_cast<long long>(r.elapsed), r.goodput_gbps);
    out += " digest=" + r.latency.serialize() + " counters=" + r.counters +
           "\n";
  }
  return out + fmt("%s up_tlps=%" PRIu64 " down_tlps=%" PRIu64
                   " end_ps=%lld\n",
                   label, system.upstream().tlps_sent(),
                   system.downstream().tlps_sent(),
                   static_cast<long long>(system.sim().now()));
}

std::string expected() {
  const std::string path =
      std::string(PCIEB_SOURCE_DIR) + "/bench/expected/tenant_runs.txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(TenantRunsSnapshot, PerFunctionRunsMatchPinnedResults) {
  using core::BenchKind;
  const sim::SystemConfig hsw = sys::profile_by_name("NFP6000-HSW").config;
  sim::SystemConfig four = hsw;
  four.tenants = 4;
  std::string actual =
      "# Per-function run_tenant_bench results, pinned by "
      "tests/test_tenant_runs_snapshot.cpp.\n"
      "# Regenerate a deliberate change with: cp <the file the failing test\n"
      "# names> bench/expected/tenant_runs.txt\n";

  // The NFP command interface moves at most 128 B, so LAT_WRRD takes it
  // at 128 B.
  const struct {
    const char* label;
    BenchKind kind;
    std::uint32_t size;
    bool cmd_if;
  } latency_runs[] = {{"lat-rd64", BenchKind::LatRd, 64, false},
                      {"lat-rd64-cmdif", BenchKind::LatRd, 64, true},
                      {"lat-wrrd256", BenchKind::LatWrRd, 256, false},
                      {"lat-wrrd128-cmdif", BenchKind::LatWrRd, 128, true}};
  for (const auto& run : latency_runs) {
    core::BenchParams p = params_of(run.kind, run.size, 1000);
    p.use_cmd_if = run.cmd_if;
    p.warmup = 200;
    actual += run_lines(run.label, four, p);
  }

  core::BenchParams rdwr = params_of(BenchKind::BwRdWr, 512, 2000);
  rdwr.cache_state = core::CacheState::DeviceWarm;
  actual += run_lines("bw-rdwr512-devwarm-iommu4K",
                      sys::with_iommu(four, true, 4096), rdwr);

  sim::SystemConfig weakened = four;
  weakened.isolation = sim::TenantIsolation::all_weakened();
  actual += run_lines("bw-rd256-weakened", weakened,
                      params_of(BenchKind::BwRd, 256, 2000));

  actual += run_lines("bw-wr256-lone", hsw,
                      params_of(BenchKind::BwWr, 256, 2000));

  const std::string pinned = expected();
  if (actual == pinned) return;
  const std::string path =
      exec::make_temp_dir("pcieb-tenant-runs-") + "/tenant_runs.txt";
  std::ofstream(path, std::ios::binary) << actual;
  // Line by line, so the failure names the first runs that moved.
  std::istringstream es(pinned), as(actual);
  std::string eline, aline;
  while (std::getline(es, eline)) {
    ASSERT_TRUE(std::getline(as, aline)) << "missing: " << eline;
    EXPECT_EQ(aline, eline);
  }
  EXPECT_FALSE(std::getline(as, aline)) << "extra: " << aline;
  ADD_FAILURE() << "actual results written to " << path;
}
