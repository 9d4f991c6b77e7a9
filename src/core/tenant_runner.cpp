#include "core/tenant_runner.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "common/units.hpp"
#include "core/addressing.hpp"

namespace pcieb::core {
namespace {

constexpr std::uint64_t kMinBufferBytes = 64ull << 20;

/// Per-VF buffer: distinct IOVA base (1 GB stride — no aliasing between
/// tenants) and a seed perturbed by the VF index so chunk scatter differs.
sim::BufferConfig tenant_buffer_config(const BenchParams& p, unsigned vf) {
  sim::BufferConfig cfg;
  cfg.size_bytes = std::max(kMinBufferBytes, p.window_bytes);
  cfg.page_bytes = p.page_bytes;
  cfg.local = p.numa_local;
  cfg.seed = (p.seed ^ 0xb0ff'e12aULL) + 0x9e3779b97f4a7c15ULL * (vf + 1);
  cfg.base_iova = 0x4000'0000ull * (vf + 1);
  return cfg;
}

BenchParams tenant_params(const BenchParams& p, unsigned vf) {
  BenchParams out = p;
  out.seed = p.seed + 0x9e3779b97f4a7c15ULL * (vf + 1);
  return out;
}

}  // namespace

TenantRunner::TenantRunner(sim::System& system, const BenchParams& params)
    : system_(system), params_(params) {
  params_.validate();
  if (!system_.sim().empty()) {
    throw std::logic_error("TenantRunner: simulator has pending events");
  }
  if (system_.iommu().config().enabled &&
      system_.iommu().config().page_bytes != params_.page_bytes) {
    throw std::logic_error(
        "TenantRunner: system IOMMU page size differs from buffer pages");
  }
  buffers_.reserve(system_.function_count());
  for (unsigned vf = 0; vf < system_.function_count(); ++vf) {
    buffers_.push_back(
        std::make_unique<sim::HostBuffer>(tenant_buffer_config(params_, vf)));
    system_.attach_buffer(buffers_.back().get(), vf);
  }
  // Cache-state preparation, one tenant at a time (deterministic even
  // when the weakened uncore makes them all the same physical cache).
  for (unsigned vf = 0; vf < system_.function_count(); ++vf) {
    system_.thrash_cache(vf);
    switch (params_.cache_state) {
      case CacheState::Thrash:
        break;
      case CacheState::HostWarm:
        system_.warm_host(*buffers_[vf], 0, params_.window_bytes, vf);
        break;
      case CacheState::DeviceWarm:
        system_.warm_device(*buffers_[vf], 0, params_.window_bytes, vf);
        break;
    }
  }
  system_.iommu().flush_tlb();
  system_.iommu().reset_stats();
  for (unsigned vf = 0; vf < system_.function_count(); ++vf) {
    system_.memory(vf).cache().reset_stats();
  }
}

TenantRunner::~TenantRunner() {
  for (unsigned vf = 0; vf < buffers_.size(); ++vf) {
    system_.attach_buffer(nullptr, vf);
  }
}

std::vector<TenantResult> TenantRunner::run() {
  auto& sim = system_.sim();
  const std::uint32_t sz = params_.transfer_size;
  const bool cmd_if = params_.use_cmd_if;
  const BenchKind kind = params_.kind;
  const Picos res = system_.device(0).profile().timestamp_resolution;
  const auto quantize = [res](Picos t) {
    return res > 0 ? t / res * res : t;
  };

  struct VfState {
    std::unique_ptr<AddressSequence> seq;
    std::size_t remaining = 0;
    std::size_t discard = 0;
    std::uint64_t op_index = 0;
    Picos t0 = 0;
    Picos start_time = 0;
    Picos end_time = 0;
    std::uint64_t base_delivered = 0;
    std::uint64_t base_lost = 0;
    std::uint64_t base_failed = 0;
    /// Posted-write retire tracking: the serial op order means "retired
    /// bytes caught up with expected bytes" completes exactly one op.
    std::uint64_t write_expected = 0;
    std::uint64_t write_retired = 0;
    bool waiting_write = false;
    obs::Digest digest;
    std::function<void()> issue_next;
  };
  std::vector<VfState> st(system_.function_count());

  const auto begin_measurement = [&](unsigned vf) {
    VfState& s = st[vf];
    s.start_time = sim.now();
    s.base_delivered = system_.function(vf).delivered_bytes();
    s.base_lost = system_.function(vf).lost_write_bytes();
    s.base_failed = system_.device(vf).failed_read_bytes();
  };

  for (unsigned vf = 0; vf < system_.function_count(); ++vf) {
    VfState& s = st[vf];
    const BenchParams p = tenant_params(params_, vf);
    s.seq = std::make_unique<AddressSequence>(p, *buffers_[vf]);
    s.remaining = params_.warmup + params_.iterations;
    s.discard = params_.warmup;

    auto complete_op = [&, vf] {
      VfState& v = st[vf];
      if (v.discard > 0) {
        if (--v.discard == 0) begin_measurement(vf);
      } else {
        v.digest.add(static_cast<std::uint64_t>(quantize(sim.now() - v.t0)));
        v.end_time = sim.now();
      }
      v.issue_next();
    };

    s.issue_next = [&, vf, complete_op] {
      VfState& v = st[vf];
      if (v.remaining == 0) return;
      --v.remaining;
      const std::uint64_t addr = v.seq->next();
      v.t0 = sim.now();
      const std::uint64_t n = v.op_index++;
      auto& d = system_.device(vf);
      switch (kind) {
        case BenchKind::LatWrRd:
          d.dma_write(
              addr, sz,
              [&, addr, complete_op] {
                system_.device(vf).dma_read(addr, sz, complete_op, cmd_if);
              },
              cmd_if);
          return;
        case BenchKind::LatRd:
        case BenchKind::BwRd:
          d.dma_read(addr, sz, complete_op, cmd_if);
          return;
        case BenchKind::BwRdWr:
          if (n % 2 == 0) {
            d.dma_read(addr, sz, complete_op, cmd_if);
            return;
          }
          [[fallthrough]];
        case BenchKind::BwWr:
          // The op completes when the payload retires at the RC —
          // committed or accounted lost — via the observers below.
          v.write_expected += sz;
          v.waiting_write = true;
          d.dma_write(addr, sz, [] {}, cmd_if);
          return;
      }
    };

    // complete_op copied by value: the observer outlives this loop
    // iteration, so a by-reference capture would dangle (and alias every
    // VF's observer onto the last iteration's stack slot).
    const auto on_write_retire = [&, vf, complete_op](std::uint32_t bytes) {
      VfState& v = st[vf];
      v.write_retired += bytes;
      if (v.waiting_write && v.write_retired >= v.write_expected) {
        v.waiting_write = false;
        complete_op();
      }
    };
    system_.function(vf).set_write_observer(on_write_retire);
    system_.function(vf).set_write_drop_observer(on_write_retire);
  }

  for (unsigned vf = 0; vf < system_.function_count(); ++vf) {
    if (st[vf].discard == 0) begin_measurement(vf);
    st[vf].issue_next();
  }
  sim.run();
  for (unsigned vf = 0; vf < system_.function_count(); ++vf) {
    system_.function(vf).set_write_observer({});
    system_.function(vf).set_write_drop_observer({});
  }
  system_.check_deadlock();
  for (unsigned vf = 0; vf < system_.function_count(); ++vf) {
    if (st[vf].remaining != 0 || st[vf].waiting_write) {
      throw std::logic_error("TenantRunner: vf " + std::to_string(vf) +
                             " lost transactions");
    }
  }

  std::vector<TenantResult> results(system_.function_count());
  for (unsigned vf = 0; vf < system_.function_count(); ++vf) {
    VfState& s = st[vf];
    const sim::PcieFunction& fn = system_.function(vf);
    TenantResult& r = results[vf];
    r.vf = vf;
    r.latency = std::move(s.digest);
    r.counters = system_.counters_line(vf);
    r.ops = params_.iterations;
    const std::uint64_t per_op =
        kind == BenchKind::LatWrRd ? 2ull * sz : static_cast<std::uint64_t>(sz);
    r.payload_bytes = per_op * params_.iterations;
    r.lost_payload_bytes = (fn.lost_write_bytes() - s.base_lost) +
                           (fn.device().failed_read_bytes() - s.base_failed);
    r.elapsed = s.end_time > s.start_time ? s.end_time - s.start_time : 0;
    r.goodput_gbps = gbps(fn.delivered_bytes() - s.base_delivered, r.elapsed);
  }
  return results;
}

std::vector<TenantResult> run_tenant_bench(sim::System& system,
                                           const BenchParams& params) {
  return TenantRunner(system, params).run();
}

}  // namespace pcieb::core
