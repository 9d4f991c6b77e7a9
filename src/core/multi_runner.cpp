#include "core/multi_runner.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>

#include "core/addressing.hpp"
#include "core/runner.hpp"
#include "sim/host_buffer.hpp"

namespace pcieb::core {
namespace {

constexpr unsigned kWorkersPerDevice = 32;
constexpr std::uint64_t kSeed = 42;

}  // namespace

template <typename SystemT>
MultiDeviceResult run_multi_device_bandwidth(SystemT& system,
                                             const MultiDeviceSpec& spec) {
  if (spec.kind != BenchKind::BwRd && spec.kind != BenchKind::BwWr) {
    throw std::invalid_argument(
        "run_multi_device_bandwidth: only BwRd/BwWr supported");
  }
  if (spec.iterations == 0) {
    throw std::invalid_argument("run_multi_device_bandwidth: zero iterations");
  }
  auto& sim = system.sim();
  if (!sim.empty()) {
    throw std::logic_error("run_multi_device_bandwidth: pending events");
  }
  const unsigned devices = system.function_count();

  // Per-device state: a disjoint buffer and an address sequence.
  struct DeviceRun {
    std::unique_ptr<sim::HostBuffer> buffer;
    std::unique_ptr<AddressSequence> seq;
    std::size_t remaining = 0;
    std::size_t completed = 0;
    Picos end_time = 0;
  };
  std::vector<DeviceRun> runs(devices);

  BenchParams addr_params;
  addr_params.kind = spec.kind;
  addr_params.transfer_size = spec.transfer_size;
  addr_params.window_bytes = spec.window_bytes;
  addr_params.page_bytes = spec.page_bytes;
  addr_params.iterations = spec.iterations;
  addr_params.validate();

  system.thrash_cache();
  for (unsigned d = 0; d < devices; ++d) {
    sim::BufferConfig buf_cfg;
    buf_cfg.size_bytes = std::max<std::uint64_t>(64ull << 20, spec.window_bytes);
    buf_cfg.page_bytes = spec.page_bytes;
    buf_cfg.base_iova = 0x4000'0000ull + d * (1ull << 38);
    buf_cfg.seed = kSeed ^ (d * 0x9e37ULL);
    runs[d].buffer = std::make_unique<sim::HostBuffer>(buf_cfg);
    BenchParams p = addr_params;
    p.seed = kSeed + d * 7919;
    runs[d].seq = std::make_unique<AddressSequence>(p, *runs[d].buffer);
    system.warm_host(*runs[d].buffer, 0, spec.window_bytes);
  }
  system.iommu().flush_tlb();
  system.iommu().reset_stats();

  // Two phases: warmup then measured, per device, all concurrent. The
  // per-device worker closures recurse through themselves (every
  // completion launches the next transaction), so they are owned here —
  // outliving every pending callback, since sim.run() drains before this
  // scope ends — and the callbacks capture a plain pointer. Capturing a
  // shared_ptr inside its own target would cycle and never free.
  std::deque<std::function<void()>> worker_fns;
  auto run_phase = [&](std::size_t per_device) {
    for (auto& r : runs) {
      r.remaining = per_device;
      r.completed = 0;
    }
    for (unsigned d = 0; d < devices; ++d) {
      DeviceRun& r = runs[d];
      auto& dev = system.device(d);
      std::function<void()>* work = &worker_fns.emplace_back();
      *work = [&, work] {
        if (r.remaining == 0) return;
        --r.remaining;
        const std::uint64_t addr = r.seq->next();
        auto done = [&, work] {
          ++r.completed;
          r.end_time = std::max(r.end_time, sim.now());
          (*work)();
        };
        if (spec.kind == BenchKind::BwRd) {
          dev.dma_read(addr, spec.transfer_size, done);
        } else {
          dev.dma_write(addr, spec.transfer_size, done);
        }
      };
      const unsigned workers = static_cast<unsigned>(
          std::min<std::size_t>(kWorkersPerDevice, per_device));
      for (unsigned w = 0; w < workers; ++w) (*work)();
    }
    sim.run();
  };

  if (spec.warmup > 0) run_phase(spec.warmup);
  system.iommu().reset_stats();
  const Picos start = sim.now();
  run_phase(spec.iterations);

  MultiDeviceResult result;
  for (unsigned d = 0; d < devices; ++d) {
    const DeviceRun& r = runs[d];
    if (r.completed != spec.iterations) {
      throw std::logic_error("run_multi_device_bandwidth: lost transactions");
    }
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(spec.iterations) * spec.transfer_size;
    const double g = gbps(bytes, r.end_time - start);
    result.per_device_gbps.push_back(g);
    result.total_gbps += g;
  }
  result.tlb_misses = system.iommu().tlb_misses();
  result.tlb_hits = system.iommu().tlb_hits();
  return result;
}

template MultiDeviceResult run_multi_device_bandwidth(sim::System&,
                                                      const MultiDeviceSpec&);
template MultiDeviceResult run_multi_device_bandwidth(sim::SwitchedSystem&,
                                                      const MultiDeviceSpec&);

}  // namespace pcieb::core
