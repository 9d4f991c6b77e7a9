#include "core/runner.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/addressing.hpp"
#include "obs/profiler.hpp"

namespace pcieb::core {
namespace {

/// Buffers are sized well beyond the largest LLC we model (§4: "must be
/// significantly larger than the size of the Last Level Cache").
constexpr std::uint64_t kMinBufferBytes = 64ull << 20;

/// Seed step between a per-function run's functions.
constexpr std::uint64_t kFunctionSeedStep = 0x9e3779b97f4a7c15ULL;

/// Function `f`'s buffer at IOVA 1 GB·(f + 1), so functions never alias
/// in caches or the IO-TLB. `salt` perturbs the chunk scatter: 0 for a
/// lone run, f + 1 for a per-function run.
sim::BufferConfig buffer_config(const BenchParams& p, unsigned f,
                                std::uint64_t salt) {
  sim::BufferConfig cfg;
  cfg.size_bytes = std::max(kMinBufferBytes, p.window_bytes);
  cfg.page_bytes = p.page_bytes;
  cfg.local = p.numa_local;
  cfg.seed = (p.seed ^ 0xb0ff'e12aULL) + kFunctionSeedStep * salt;
  cfg.base_iova = 0x4000'0000ull * (f + 1);
  return cfg;
}

}  // namespace

/// One driven function's serial op stream: op N+1 issues when op N
/// completes, and the first `warmup` ops are discarded.
struct BenchRunner::Stream {
  unsigned f;
  AddressSequence seq;
  std::size_t remaining;
  std::size_t discard;
  std::uint64_t issued = 0;
  Picos t0 = 0;  ///< the op in flight's issue time
  // The measurement phase's bounds and the function's ledgers at its start.
  Picos start_time = 0;
  Picos end_time = 0;
  std::uint64_t delivered0 = 0;
  std::uint64_t lost_writes0 = 0;
  std::uint64_t failed_reads0 = 0;
  /// The in-flight posted write's payload not yet committed or dropped.
  std::uint64_t write_pending = 0;
};

BenchRunner::BenchRunner(sim::System& system, const BenchParams& params)
    : BenchRunner(system, params, /*per_function=*/false) {}

BenchRunner BenchRunner::per_function(sim::System& system,
                                      const BenchParams& params) {
  return BenchRunner(system, params, /*per_function=*/true);
}

BenchRunner::BenchRunner(sim::System& system, const BenchParams& params,
                         bool per_function)
    : system_(system), params_(params) {
  params_.validate();
  if (!system_.sim().empty()) {
    throw std::logic_error("BenchRunner: simulator has pending events");
  }
  // The IOMMU granule follows the buffer's backing page size.
  if (system_.iommu().config().enabled &&
      system_.iommu().config().page_bytes != params_.page_bytes) {
    throw std::logic_error(
        "BenchRunner: system IOMMU page size differs from buffer pages; "
        "configure IommuConfig::page_bytes to match BenchParams::page_bytes");
  }
  const unsigned functions = per_function ? system_.function_count() : 1;
  targets_.reserve(functions);
  for (unsigned f = 0; f < functions; ++f) {
    const std::uint64_t salt = per_function ? f + 1 : 0;
    BenchParams p = params_;
    p.seed += kFunctionSeedStep * salt;
    targets_.push_back({sim::HostBuffer(buffer_config(params_, f, salt)), p});
  }
  prepare_state();
  for (unsigned f = 0; f < functions; ++f) {
    system_.attach_buffer(&targets_[f].buffer, f);
  }
}

BenchRunner::~BenchRunner() {
  for (unsigned f = 0; f < targets_.size(); ++f) {
    system_.attach_buffer(nullptr, f);
  }
}

void BenchRunner::prepare_state() {
  obs::ProfScope prof(obs::CostCenter::SystemBuild);
  // One function at a time, thrash then warm: deterministic even when a
  // weakened uncore makes them one physical cache, which each thrash
  // refills.
  const std::uint64_t window = params_.window_bytes;
  for (unsigned f = 0; f < targets_.size(); ++f) {
    system_.thrash_cache(f);
    if (params_.cache_state == CacheState::HostWarm) {
      system_.warm_host(targets_[f].buffer, 0, window, f);
    } else if (params_.cache_state == CacheState::DeviceWarm) {
      system_.warm_device(targets_[f].buffer, 0, window, f);
    }
  }
  system_.iommu().flush_tlb();
  system_.iommu().reset_stats();
  for (unsigned f = 0; f < targets_.size(); ++f) {
    system_.memory(f).cache().reset_stats();
  }
}

void BenchRunner::mark_phase(std::uint8_t phase) const {
  if (auto* sink = system_.trace_sink()) {
    sink->record({system_.sim().now(), 0, 0, 0, 0,
                  obs::EventKind::BenchPhase, obs::Component::Bench, phase});
  }
}

std::vector<BenchRunner::Stream> BenchRunner::run_serial(
    unsigned functions, const std::function<void(unsigned, Picos)>& sample,
    const std::function<void()>& measuring) {
  auto& sim = system_.sim();
  const std::uint32_t sz = params_.transfer_size;
  const bool cmd_if = params_.use_cmd_if;
  // Latencies are quantized to function 0's timestamp counter.
  const Picos res = system_.device().profile().timestamp_resolution;
  std::vector<Stream> streams;
  streams.reserve(functions);
  for (unsigned f = 0; f < functions; ++f) {
    const BenchParams& p = targets_[f].params;
    streams.push_back({f, AddressSequence(p, targets_[f].buffer),
                       p.warmup + p.iterations, p.warmup});
  }

  const auto begin_measurement = [&](Stream& s) {
    const sim::PcieFunction& fn = system_.function(s.f);
    s.start_time = sim.now();
    s.delivered0 = fn.delivered_bytes();
    s.lost_writes0 = fn.lost_write_bytes();
    s.failed_reads0 = fn.device().failed_read_bytes();
    if (measuring) measuring();
  };
  std::function<void(Stream&)> issue;
  const auto complete = [&](Stream& s) {
    if (s.discard > 0) {
      if (--s.discard == 0) begin_measurement(s);
    } else {
      s.end_time = sim.now();
      const Picos latency = sim.now() - s.t0;
      sample(s.f, res > 0 ? latency / res * res : latency);
    }
    issue(s);
  };
  issue = [&](Stream& s) {
    if (s.remaining == 0) return;
    --s.remaining;
    const std::uint64_t addr = s.seq.next();
    s.t0 = sim.now();
    const std::uint64_t n = s.issued++;
    sim::DmaDevice& dev = system_.device(s.f);
    const auto done = [&complete, &s] { complete(s); };
    switch (params_.kind) {
      case BenchKind::LatWrRd:
        // §4.1: a posted write followed by a read from the same address;
        // PCIe ordering makes the root complex handle the read after the
        // write. The read is issued once the write's TLPs are on the wire.
        dev.dma_write(
            addr, sz,
            [&dev, addr, sz, cmd_if, done] {
              dev.dma_read(addr, sz, done, cmd_if);
            },
            cmd_if);
        return;
      case BenchKind::LatRd:
      case BenchKind::BwRd:
        dev.dma_read(addr, sz, done, cmd_if);
        return;
      case BenchKind::BwRdWr:
        if (n % 2 == 0) {
          dev.dma_read(addr, sz, done, cmd_if);
          return;
        }
        [[fallthrough]];
      case BenchKind::BwWr:
        // The op completes when its payload retires at the root complex,
        // committed or accounted lost, through the observers below.
        s.write_pending = sz;
        dev.dma_write(addr, sz, [] {}, cmd_if);
        return;
    }
  };

  for (Stream& s : streams) {
    // A LAT_WRRD write retires with nothing pending: its read completes it.
    const auto on_write_retire = [&complete, &s](std::uint32_t bytes) {
      if (s.write_pending == 0) return;
      s.write_pending -= std::min<std::uint64_t>(bytes, s.write_pending);
      if (s.write_pending == 0) complete(s);
    };
    system_.function(s.f).set_write_observer(on_write_retire);
    system_.function(s.f).set_write_drop_observer(on_write_retire);
  }
  for (Stream& s : streams) {
    if (s.discard == 0) begin_measurement(s);
    issue(s);
  }
  sim.run();
  for (Stream& s : streams) {
    system_.function(s.f).set_write_observer({});
    system_.function(s.f).set_write_drop_observer({});
  }
  system_.check_deadlock();
  for (const Stream& s : streams) {
    if (s.remaining != 0 || s.write_pending != 0) {
      throw std::logic_error("BenchRunner: vf " + std::to_string(s.f) +
                             " lost transactions");
    }
  }
  return streams;
}

LatencyResult BenchRunner::run_latency() {
  if (!is_latency(params_.kind)) {
    throw std::logic_error("run_latency: params describe a bandwidth test");
  }
  LatencyResult result{params_, {}, {}};
  result.samples_ns.reserve(params_.iterations);
  if (params_.warmup > 0) mark_phase(0);
  run_serial(
      1,
      [&](unsigned, Picos latency) {
        result.samples_ns.add(to_nanos(latency));
      },
      [this] { mark_phase(1); });
  result.summary = summarize_latency(result.samples_ns);
  return result;
}

std::vector<TenantResult> BenchRunner::run_tenants() {
  std::vector<TenantResult> results(targets_.size());
  const std::vector<Stream> streams = run_serial(
      static_cast<unsigned>(targets_.size()),
      [&](unsigned f, Picos latency) {
        results[f].latency.add(static_cast<std::uint64_t>(latency));
      },
      {});
  const std::uint64_t per_op =
      (params_.kind == BenchKind::LatWrRd ? 2ull : 1ull) *
      params_.transfer_size;
  for (const Stream& s : streams) {
    const sim::PcieFunction& fn = system_.function(s.f);
    TenantResult& r = results[s.f];
    r.vf = s.f;
    r.counters = system_.counters_line(s.f);
    r.ops = params_.iterations;
    r.payload_bytes = per_op * params_.iterations;
    r.lost_payload_bytes = (fn.lost_write_bytes() - s.lost_writes0) +
                           (fn.device().failed_read_bytes() - s.failed_reads0);
    r.elapsed = s.end_time > s.start_time ? s.end_time - s.start_time : 0;
    r.goodput_gbps = gbps(fn.delivered_bytes() - s.delivered0, r.elapsed);
  }
  return results;
}

BandwidthResult BenchRunner::run_bandwidth() {
  if (is_latency(params_.kind)) {
    throw std::logic_error("run_bandwidth: params describe a latency test");
  }
  auto& sim = system_.sim();
  sim::PcieFunction& fn = system_.function();
  auto& dev = fn.device();
  AddressSequence seq(targets_[0].params, targets_[0].buffer);
  const std::uint32_t sz = params_.transfer_size;

  // One bandwidth phase: a shared work counter decremented by a pool of
  // logical workers, mirroring the NFP firmware's atomic-counter scheme
  // (§5.1). Returns the time of the last completion event.
  auto run_phase = [&](std::size_t total) -> Picos {
    std::size_t n_reads = 0;
    std::size_t n_writes = 0;
    switch (params_.kind) {
      case BenchKind::BwRd: n_reads = total; break;
      case BenchKind::BwWr: n_writes = total; break;
      case BenchKind::BwRdWr:
        n_reads = (total + 1) / 2;  // even indices read, odd write
        n_writes = total / 2;
        break;
      default: break;
    }
    const std::uint64_t write_bytes_expected =
        static_cast<std::uint64_t>(n_writes) * sz;

    std::size_t counter = total;
    std::size_t issued = 0;
    std::size_t reads_done = 0;
    std::uint64_t write_bytes_retired = 0;
    Picos end_time = sim.now();

    // Committed and dropped writes both retire offered bytes — a faulted
    // stream must still terminate, with the loss reported as goodput.
    const auto on_write_retire = [&](std::uint32_t bytes) {
      write_bytes_retired += bytes;
      if (write_bytes_retired >= write_bytes_expected) {
        end_time = std::max(end_time, sim.now());
      }
    };
    fn.set_write_observer(on_write_retire);
    fn.set_write_drop_observer(on_write_retire);

    std::function<void()> work = [&] {
      if (counter == 0) return;
      --counter;
      const std::size_t n = issued++;
      const bool is_read = params_.kind == BenchKind::BwRd ||
                           (params_.kind == BenchKind::BwRdWr && n % 2 == 0);
      const std::uint64_t addr = seq.next();
      if (is_read) {
        dev.dma_read(addr, sz, [&] {
          ++reads_done;
          if (reads_done >= n_reads) end_time = std::max(end_time, sim.now());
          work();
        });
      } else {
        // For posted writes the worker continues once the engine accepted
        // the descriptor's TLPs; commits are tracked via the root complex.
        dev.dma_write(addr, sz, [&] { work(); });
      }
    };
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(kBandwidthWorkers, total));
    for (unsigned w = 0; w < workers; ++w) work();
    sim.run();
    fn.set_write_observer({});
    fn.set_write_drop_observer({});

    // The watchdog's quiescent check turns a swallowed completion into a
    // diagnostic rather than the bare "lost transactions" below.
    system_.check_deadlock();
    if (reads_done != n_reads || write_bytes_retired != write_bytes_expected) {
      throw std::logic_error("run_bandwidth: lost transactions");
    }
    return end_time;
  };

  if (params_.warmup > 0) {
    mark_phase(0);
    run_phase(params_.warmup);
  }
  mark_phase(1);
  const std::size_t total = params_.iterations;
  const Picos start_time = sim.now();
  // Deltas over the measurement phase only (warmup faults don't count).
  const std::uint64_t lost_writes0 = fn.lost_write_bytes();
  const std::uint64_t failed_reads0 = dev.failed_read_bytes();
  const std::uint64_t up_wire0 = system_.upstream().wire_bytes_sent();
  const std::uint64_t down_wire0 = system_.downstream().wire_bytes_sent();
  const std::uint64_t delivered0 = fn.delivered_bytes();
  const Picos end_time = run_phase(total);

  BandwidthResult result;
  result.params = params_;
  // BW_RDWR reports per-direction goodput (read payload flows down while
  // write payload flows up at the same rate), matching Fig 4c's axis.
  result.payload_bytes = params_.kind == BenchKind::BwRdWr
                             ? static_cast<std::uint64_t>(total) * sz / 2
                             : static_cast<std::uint64_t>(total) * sz;
  result.elapsed = end_time - start_time;
  result.gbps = gbps(result.payload_bytes, result.elapsed);
  result.mtps =
      result.elapsed > 0
          ? static_cast<double>(total) /
                (static_cast<double>(result.elapsed) * 1e-12) / 1e6
          : 0.0;

  // Goodput vs wire throughput: goodput subtracts payload lost to faults
  // (dropped/rejected writes, reads whose retries were exhausted); wire
  // counts every byte the payload-carrying direction(s) actually moved —
  // headers, replays and retries included.
  result.lost_payload_bytes = (fn.lost_write_bytes() - lost_writes0) +
                              (dev.failed_read_bytes() - failed_reads0);
  const std::uint64_t delivered =
      result.payload_bytes > result.lost_payload_bytes
          ? result.payload_bytes - result.lost_payload_bytes
          : 0;
  result.goodput_gbps = gbps(delivered, result.elapsed);
  const std::uint64_t up_wire = system_.upstream().wire_bytes_sent() - up_wire0;
  const std::uint64_t down_wire =
      system_.downstream().wire_bytes_sent() - down_wire0;
  switch (params_.kind) {
    case BenchKind::BwRd: result.wire_bytes = down_wire; break;
    case BenchKind::BwWr: result.wire_bytes = up_wire; break;
    default: result.wire_bytes = up_wire + down_wire; break;
  }
  result.wire_gbps = gbps(result.wire_bytes, result.elapsed);

  // Recovery-phase goodput: when the escalation ladder fired during the
  // measurement phase, split delivered payload into before / during /
  // after windows. Each RecoveryEvent snapshots delivered bytes at
  // transition time, so the split needs no extra sampling machinery.
  if (const auto* rec = system_.recovery()) {
    const std::uint64_t delivered_end = fn.delivered_bytes();
    Picos t_first = -1;
    Picos t_recov = -1;
    std::uint64_t b_first = 0;
    std::uint64_t b_recov = 0;
    std::uint64_t in_phase = 0;
    for (const auto& e : rec->events()) {
      if (e.ts < start_time) continue;
      ++in_phase;
      // Ladder events after the last completion (e.g. a probation timer
      // expiring post-drain) attribute to the run's very end.
      const Picos ts = std::min(e.ts, end_time);
      if (t_first < 0) {
        t_first = ts;
        b_first = e.bytes;
      }
      if (e.to == fault::RecoveryState::Operational ||
          e.to == fault::RecoveryState::Quarantined) {
        t_recov = ts;
        b_recov = e.bytes;
      }
    }
    if (t_first >= 0) {
      BandwidthResult::RecoveryPhases ph;
      ph.transitions = in_phase;
      ph.first_activation = t_first;
      const bool converged_in_phase = t_recov >= t_first;
      ph.last_recovery = converged_in_phase ? t_recov : end_time;
      if (!converged_in_phase) b_recov = delivered_end;
      ph.before_gbps = gbps(b_first - delivered0, t_first - start_time);
      ph.during_gbps = gbps(b_recov - b_first, ph.last_recovery - t_first);
      ph.after_gbps =
          gbps(delivered_end - b_recov, end_time - ph.last_recovery);
      ph.final_state = fault::to_string(rec->state());
      result.recovery = ph;
    }
  }
  return result;
}

LatencyResult run_latency_bench(sim::System& system, const BenchParams& p) {
  return BenchRunner(system, p).run_latency();
}

BandwidthResult run_bandwidth_bench(sim::System& system, const BenchParams& p) {
  return BenchRunner(system, p).run_bandwidth();
}

std::vector<TenantResult> run_tenant_bench(sim::System& system,
                                           const BenchParams& params) {
  return BenchRunner::per_function(system, params).run_tenants();
}

}  // namespace pcieb::core
