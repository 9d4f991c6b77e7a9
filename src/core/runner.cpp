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

sim::BufferConfig buffer_config(const BenchParams& p) {
  sim::BufferConfig cfg;
  cfg.size_bytes = std::max(kMinBufferBytes, p.window_bytes);
  cfg.page_bytes = p.page_bytes;
  cfg.local = p.numa_local;
  cfg.seed = p.seed ^ 0xb0ff'e12aULL;
  return cfg;
}

}  // namespace

BenchRunner::BenchRunner(sim::System& system, const BenchParams& params)
    : system_(system), params_(params), buffer_(buffer_config(params)) {
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
  prepare_state();
  system_.attach_buffer(&buffer_);
}

BenchRunner::~BenchRunner() { system_.attach_buffer(nullptr); }

void BenchRunner::prepare_state() {
  obs::ProfScope prof(obs::CostCenter::SystemBuild);
  system_.thrash_cache();
  switch (params_.cache_state) {
    case CacheState::Thrash:
      break;
    case CacheState::HostWarm:
      system_.warm_host(buffer_, 0, params_.window_bytes);
      break;
    case CacheState::DeviceWarm:
      system_.warm_device(buffer_, 0, params_.window_bytes);
      break;
  }
  system_.iommu().flush_tlb();
  system_.iommu().reset_stats();
  system_.memory().cache().reset_stats();
}

Picos BenchRunner::quantize(Picos t) const {
  const Picos res = system_.device().profile().timestamp_resolution;
  if (res <= 0) return t;
  return t / res * res;
}

void BenchRunner::mark_phase(std::uint8_t phase) const {
  if (auto* sink = system_.trace_sink()) {
    sink->record({system_.sim().now(), 0, 0, 0, 0,
                  obs::EventKind::BenchPhase, obs::Component::Bench, phase});
  }
}

LatencyResult BenchRunner::run_latency() {
  if (!is_latency(params_.kind)) {
    throw std::logic_error("run_latency: params describe a bandwidth test");
  }
  auto& sim = system_.sim();
  auto& dev = system_.device();
  AddressSequence seq(params_, buffer_);
  SampleSet samples;
  samples.reserve(params_.iterations);

  std::size_t remaining = params_.warmup + params_.iterations;
  std::size_t discard = params_.warmup;
  const std::uint32_t sz = params_.transfer_size;
  const bool cmd_if = params_.use_cmd_if;
  const bool wrrd = params_.kind == BenchKind::LatWrRd;

  mark_phase(discard > 0 ? 0 : 1);
  std::function<void()> issue_next = [&] {
    if (remaining == 0) return;
    --remaining;
    const std::uint64_t addr = seq.next();
    const Picos t0 = sim.now();
    auto record_and_continue = [&, t0] {
      if (discard > 0) {
        if (--discard == 0) mark_phase(1);
      } else {
        samples.add(to_nanos(quantize(sim.now() - t0)));
      }
      issue_next();
    };
    if (wrrd) {
      // §4.1: a posted write followed by a read from the same address;
      // PCIe ordering makes the root complex handle the read after the
      // write. The read is issued once the write's TLPs are on the wire.
      dev.dma_write(
          addr, sz,
          [&, addr, record_and_continue] {
            dev.dma_read(addr, sz, record_and_continue, cmd_if);
          },
          cmd_if);
    } else {
      dev.dma_read(addr, sz, record_and_continue, cmd_if);
    }
  };
  issue_next();
  sim.run();
  system_.check_deadlock();

  LatencyResult result{params_, std::move(samples), {}};
  result.summary = summarize_latency(result.samples_ns);
  return result;
}

BandwidthResult BenchRunner::run_bandwidth() {
  if (is_latency(params_.kind)) {
    throw std::logic_error("run_bandwidth: params describe a latency test");
  }
  auto& sim = system_.sim();
  auto& dev = system_.device();
  AddressSequence seq(params_, buffer_);
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
    std::uint64_t write_bytes_committed = 0;
    std::uint64_t write_bytes_dropped = 0;
    Picos end_time = sim.now();

    // Committed and dropped writes both retire offered bytes — a faulted
    // stream must still terminate, with the loss reported as goodput.
    const auto maybe_finish_writes = [&] {
      if (write_bytes_committed + write_bytes_dropped >= write_bytes_expected) {
        end_time = std::max(end_time, sim.now());
      }
    };
    system_.set_write_observer([&](std::uint32_t bytes) {
      write_bytes_committed += bytes;
      maybe_finish_writes();
    });
    system_.set_write_drop_observer([&](std::uint32_t bytes) {
      write_bytes_dropped += bytes;
      maybe_finish_writes();
    });

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
    system_.set_write_observer({});
    system_.set_write_drop_observer({});

    // The watchdog's quiescent check turns a swallowed completion into a
    // diagnostic rather than the bare "lost transactions" below.
    system_.check_deadlock();
    if (reads_done != n_reads ||
        write_bytes_committed + write_bytes_dropped != write_bytes_expected) {
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
  const std::uint64_t lost_writes0 = system_.lost_write_bytes();
  const std::uint64_t failed_reads0 = dev.failed_read_bytes();
  const std::uint64_t up_wire0 = system_.upstream().wire_bytes_sent();
  const std::uint64_t down_wire0 = system_.downstream().wire_bytes_sent();
  const std::uint64_t delivered0 =
      system_.root_complex().write_bytes_committed() +
      dev.read_payload_delivered();
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
  result.lost_payload_bytes = (system_.lost_write_bytes() - lost_writes0) +
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
    const std::uint64_t delivered_end =
        system_.root_complex().write_bytes_committed() +
        dev.read_payload_delivered();
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

}  // namespace pcieb::core
