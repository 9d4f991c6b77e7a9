#include "core/multi_runner.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "core/addressing.hpp"
#include "core/runner.hpp"
#include "exec/journal.hpp"
#include "exec/thread_pool.hpp"
#include "sim/host_buffer.hpp"

namespace pcieb::core {
namespace {

constexpr unsigned kWorkersPerDevice = 32;

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
  const unsigned devices =
      spec.active_devices == 0
          ? system.device_count()
          : std::min(spec.active_devices, system.device_count());

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
  addr_params.cache_state = spec.cache_state;
  addr_params.page_bytes = spec.page_bytes;
  addr_params.iterations = spec.iterations;
  addr_params.validate();

  system.thrash_cache();
  for (unsigned d = 0; d < devices; ++d) {
    sim::BufferConfig buf_cfg;
    buf_cfg.size_bytes = std::max<std::uint64_t>(64ull << 20, spec.window_bytes);
    buf_cfg.page_bytes = spec.page_bytes;
    buf_cfg.base_iova = 0x4000'0000ull + d * (1ull << 38);
    buf_cfg.seed = spec.seed ^ (d * 0x9e37ULL);
    runs[d].buffer = std::make_unique<sim::HostBuffer>(buf_cfg);
    BenchParams p = addr_params;
    p.seed = spec.seed + d * 7919;
    runs[d].seq = std::make_unique<AddressSequence>(p, *runs[d].buffer);
    if (spec.cache_state == CacheState::HostWarm) {
      system.warm_host(*runs[d].buffer, 0, spec.window_bytes);
    }
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

template MultiDeviceResult run_multi_device_bandwidth(sim::MultiDeviceSystem&,
                                                      const MultiDeviceSpec&);
template MultiDeviceResult run_multi_device_bandwidth(sim::SwitchedSystem&,
                                                      const MultiDeviceSpec&);

namespace {

std::string artifact_filename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '.') {
      c = '_';
    }
  }
  return out;
}

std::string experiment_artifact_text(const Experiment& e,
                                     const exec::JobResult& job) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "# pciebench quarantined-experiment artifact\n"
     << "experiment: " << e.name << '\n'
     << "system: " << e.system_name << '\n'
     << "status: quarantined\n"
     << "classification: " << job.outcome.classify() << '\n'
     << "attempts: " << job.attempts << '\n'
     << "wall_seconds_last_attempt: " << job.outcome.wall_seconds << '\n'
     << "peak_rss_bytes: " << job.outcome.peak_rss_bytes << '\n'
     << "stderr tail:\n";
  if (job.outcome.stderr_tail.empty()) {
    os << "  (empty)\n";
  } else {
    std::istringstream tail(job.outcome.stderr_tail);
    std::string line;
    while (std::getline(tail, line)) os << "  " << line << '\n';
  }
  os << "repro:\n  "
     << cli_run_command(e.system_name, e.params, /*iommu=*/false,
                        /*faults_spec=*/"", /*fault_seed=*/0,
                        /*monitors=*/false)
     << '\n';
  return os.str();
}

}  // namespace

MultiRunner::MultiRunner(const Suite& suite, IsolatedRunConfig cfg)
    : suite_(suite), cfg_(std::move(cfg)) {}

IsolatedRunResult MultiRunner::run(const std::string& filter,
                                   const Progress& progress,
                                   const QuarantineHook& on_quarantine) {
  IsolatedRunResult res;
  res.journal_dir = cfg_.journal_dir.empty()
                        ? exec::make_temp_dir("pcieb-suite-")
                        : cfg_.journal_dir;
  exec::Journal journal(res.journal_dir);
  res.artifacts_dir = res.journal_dir + "/artifacts";
  std::error_code ec;
  std::filesystem::create_directories(res.artifacts_dir, ec);
  if (ec) {
    throw exec::InfraError("cannot create artifacts dir " + res.artifacts_dir +
                           ": " + ec.message());
  }
  exec::PoolConfig pool = cfg_.pool;
  if (pool.scratch_dir.empty()) pool.scratch_dir = res.journal_dir + "/scratch";

  const auto& experiments = suite_.experiments();
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    if (filter.empty() ||
        experiments[i].name.find(filter) != std::string::npos) {
      selected.push_back(i);
    }
  }

  // Resumed records: the journal's payloads are exactly the worker
  // payloads, so deserialize_record both validates and reconstitutes
  // them. A record naming a different experiment (journal reuse across
  // suite definitions) is ignored and the experiment re-runs.
  std::map<std::size_t, ExperimentRecord> done;
  if (cfg_.resume) {
    const auto loaded = exec::Journal::load(res.journal_dir);
    for (const std::size_t idx : selected) {
      const auto it = loaded.find(idx);
      if (it == loaded.end()) continue;
      if (auto rec = deserialize_record(it->second, experiments[idx])) {
        if (progress) progress(*rec);
        done.emplace(idx, std::move(*rec));
        ++res.resumed;
      }
    }
  }

  std::vector<std::size_t> pending;
  for (const std::size_t idx : selected) {
    if (done.count(idx)) continue;
    if (cfg_.stop_after != 0 && pending.size() >= cfg_.stop_after) break;
    pending.push_back(idx);
  }

  // Quarantined experiments get a failure artifact but — unlike chaos
  // trials — no journal record: they produced no result, so a resumed
  // suite gives them another chance instead of skipping them.
  std::map<std::size_t, exec::JobResult> quarantined;

  if (cfg_.threads > 0) {
    // In-process thread-parallel mode: same journal, artifacts and hooks
    // as fork isolation, minus the process boundary. The journal, the
    // done map and the user hooks are serialized on one mutex; everything
    // byte-stable is later derived from `done` in selected order, never
    // from completion order.
    std::mutex m;
    exec::ThreadPool threads(cfg_.threads);
    threads.parallel_indexed(pending.size(), [&](std::size_t i) {
      const std::size_t idx = pending[i];
      const Experiment& e = experiments[idx];
      try {
        ExperimentRecord rec = run_experiment(e);
        const std::string payload = serialize_record(rec);
        std::lock_guard<std::mutex> lock(m);
        journal.append(idx, payload);
        if (progress) progress(rec);
        done.emplace(idx, std::move(rec));
      } catch (const std::exception& ex) {
        // No retries in-process: the first throw quarantines, with the
        // same artifact shape the fork path produces.
        exec::JobResult job;
        job.id = idx;
        job.name = e.name;
        job.outcome.kind = exec::OutcomeKind::NonzeroExit;
        job.outcome.exit_code = 1;
        job.outcome.stderr_tail = std::string(ex.what()) + "\n";
        job.attempts = 1;
        job.quarantined = true;
        std::lock_guard<std::mutex> lock(m);
        exec::atomic_write_file(
            res.artifacts_dir + "/" + artifact_filename(job.name) + ".txt",
            experiment_artifact_text(e, job), /*sync=*/true);
        if (on_quarantine) on_quarantine(job.name, job);
        quarantined.emplace(idx, std::move(job));
      }
    });
  } else {
    std::vector<exec::JobSpec> specs;
    specs.reserve(pending.size());
    for (const std::size_t idx : pending) {
      exec::JobSpec spec;
      spec.id = idx;
      spec.name = experiments[idx].name;
      const Experiment e = experiments[idx];  // by value across fork
      spec.fn = [e](unsigned) {
        return serialize_record(run_experiment(e));
      };
      specs.push_back(std::move(spec));
    }
    exec::run_jobs(pool, specs, [&](const exec::JobResult& job) {
      const auto idx = static_cast<std::size_t>(job.id);
      auto rec = job.quarantined
                     ? std::nullopt
                     : deserialize_record(job.outcome.payload, experiments[idx]);
      if (!rec) {
        exec::atomic_write_file(
            res.artifacts_dir + "/" + artifact_filename(job.name) + ".txt",
            experiment_artifact_text(experiments[idx], job), /*sync=*/true);
        if (on_quarantine) on_quarantine(job.name, job);
        quarantined.emplace(idx, job);
        return;
      }
      journal.append(job.id, job.outcome.payload);
      if (progress) progress(*rec);
      done.emplace(idx, std::move(*rec));
    });
  }

  for (const std::size_t idx : selected) {
    const auto it = done.find(idx);
    if (it != done.end()) {
      res.records.push_back(std::move(it->second));
    } else if (quarantined.count(idx)) {
      res.quarantined.push_back(experiments[idx].name);
    }
  }
  return res;
}

}  // namespace pcieb::core
