#include "sim/system.hpp"

#include "obs/profiler.hpp"

namespace pcieb::sim {

namespace {

const SystemConfig& validated(const SystemConfig& cfg) {
  cfg.link.validate();
  return cfg;
}

}  // namespace

System::System(const SystemConfig& cfg)
    : System(cfg, obs::ProfScope(obs::CostCenter::SystemBuild)) {}

System::System(const SystemConfig& cfg, const obs::ProfScope& /*build*/)
    : cfg_(validated(cfg)),
      up_(sim_, cfg_.link, cfg_.up_propagation, cfg_.dll),
      down_(sim_, cfg_.link, cfg_.down_propagation, cfg_.dll),
      mem_(sim_, cfg_.cache, cfg_.mem, cfg_.jitter, cfg_.seed),
      iommu_(sim_, cfg_.iommu),
      fn_(sim_, cfg_, mem_, iommu_, up_, down_) {
  wire();
}

void System::reset(const SystemConfig& cfg) {
  obs::ProfScope prof(obs::CostCenter::SystemBuild);
  cfg_ = validated(cfg);
  // Per-trial machinery first: the simulator's step hook points into the
  // watchdog and the AER listener into the recovery ladder, so both are
  // detached (sim_.reset(), then inside fn_.reset()) before the function
  // destroys either.
  sim_.reset();
  fn_.reset();
  injector_.reset();
  up_.reset(cfg_.dll);
  down_.reset(cfg_.dll);
  mem_.reset(cfg_.seed);
  iommu_.reset();
  trace_ = nullptr;
  test_leak_credits_on_drop_ = false;
  wire();
}

void System::wire() {
  up_.set_deliver(
      [this](const proto::Tlp& t) { fn_.root_complex().on_upstream(t); });
  down_.set_deliver(
      [this](const proto::Tlp& t) { fn_.device().on_downstream(t); });

  // Error reporting is always on; the injector, read timeouts and
  // watchdog arm only with a plan, keeping plan-free runs bit-identical
  // to the seed.
  up_.set_aer(&fn_.aer());
  down_.set_aer(&fn_.aer());
  iommu_.set_aer(&fn_.aer());
  if (!cfg_.fault_plan.empty()) arm_faults();
  if (cfg_.recovery.enabled) arm_recovery();
}

void System::freeze_port() {
  up_.set_blocked(true);
  down_.set_blocked(true);
}

void System::arm_faults() {
  injector_ = std::make_unique<fault::FaultInjector>(cfg_.fault_plan);
  up_.set_fault_injector(injector_.get(), /*upstream=*/true);
  down_.set_fault_injector(injector_.get(), /*upstream=*/false);
  iommu_.set_fault_injector(injector_.get());
  fn_.root_complex().set_fault_injector(injector_.get());
  fn_.device().arm_timeouts(true);

  // A surprise link-down is a physical event: the port pair goes dark
  // whether or not a recovery policy is armed. Without one the links stay
  // blocked forever (workloads terminate via drop accounting and
  // completion timeouts); the recovery ladder is what brings them back.
  up_.set_linkdown_hook([this] { freeze_port(); });
  down_.set_linkdown_hook([this] { freeze_port(); });

  // Dropped reads/completions recover via the device's completion
  // timeout; a dropped posted write is accounted at the loss site.
  up_.set_drop_hook([this](const proto::Tlp& t) {
    if (t.type != proto::TlpType::MemWr) return;
    // test_leak_credits_on_drop_ omits the credit return (and only the
    // credit return) so monitor self-tests can watch the ledger drift.
    fn_.drop_posted_write(t, !test_leak_credits_on_drop_);
  });

  fn_.arm_watchdog(cfg_.watchdog, injector_.get());
  sim_.set_step_hook(
      [this](Picos now, std::size_t executed) {
        fn_.watchdog()->on_event(now, executed);
      },
      cfg_.watchdog.check_every_events);
}

void System::arm_recovery() {
  // Recovery needs the read-timeout machinery even without a fault plan:
  // completions discarded during containment must time out and retry (or
  // fail with accounting) rather than strand their tags.
  fn_.device().arm_timeouts(true);

  // The ladder owns the whole port: every action acts on both links.
  fault::RecoveryManager::Actions a;
  a.downtrain = [this](unsigned lanes, unsigned gen) {
    up_.set_recovery_derate(lanes, gen);
    down_.set_recovery_derate(lanes, gen);
  };
  a.restore_link = [this] {
    up_.clear_recovery_derate();
    down_.clear_recovery_derate();
  };
  a.flr = [this] { fn_.device().function_level_reset(); };
  a.contain = [this] {
    freeze_port();
    fn_.root_complex().set_port_contained(true);
    fn_.root_complex().abort_host_reads();
  };
  a.hot_reset = [this] {
    // Re-enumeration: the function resets (tags aborted, write queue
    // drained, credits re-initialized by conservation), the port
    // unfreezes and retrains at full width, and the IOMMU mappings are
    // rebuilt from scratch.
    fn_.device().function_level_reset();
    up_.set_blocked(false);
    down_.set_blocked(false);
    up_.clear_recovery_derate();
    down_.clear_recovery_derate();
    fn_.root_complex().set_port_contained(false);
    iommu_.remap_after_reset();
  };
  a.on_transition = [this] {
    // Containment and reset windows are intentionally quiet; re-prime so
    // the stall detector never mistakes them for a hang.
    if (fn_.watchdog()) fn_.watchdog()->reprime();
  };
  fn_.arm_recovery(cfg_.recovery, std::move(a));
}

void System::set_trace_sink(obs::TraceSink* sink) {
  trace_ = sink;
  up_.set_trace(sink, obs::Component::LinkUp);
  down_.set_trace(sink, obs::Component::LinkDown);
  iommu_.set_trace(sink);
  mem_.set_trace(sink);
  fn_.set_trace(sink);
}

void System::register_counters(obs::CounterRegistry& reg) {
  // Monotonic uint64 totals register their member's address directly
  // (obs::CounterRegistry raw readers) — a snapshot read dereferences a
  // pointer instead of hopping through a std::function. Derived values,
  // non-uint64 sources (Picos, unsigned), and gauges keep lambdas.
  auto link_counters = [&](const char* prefix, Link* link) {
    const std::string p = prefix;
    const Link::CounterSources s = link->counter_sources();
    reg.add_counter(p + ".tlps", s.tlps);
    reg.add_counter(p + ".wire_bytes", s.wire_bytes);
    reg.add_counter(p + ".payload_bytes", s.payload_bytes);
    reg.add_counter(p + ".replays", s.replays);
    reg.add_counter(p + ".replay_timeouts", s.replay_timeouts);
    reg.add_counter(p + ".retrains", s.retrains);
    reg.add_counter(p + ".dropped", s.dropped);
    reg.add_counter(p + ".poisoned", s.poisoned);
    reg.add_counter(p + ".busy_ps",
                    [link] { return double(link->busy_total()); });
    reg.add_gauge(p + ".utilization", [this, link] {
      const Picos now = sim_.now();
      return now > 0 ? double(link->busy_total()) / double(now) : 0.0;
    });
  };
  link_counters("link.up", &up_);
  link_counters("link.down", &down_);

  DmaDevice* dev = &fn_.device();
  const DmaDevice::CounterSources ds = dev->counter_sources();
  reg.add_counter("device.reads_completed", ds.reads_completed);
  reg.add_counter("device.writes_sent", ds.writes_sent);
  reg.add_counter("device.fc_stall_ps",
                  [dev] { return double(dev->fc_stall_total()); });
  reg.add_counter("device.read_tags_hwm",
                  [dev] { return double(dev->read_tags_hwm()); });
  reg.add_counter("device.completion_timeouts", ds.completion_timeouts);
  reg.add_counter("device.read_retries", ds.read_retries);
  reg.add_counter("device.reads_failed", ds.reads_failed);
  reg.add_counter("device.failed_read_bytes", ds.failed_read_bytes);
  reg.add_counter("device.unexpected_cpls", ds.unexpected_cpls);
  reg.add_gauge("device.read_tags_in_use",
                [dev] { return double(dev->read_tags_in_use()); });

  RootComplex* rc = &fn_.root_complex();
  const RootComplex::CounterSources rs = rc->counter_sources();
  reg.add_counter("rc.reads", rs.reads);
  reg.add_counter("rc.writes_committed", rs.writes_committed);
  reg.add_counter("rc.write_bytes", rs.write_bytes);
  reg.add_counter("rc.ordered_queue_hwm", rs.ordered_hwm);
  reg.add_counter("rc.posted_buffer_hwm", rs.posted_hwm);
  reg.add_counter("rc.writes_dropped", rs.writes_dropped);
  reg.add_counter("rc.write_bytes_dropped", rs.write_bytes_dropped);
  reg.add_counter("rc.malformed_tlps",
                  [rc] { return double(rc->malformed_tlps()); });
  reg.add_counter("rc.poisoned_dropped", rs.poisoned_dropped);
  reg.add_counter("rc.unexpected_cpls", rs.unexpected_cpls);
  reg.add_counter("rc.error_cpls", rs.error_cpls);
  reg.add_gauge("rc.posted_buffer_occupancy",
                [rc] { return double(rc->posted_writes_pending()); });

  const Iommu::CounterSources ms = iommu_.counter_sources();
  reg.add_counter("iommu.tlb_hits", ms.tlb_hits);
  reg.add_counter("iommu.tlb_misses", ms.tlb_misses);
  reg.add_counter("iommu.tlb_evictions", ms.tlb_evictions);
  reg.add_counter("iommu.faults", ms.faults);

  const fault::AerLog* aer = &fn_.aer();
  reg.add_counter("aer.correctable", [aer] {
    return double(aer->total(fault::ErrorSeverity::Correctable));
  });
  reg.add_counter("aer.nonfatal", [aer] {
    return double(aer->total(fault::ErrorSeverity::NonFatal));
  });
  reg.add_counter("aer.fatal", [aer] {
    return double(aer->total(fault::ErrorSeverity::Fatal));
  });

  const LastLevelCache::CounterSources cs = mem_.cache().counter_sources();
  reg.add_counter("cache.hits", cs.hits);
  reg.add_counter("cache.misses", cs.misses);
  reg.add_counter("cache.dirty_evictions", cs.dirty_evictions);
  reg.add_counter("cache.ddio_allocations", cs.ddio_allocations);
  reg.add_counter("cache.ddio_evictions", cs.ddio_evictions);

  const MemorySystem::CounterSources es = mem_.counter_sources();
  reg.add_counter("mem.reads", es.reads);
  reg.add_counter("mem.writes", es.writes);

  // Recovery-ladder counters register only when a policy is armed, so
  // recovery-free counter CSVs stay bit-identical to previous releases.
  if (fault::RecoveryManager* rec = fn_.recovery()) {
    reg.add_counter("recovery.transitions",
                    [rec] { return double(rec->transitions()); });
    reg.add_counter("recovery.downtrains",
                    [rec] { return double(rec->downtrains()); });
    reg.add_counter("recovery.restores",
                    [rec] { return double(rec->restores()); });
    reg.add_counter("recovery.flrs", [rec] { return double(rec->flrs()); });
    reg.add_counter("recovery.containments",
                    [rec] { return double(rec->containments()); });
    reg.add_counter("recovery.hot_resets",
                    [rec] { return double(rec->hot_resets()); });
    reg.add_counter("recovery.quarantines",
                    [rec] { return double(rec->quarantines()); });
    reg.add_gauge("recovery.state", [rec] {
      return double(static_cast<unsigned>(rec->state()));
    });
    reg.add_counter("device.flrs", [dev] { return double(dev->flr_count()); });
    reg.add_counter("device.flr_aborted_reads",
                    [dev] { return double(dev->flr_aborted_reads()); });
    reg.add_counter("device.flr_dropped_writes",
                    [dev] { return double(dev->flr_dropped_writes()); });
    reg.add_counter("rc.contained_host_reads",
                    [rc] { return double(rc->contained_host_reads()); });
    Iommu* mmu = &iommu_;
    reg.add_counter("iommu.remaps", [mmu] { return double(mmu->remaps()); });
    Link* up = &up_;
    Link* down = &down_;
    reg.add_counter("link.up.blocked_drops",
                    [up] { return double(up->blocked_drops()); });
    reg.add_counter("link.down.blocked_drops",
                    [down] { return double(down->blocked_drops()); });
  }
}

void System::warm_host(const HostBuffer& buf, std::uint64_t offset,
                       std::uint64_t len) {
  // The buffer's IOVA range is contiguous, so this is the bulk (lazily
  // materialized) form of host_touch(buf.iova(o), true) per line.
  mem_.cache().warm_host_range(buf.window_iova(offset, len), len,
                                /*dirty=*/true);
}

void System::warm_device(const HostBuffer& buf, std::uint64_t offset,
                         std::uint64_t len) {
  mem_.cache().warm_device_range(buf.window_iova(offset, len), len);
}

void System::thrash_cache() { mem_.cache().thrash(); }

}  // namespace pcieb::sim
