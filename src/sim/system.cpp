#include "sim/system.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcieb::sim {

namespace {

const SystemConfig& validated(const SystemConfig& cfg) {
  cfg.link.validate();
  const unsigned n = cfg.tenants;
  if (n < 1 || n > 64) {
    throw std::invalid_argument("tenants must be in 1..64, got " +
                                std::to_string(n));
  }
  // A device's port holds one function, so devices and VFs never mix.
  if (cfg.devices < 1 || cfg.devices > 64 || (cfg.devices > 1 && n > 1)) {
    throw std::invalid_argument("devices must be in 1..64, and 1 with "
                                "several tenants; got " +
                                std::to_string(cfg.devices));
  }
  if (!cfg.weights.empty()) {
    if (cfg.weights.size() != n) {
      throw std::invalid_argument("weights must name every tenant (" +
                                  std::to_string(cfg.weights.size()) +
                                  " vs " + std::to_string(n) + " tenants)");
    }
    if (!cfg.isolation.tdm_link) {
      throw std::invalid_argument(
          "weights need TDM link isolation: a shared FIFO link has no lanes "
          "to weight");
    }
    if (std::find(cfg.weights.begin(), cfg.weights.end(), 0u) !=
        cfg.weights.end()) {
      throw std::invalid_argument("zero arbitration weight");
    }
  }
  if (!cfg.ddio_quota.empty()) {
    if (cfg.ddio_quota.size() != n) {
      throw std::invalid_argument("ddio quota must name every tenant (" +
                                  std::to_string(cfg.ddio_quota.size()) +
                                  " vs " + std::to_string(n) + " tenants)");
    }
    if (!cfg.isolation.per_vf_uncore) {
      throw std::invalid_argument(
          "ddio quota needs per-VF uncore isolation: a shared uncore has no "
          "slices to give a quota");
    }
  }
  return cfg;
}

/// Per-VF LLC slices exist only on a shared port with per_vf_uncore.
bool sliced(const SystemConfig& cfg) {
  return cfg.tenants > 1 && cfg.isolation.per_vf_uncore;
}

/// Memory system `i`'s LLC: a per-VF slice is an equal share of the
/// configured capacity (floor one full set); any memory system takes its
/// function's DDIO-way quota.
CacheConfig cache_of(const SystemConfig& cfg, unsigned i) {
  CacheConfig c = cfg.cache;
  if (sliced(cfg)) {
    const std::uint64_t min_bytes =
        static_cast<std::uint64_t>(c.ways) * c.line_bytes;
    c.size_bytes =
        std::max<std::uint64_t>(min_bytes, c.size_bytes / cfg.tenants);
  }
  if (!cfg.ddio_quota.empty()) {
    if (cfg.ddio_quota[i] > c.ways) {
      throw std::invalid_argument(
          "ddio quota for vf " + std::to_string(i) + " (" +
          std::to_string(cfg.ddio_quota[i]) + " ways) exceeds cache ways (" +
          std::to_string(c.ways) + ")");
    }
    c.ddio_ways = cfg.ddio_quota[i];
  }
  return c;
}

/// Memory system `i`'s jitter seed: a per-VF slice draws an independent
/// stream (a golden-ratio stride keeps the seeds distinct for any base).
std::uint64_t seed_of(const SystemConfig& cfg, unsigned i) {
  return sliced(cfg) ? cfg.seed + 0x9e3779b97f4a7c15ull * (i + 1) : cfg.seed;
}

}  // namespace

System::System(const SystemConfig& cfg)
    : System(cfg, obs::ProfScope(obs::CostCenter::SystemBuild)) {}

System::System(const SystemConfig& cfg, const obs::ProfScope& /*build*/)
    : cfg_(validated(cfg)),
      ports_([this](Slots<Port>& ports) {
        for (unsigned d = 0; d < cfg_.devices; ++d) {
          ports.emplace_back(sim_, cfg_);
        }
      }),
      mems_([this](Slots<MemorySystem>& mems) {
        for (unsigned i = 0; i < (sliced(cfg_) ? cfg_.tenants : 1); ++i) {
          mems.emplace_back(sim_, cache_of(cfg_, i), cfg_.mem, cfg_.jitter,
                            seed_of(cfg_, i));
        }
      }),
      iommu_(sim_, cfg_.iommu) {
  for (unsigned f = 0; f < std::max(cfg_.tenants, cfg_.devices); ++f) {
    fns_.emplace_back(sim_, cfg_, memory(f), iommu_, upstream(f),
                      downstream(f));
  }
  if (fns_.size() > 1) port_aer_ = std::make_unique<fault::AerLog>();
  wire();
}

void System::wire() {
  // Error reporting is always on; the injector arms only with a plan,
  // keeping plan-free runs bit-identical to the seed. A lone function's
  // log is its port's.
  iommu_.set_aer(&port_aer());
  if (!shared()) {
    // A lone function has no RID: every TLP on its port is its own.
    for (unsigned f = 0; f < function_count(); ++f) {
      PcieFunction* fn = &fns_[f];
      Port& p = ports_[f];
      p.both([fn](Link& l) { l.set_aer(&fn->aer()); });
      p.up.set_deliver(
          [fn](const proto::Tlp& t) { fn->root_complex().on_upstream(t); });
      p.down.set_deliver(
          [fn](const proto::Tlp& t) { fn->device().on_downstream(t); });
    }
  } else {
    Port& p = ports_[0];
    p.both([this](Link& l) { l.set_aer(port_aer_.get()); });
    // Requester IDs, one TDM lane per VF (tdm_link) and one IOMMU domain
    // per VF. Upstream TLPs route to the requester function's own root
    // complex, downstream ones to its device.
    if (cfg_.isolation.tdm_link) {
      std::vector<unsigned> w = cfg_.weights;
      if (w.empty()) w.assign(function_count(), 1);
      p.both([&w](Link& l) { l.configure_tenants(w); });
    }
    iommu_.configure_domains(function_count(), cfg_.isolation.per_vf_iotlb);
    p.up.set_deliver([this](const proto::Tlp& t) {
      if (PcieFunction* fn = addressee(t, /*downstream=*/false)) {
        fn->root_complex().on_upstream(t);
      }
    });
    p.down.set_deliver([this](const proto::Tlp& t) {
      if (PcieFunction* fn = addressee(t, /*downstream=*/true)) {
        fn->device().on_downstream(t);
      }
    });
    // Error attribution. TDM mode routes each lane's DLL records
    // (replays, retrains, drops, poison) to the owning VF's log; the
    // shared-FIFO weakened link cannot attribute DLL state per tenant, so
    // those records land in the port log — completer-side errors
    // (timeouts, UR/CA, IOMMU faults) stay per-VF either way. Physical
    // link-wide events (SurpriseLinkDown) always go to the port log.
    for (unsigned f = 0; f < function_count(); ++f) {
      fns_[f].set_function(f);
      if (cfg_.isolation.tdm_link) {
        p.both([&](Link& l) { l.set_func_aer(f, &fns_[f].aer()); });
      }
      iommu_.set_domain_aer(f, &fns_[f].aer());
    }
  }

  if (!cfg_.fault_plan.empty()) arm_faults();
  // Read timeouts and watchdogs arm with a plan. A shared port arms them
  // unconditionally: the differential identity compares a run with the
  // attacker's plan armed against one with it stripped, and the victim's
  // event schedule must not depend on which of the two we are in.
  if (faults_armed() || shared()) {
    for (PcieFunction& f : fns_) {
      f.device().arm_timeouts(true);
      f.arm_watchdog(cfg_.watchdog, injector_.get());
    }
    sim_.set_step_hook(
        [this](Picos now, std::size_t executed) {
          for (PcieFunction& f : fns_) f.watchdog()->on_event(now, executed);
        },
        cfg_.watchdog.check_every_events);
  }
  if (cfg_.recovery.enabled) {
    for (unsigned f = 0; f < function_count(); ++f) arm_recovery(f);
  }
}

PcieFunction* System::addressee(const proto::Tlp& tlp, bool downstream) {
  // The function number is stamped at the source by our own components,
  // so an out-of-range RID is a wiring bug — counted into the port log
  // and dropped, never fatal.
  if (tlp.func >= fns_.size()) {
    port_aer_->record(fault::ErrorType::MalformedTlp, sim_.now(), tlp.addr,
                     tlp.tag, tlp.func);
    return nullptr;
  }
  unsigned target = tlp.func;
  if (downstream && test_misroute_ &&
      misroute_pending_ == static_cast<int>(tlp.func) &&
      (tlp.type == proto::TlpType::CplD || tlp.type == proto::TlpType::Cpl)) {
    // Seeded bug: deliver the completion to the neighbouring function
    // without rewriting its RID — the neighbour's requester-ID check is
    // what must catch it.
    misroute_pending_ = -1;
    target = (target + 1) % function_count();
  }
  return &fns_[target];
}

void System::freeze_port(unsigned f) {
  port(f).both([](Link& l) { l.set_blocked(true); });
}

void System::arm_faults() {
  // One injector serves every port. Each port numbers its own link TLPs
  // and completions for nth=/every=, which count across a shared port's
  // VFs; the one IOMMU numbers every translation.
  const auto ports = static_cast<unsigned>(ports_.size());
  injector_ = std::make_unique<fault::FaultInjector>(cfg_.fault_plan, ports);
  iommu_.set_fault_injector(injector_.get());
  for (unsigned f = 0; f < function_count(); ++f) {
    fns_[f].root_complex().set_fault_injector(injector_.get(),
                                              ports == 1 ? 0 : f);
  }
  for (unsigned p = 0; p < ports; ++p) {
    Link& up = ports_[p].up;
    Link& down = ports_[p].down;
    up.set_fault_injector(injector_.get(), /*upstream=*/true, p);
    down.set_fault_injector(injector_.get(), /*upstream=*/false, p);

    // A surprise link-down is a physical event: the port pair goes dark —
    // every tenant on it — whether or not a recovery policy is armed.
    // Without one the links stay blocked forever (workloads terminate via
    // drop accounting and completion timeouts); the recovery ladder is
    // what brings them back.
    up.set_linkdown_hook([this, p] { freeze_port(p); });
    down.set_linkdown_hook([this, p] { freeze_port(p); });

    // Dropped reads/completions recover via the device's completion
    // timeout; a posted write lost on the up link is accounted at the loss
    // site, to the function that sent it: its credits, its error log, its
    // lost goodput. A VF's TLP names it; a lone function's port is its own.
    up.set_drop_hook([this, p](const proto::Tlp& t) {
      if (test_misroute_) misroute_pending_ = static_cast<int>(t.func);
      const unsigned owner = shared() ? t.func : p;
      if (t.type != proto::TlpType::MemWr || owner >= fns_.size()) return;
      // test_leak_credits_on_drop_ omits the credit return (and only the
      // credit return) so monitor self-tests can watch the ledger drift.
      fns_[owner].drop_posted_write(t, !test_leak_credits_on_drop_);
    });
  }
}

void System::arm_recovery(unsigned f) {
  PcieFunction* fn = &fns_[f];
  // Recovery needs the read-timeout machinery even without a fault plan:
  // completions discarded during containment must time out and retry (or
  // fail with accounting) rather than strand their tags.
  fn->device().arm_timeouts(true);

  // A lone function's ladder owns its whole port: every action acts on
  // both of its links and nothing it does is a blast-radius expansion. On
  // a shared port a scoped ladder touches only its own lanes and IOMMU
  // domain; every action that reaches past them is counted.
  const bool shared_port = shared();
  const bool scoped = cfg_.isolation.vf_scoped_recovery;
  const bool lane_scoped = shared_port && scoped && cfg_.isolation.tdm_link;
  Port* port = &this->port(f);

  fault::RecoveryManager::Actions a;
  a.downtrain = [this, f, port, lane_scoped, shared_port](unsigned lanes,
                                                          unsigned gen) {
    if (lane_scoped) {
      port->both([&](Link& l) { l.set_func_recovery_derate(f, lanes, gen); });
      return;
    }
    // A lone function's burst derates its own port; a weakened VF's
    // derates every tenant's — a counted expansion.
    port->both([&](Link& l) { l.set_recovery_derate(lanes, gen); });
    if (shared_port) ++device_wide_actions_;
  };
  a.restore_link = [f, port, lane_scoped] {
    if (lane_scoped) {
      port->both([f](Link& l) { l.clear_func_recovery_derate(f); });
    } else {
      port->both([](Link& l) { l.clear_recovery_derate(); });
    }
  };
  a.flr = [this, f, fn, scoped, shared_port] {
    // Only this function's in-flight work aborts, and a lone function's
    // FLR leaves the IOMMU alone. A scoped VF rebuilds only its IOMMU
    // domain; a weakened one flushes every tenant's cached translations —
    // counted device-wide.
    fn->device().function_level_reset();
    if (!shared_port) return;
    if (scoped) {
      iommu_.remap_domain(f);
    } else {
      iommu_.remap_after_reset();
      ++device_wide_actions_;
    }
  };
  a.contain = [this, f, fn, port, lane_scoped, shared_port] {
    if (lane_scoped) {
      // Per-VF DPC: freeze only this function's virtual lanes; its host
      // requests answer UR, everyone else keeps running.
      port->both([f](Link& l) { l.set_func_blocked(f, true); });
      fn->root_complex().set_port_contained(true);
      fn->root_complex().abort_host_reads();
      return;
    }
    // DPC on the whole port: every function's host requests answer UR.
    freeze_port(f);
    for_port(f, [](PcieFunction& o) {
      o.root_complex().set_port_contained(true);
      o.root_complex().abort_host_reads();
    });
    if (shared_port) ++device_wide_actions_;
  };
  a.hot_reset = [this, f, port, shared_port] {
    // Hot reset + re-enumeration is inherently port-wide no matter how
    // the ladder is scoped: every function on the port resets (tags
    // aborted, write queue drained, credits re-initialized by
    // conservation), the port unfreezes and retrains at full width, and
    // every IOMMU mapping is rebuilt — on a shared port, the explicit,
    // counted blast-radius expansion of the escalation ladder.
    if (shared_port) ++device_wide_actions_;
    for_port(f, [](PcieFunction& o) { o.device().function_level_reset(); });
    port->both([](Link& l) { l.set_blocked(false); });
    port->both([](Link& l) { l.clear_recovery_derate(); });
    if (shared_port && cfg_.isolation.tdm_link) {
      for (unsigned o = 0; o < function_count(); ++o) {
        port->both([o](Link& l) { l.set_func_blocked(o, false); });
        port->both([o](Link& l) { l.clear_func_recovery_derate(o); });
      }
    }
    for_port(f, [](PcieFunction& o) {
      o.root_complex().set_port_contained(false);
    });
    iommu_.remap_after_reset();
  };
  a.on_transition = [this, f] {
    // Containment and reset windows are intentionally quiet — and a
    // device-wide action quiets *every* tenant on the port — so every
    // stall detector there re-primes and none mistakes the window for a
    // hang.
    for_port(f, [](PcieFunction& o) {
      if (o.watchdog()) o.watchdog()->reprime();
    });
  };
  fn->arm_recovery(cfg_.recovery, std::move(a));
}

void System::set_trace_sink(obs::TraceSink* sink) {
  trace_ = sink;
  for (Port& p : ports_) {
    p.up.set_trace(sink, obs::Component::LinkUp);
    p.down.set_trace(sink, obs::Component::LinkDown);
  }
  iommu_.set_trace(sink);
  for (MemorySystem& m : mems_) m.set_trace(sink);
  for (PcieFunction& f : fns_) f.set_trace(sink);
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
  link_counters("link.up", &upstream());
  link_counters("link.down", &downstream());

  DmaDevice* dev = &device();
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

  RootComplex* rc = &root_complex();
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

  const fault::AerLog* aer = &this->aer();
  reg.add_counter("aer.correctable", [aer] {
    return double(aer->total(fault::ErrorSeverity::Correctable));
  });
  reg.add_counter("aer.nonfatal", [aer] {
    return double(aer->total(fault::ErrorSeverity::NonFatal));
  });
  reg.add_counter("aer.fatal", [aer] {
    return double(aer->total(fault::ErrorSeverity::Fatal));
  });

  MemorySystem& mem = memory();
  const LastLevelCache::CounterSources cs = mem.cache().counter_sources();
  reg.add_counter("cache.hits", cs.hits);
  reg.add_counter("cache.misses", cs.misses);
  reg.add_counter("cache.dirty_evictions", cs.dirty_evictions);
  reg.add_counter("cache.ddio_allocations", cs.ddio_allocations);
  reg.add_counter("cache.ddio_evictions", cs.ddio_evictions);

  const MemorySystem::CounterSources es = mem.counter_sources();
  reg.add_counter("mem.reads", es.reads);
  reg.add_counter("mem.writes", es.writes);

  // Recovery-ladder counters register only when a policy is armed, so
  // recovery-free counter CSVs stay bit-identical to previous releases.
  if (fault::RecoveryManager* rec = recovery()) {
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
    Link* up = &upstream();
    Link* down = &downstream();
    reg.add_counter("link.up.blocked_drops",
                    [up] { return double(up->blocked_drops()); });
    reg.add_counter("link.down.blocked_drops",
                    [down] { return double(down->blocked_drops()); });
  }
}

std::string System::counters_line(unsigned f) const {
  const PcieFunction& fn = function(f);
  std::string out;
  out.reserve(1024);
  auto add = [&out](const char* key, std::uint64_t value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += std::to_string(value);
  };

  const DmaDevice& dev = fn.device();
  add("dev.reads_completed", dev.reads_completed());
  add("dev.writes_sent", dev.writes_sent());
  add("dev.read_reqs_issued", dev.read_requests_issued());
  add("dev.read_reqs_retired", dev.read_requests_retired());
  add("dev.read_bytes_requested", dev.read_payload_requested());
  add("dev.read_bytes_delivered", dev.read_payload_delivered());
  add("dev.write_bytes_issued", dev.write_payload_issued());
  add("dev.completion_timeouts", dev.completion_timeouts());
  add("dev.read_retries", dev.read_retries());
  add("dev.reads_failed", dev.reads_failed());
  add("dev.failed_read_bytes", dev.failed_read_bytes());
  add("dev.unexpected_cpls", dev.unexpected_completions());
  add("dev.error_cpls", dev.error_completions_received());
  add("dev.poisoned_rx", dev.poisoned_received());
  add("dev.flrs", dev.flr_count());
  add("dev.flr_aborted_reads", dev.flr_aborted_reads());
  add("dev.flr_dropped_writes", dev.flr_dropped_writes());
  add("dev.foreign_tlps", dev.foreign_tlps());

  const RootComplex& rc = fn.root_complex();
  add("rc.reads", rc.reads_handled());
  add("rc.writes_committed", rc.writes_committed());
  add("rc.write_bytes", rc.write_bytes_committed());
  add("rc.writes_dropped", rc.writes_dropped());
  add("rc.writes_rejected", rc.writes_rejected());
  add("rc.write_bytes_dropped", rc.write_bytes_dropped());
  add("rc.malformed_tlps", rc.malformed_tlps());
  add("rc.poisoned_dropped", rc.poisoned_dropped());
  add("rc.unexpected_cpls", rc.unexpected_completions());
  add("rc.error_cpls", rc.error_completions());
  add("rc.contained_host_reads", rc.contained_host_reads());

  // A function's lane is its TDM lane, or a lone function's port's one
  // lane. The shared-FIFO weakened link has no per-tenant DLL state to
  // report; its keys stay in the schema (zeroed) so lines from either
  // mode align column-for-column.
  Link::FuncCounters up{};
  Link::FuncCounters down{};
  if (!shared() || cfg_.isolation.tdm_link) {
    const unsigned lane = shared() ? f : 0;
    up = port(f).up.func_counters(lane);
    down = port(f).down.func_counters(lane);
  }
  add("lane.up.tlps", up.tlps);
  add("lane.up.wire_bytes", up.wire_bytes);
  add("lane.up.payload_bytes", up.payload_bytes);
  add("lane.up.replays", up.replays);
  add("lane.up.replay_timeouts", up.replay_timeouts);
  add("lane.up.retrains", up.retrains);
  add("lane.up.dropped", up.dropped);
  add("lane.up.poisoned", up.poisoned);
  add("lane.up.blocked_drops", up.blocked_drops);
  add("lane.down.tlps", down.tlps);
  add("lane.down.wire_bytes", down.wire_bytes);
  add("lane.down.payload_bytes", down.payload_bytes);
  add("lane.down.replays", down.replays);
  add("lane.down.replay_timeouts", down.replay_timeouts);
  add("lane.down.retrains", down.retrains);
  add("lane.down.dropped", down.dropped);
  add("lane.down.poisoned", down.poisoned);
  add("lane.down.blocked_drops", down.blocked_drops);

  // A VF reports its own IOMMU domain; a lone function reports the IOMMU,
  // which every device of a multi-device System shares.
  if (shared()) {
    const Iommu::DomainStats& d = iommu_.domain_stats(f);
    add("iommu.hits", d.hits);
    add("iommu.misses", d.misses);
    add("iommu.evictions", d.evictions);
    add("iommu.faults", d.faults);
    add("iommu.remaps", d.remaps);
  } else {
    add("iommu.hits", iommu_.tlb_hits());
    add("iommu.misses", iommu_.tlb_misses());
    add("iommu.evictions", iommu_.tlb_evictions());
    add("iommu.faults", iommu_.faults());
    add("iommu.remaps", iommu_.remaps());
  }

  add("aer.correctable", fn.aer().total(fault::ErrorSeverity::Correctable));
  add("aer.nonfatal", fn.aer().total(fault::ErrorSeverity::NonFatal));
  add("aer.fatal", fn.aer().total(fault::ErrorSeverity::Fatal));
  add("lost_write_bytes", fn.lost_write_bytes());

  if (const fault::RecoveryManager* rec = fn.recovery()) {
    add("recovery.transitions", rec->transitions());
    add("recovery.downtrains", rec->downtrains());
    add("recovery.restores", rec->restores());
    add("recovery.flrs", rec->flrs());
    add("recovery.containments", rec->containments());
    add("recovery.hot_resets", rec->hot_resets());
    add("recovery.quarantines", rec->quarantines());
    add("recovery.state", static_cast<unsigned>(rec->state()));
  }
  return out;
}

void System::warm_host(const HostBuffer& buf, std::uint64_t offset,
                       std::uint64_t len, unsigned f) {
  // The buffer's IOVA range is contiguous, so this is the bulk (lazily
  // materialized) form of host_touch(buf.iova(o), true) per line.
  memory(f).cache().warm_host_range(buf.window_iova(offset, len), len,
                                    /*dirty=*/true);
}

void System::warm_device(const HostBuffer& buf, std::uint64_t offset,
                         std::uint64_t len, unsigned f) {
  memory(f).cache().warm_device_range(buf.window_iova(offset, len), len);
}

void System::thrash_cache(unsigned f) { memory(f).cache().thrash(); }

}  // namespace pcieb::sim
