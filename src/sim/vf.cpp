#include "sim/vf.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace pcieb::sim {

namespace {

/// Per-VF LLC slice: an equal share of the base capacity (floor one full
/// set) with an optional per-VF DDIO-way quota.
CacheConfig slice_cache(const CacheConfig& base, unsigned tenants,
                        const std::vector<unsigned>& ddio_quota, unsigned vf) {
  CacheConfig c = base;
  const std::uint64_t min_bytes =
      static_cast<std::uint64_t>(c.ways) * c.line_bytes;
  c.size_bytes = std::max<std::uint64_t>(min_bytes, c.size_bytes / tenants);
  if (!ddio_quota.empty()) {
    if (ddio_quota[vf] > c.ways) {
      throw std::invalid_argument(
          "ddio quota for vf " + std::to_string(vf) + " (" +
          std::to_string(ddio_quota[vf]) + " ways) exceeds cache ways (" +
          std::to_string(c.ways) + ")");
    }
    c.ddio_ways = ddio_quota[vf];
  }
  return c;
}

}  // namespace

MultiTenantSystem::MultiTenantSystem(const MultiTenantConfig& cfg)
    : cfg_(cfg) {
  obs::ProfScope prof(obs::CostCenter::SystemBuild);
  const unsigned n = cfg_.tenants;
  if (n < 1 || n > 64) {
    throw std::invalid_argument("tenants must be in 1..64, got " +
                                std::to_string(n));
  }
  if (!cfg_.weights.empty() && cfg_.weights.size() != n) {
    throw std::invalid_argument("weights must name every tenant (" +
                                std::to_string(cfg_.weights.size()) + " vs " +
                                std::to_string(n) + " tenants)");
  }
  if (!cfg_.ddio_quota.empty() && cfg_.ddio_quota.size() != n) {
    throw std::invalid_argument("ddio quota must name every tenant (" +
                                std::to_string(cfg_.ddio_quota.size()) +
                                " vs " + std::to_string(n) + " tenants)");
  }
  SystemConfig& base = cfg_.base;
  base.link.validate();

  up_ = std::make_unique<Link>(sim_, base.link, base.up_propagation, base.dll);
  down_ = std::make_unique<Link>(sim_, base.link, base.down_propagation,
                                 base.dll);
  if (cfg_.isolation.tdm_link) {
    std::vector<unsigned> w = cfg_.weights;
    if (w.empty()) w.assign(n, 1);
    up_->configure_tenants(w);
    down_->configure_tenants(w);
  }

  iommu_ = std::make_unique<Iommu>(sim_, base.iommu);
  iommu_->configure_domains(n, cfg_.isolation.per_vf_iotlb);

  if (!cfg_.isolation.per_vf_uncore) {
    shared_mem_ = std::make_unique<MemorySystem>(sim_, base.cache, base.mem,
                                                 base.jitter, base.seed);
  }

  for (unsigned vf = 0; vf < n; ++vf) {
    MemorySystem* mem = shared_mem_.get();
    if (cfg_.isolation.per_vf_uncore) {
      // Independent jitter stream per tenant: a golden-ratio stride keeps
      // the per-VF seeds distinct for any base seed.
      slices_.push_back(std::make_unique<MemorySystem>(
          sim_, slice_cache(base.cache, n, cfg_.ddio_quota, vf), base.mem,
          base.jitter, base.seed + 0x9e3779b97f4a7c15ull * (vf + 1)));
      mem = slices_.back().get();
    }
    vfs_.emplace_back(sim_, base, *mem, *iommu_, *up_, *down_).set_function(vf);
  }

  // Upstream TLPs route to the requester function's own root complex;
  // downstream ones to its device. The function number is stamped at the
  // source by our own components, so an out-of-range RID is a wiring bug
  // — counted into the port log and dropped, never fatal.
  up_->set_deliver([this](const proto::Tlp& t) {
    if (t.func >= vfs_.size()) {
      port_aer_.record(fault::ErrorType::MalformedTlp, sim_.now(), t.addr,
                       t.tag, t.func);
      return;
    }
    vfs_[t.func].root_complex().on_upstream(t);
  });
  down_->set_deliver([this](const proto::Tlp& t) { deliver_downstream(t); });

  // Error attribution. TDM mode routes each lane's DLL records (replays,
  // retrains, drops, poison) to the owning VF's log; the shared-FIFO
  // weakened link cannot attribute DLL state per tenant, so those records
  // land in the port log — completer-side errors (timeouts, UR/CA, IOMMU
  // faults) stay per-VF either way. Physical link-wide events
  // (SurpriseLinkDown) always go to the port log, which deliberately has
  // no recovery listener: a dead port is not one tenant's ladder to run.
  up_->set_aer(&port_aer_);
  down_->set_aer(&port_aer_);
  iommu_->set_aer(&port_aer_);
  const bool domains = n > 1 || cfg_.isolation.per_vf_iotlb;
  for (unsigned vf = 0; vf < n; ++vf) {
    fault::AerLog* aer = &vfs_[vf].aer();
    if (cfg_.isolation.tdm_link) {
      up_->set_func_aer(vf, aer);
      down_->set_func_aer(vf, aer);
    }
    if (domains) iommu_->set_domain_aer(vf, aer);
  }

  if (!base.fault_plan.empty()) arm_faults();
  // Tenant mode arms timeouts and watchdogs UNCONDITIONALLY — the
  // differential identity compares a run with the attacker's plan armed
  // against one with it stripped, and the victim's event schedule must
  // not depend on which of the two we are in.
  for (PcieFunction& f : vfs_) {
    f.device().arm_timeouts(true);
    f.arm_watchdog(base.watchdog, injector_.get());
  }
  sim_.set_step_hook(
      [this](Picos now, std::size_t executed) {
        for (PcieFunction& f : vfs_) f.watchdog()->on_event(now, executed);
      },
      base.watchdog.check_every_events);
  if (base.recovery.enabled) {
    for (unsigned vf = 0; vf < n; ++vf) arm_recovery(vf);
  }
}

void MultiTenantSystem::freeze_port() {
  up_->set_blocked(true);
  down_->set_blocked(true);
}

void MultiTenantSystem::deliver_downstream(const proto::Tlp& tlp) {
  if (tlp.func >= vfs_.size()) {
    port_aer_.record(fault::ErrorType::MalformedTlp, sim_.now(), tlp.addr,
                     tlp.tag, tlp.func);
    return;
  }
  unsigned target = tlp.func;
  if (test_misroute_ && misroute_pending_ == static_cast<int>(tlp.func) &&
      (tlp.type == proto::TlpType::CplD || tlp.type == proto::TlpType::Cpl)) {
    // Seeded bug: deliver the completion to the neighbouring function
    // without rewriting its RID — the neighbour's requester-ID check is
    // what must catch it.
    misroute_pending_ = -1;
    target = (target + 1) % static_cast<unsigned>(vfs_.size());
  }
  vfs_[target].device().on_downstream(tlp);
}

void MultiTenantSystem::arm_faults() {
  injector_ = std::make_unique<fault::FaultInjector>(cfg_.base.fault_plan);
  up_->set_fault_injector(injector_.get(), /*upstream=*/true);
  down_->set_fault_injector(injector_.get(), /*upstream=*/false);
  iommu_->set_fault_injector(injector_.get());
  for (PcieFunction& f : vfs_) {
    f.root_complex().set_fault_injector(injector_.get());
  }

  // A surprise link-down darkens the whole physical port — every tenant.
  up_->set_linkdown_hook([this] { freeze_port(); });
  down_->set_linkdown_hook([this] { freeze_port(); });

  // A posted write lost on the up link is accounted to the function that
  // sent it: its credits, its error log, its lost goodput.
  up_->set_drop_hook([this](const proto::Tlp& t) {
    if (test_misroute_) misroute_pending_ = static_cast<int>(t.func);
    if (t.type != proto::TlpType::MemWr || t.func >= vfs_.size()) return;
    vfs_[t.func].drop_posted_write(t);
  });
}

void MultiTenantSystem::arm_recovery(unsigned vf) {
  const bool scoped = cfg_.isolation.vf_scoped_recovery;
  const bool tdm = cfg_.isolation.tdm_link;

  fault::RecoveryManager::Actions a;
  a.downtrain = [this, vf, scoped, tdm](unsigned lanes, unsigned gen) {
    if (scoped && tdm) {
      up_->set_func_recovery_derate(vf, lanes, gen);
      down_->set_func_recovery_derate(vf, lanes, gen);
    } else {
      // Weakened: one tenant's correctable burst derates the whole port —
      // a counted blast-radius expansion.
      up_->set_recovery_derate(lanes, gen);
      down_->set_recovery_derate(lanes, gen);
      ++device_wide_actions_;
    }
  };
  a.restore_link = [this, vf, scoped, tdm] {
    if (scoped && tdm) {
      up_->clear_func_recovery_derate(vf);
      down_->clear_func_recovery_derate(vf);
    } else {
      up_->clear_recovery_derate();
      down_->clear_recovery_derate();
    }
  };
  a.flr = [this, vf, scoped] {
    // VF-level FLR: only this function's in-flight work aborts. Scoped
    // mode rebuilds only its IOMMU domain; weakened mode flushes every
    // tenant's cached translations — counted device-wide.
    vfs_[vf].device().function_level_reset();
    if (scoped) {
      iommu_->remap_domain(vf);
    } else {
      iommu_->remap_after_reset();
      ++device_wide_actions_;
    }
  };
  a.contain = [this, vf, scoped, tdm] {
    if (scoped && tdm) {
      // Per-VF DPC: freeze only this function's virtual lanes; its host
      // requests answer UR, everyone else keeps running.
      up_->set_func_blocked(vf, true);
      down_->set_func_blocked(vf, true);
      vfs_[vf].root_complex().set_port_contained(true);
      vfs_[vf].root_complex().abort_host_reads();
    } else {
      freeze_port();
      for (PcieFunction& o : vfs_) {
        o.root_complex().set_port_contained(true);
        o.root_complex().abort_host_reads();
      }
      ++device_wide_actions_;
    }
  };
  a.hot_reset = [this] {
    // Hot reset + re-enumeration is inherently device-wide no matter how
    // the ladder is scoped: every function resets, the port retrains at
    // full width, and all IOMMU mappings rebuild — the explicit,
    // counted blast-radius expansion of the escalation ladder.
    ++device_wide_actions_;
    for (PcieFunction& o : vfs_) o.device().function_level_reset();
    up_->set_blocked(false);
    down_->set_blocked(false);
    up_->clear_recovery_derate();
    down_->clear_recovery_derate();
    if (cfg_.isolation.tdm_link) {
      for (unsigned f = 0; f < tenants(); ++f) {
        up_->set_func_blocked(f, false);
        down_->set_func_blocked(f, false);
        up_->clear_func_recovery_derate(f);
        down_->clear_func_recovery_derate(f);
      }
    }
    for (PcieFunction& o : vfs_) o.root_complex().set_port_contained(false);
    iommu_->remap_after_reset();
  };
  a.on_transition = [this] {
    // Containment/reset windows are intentionally quiet — and a
    // device-wide action quiets *every* tenant, so all stall detectors
    // re-prime, not just the erring VF's.
    for (PcieFunction& o : vfs_) o.watchdog()->reprime();
  };
  vfs_[vf].arm_recovery(cfg_.base.recovery, std::move(a));
}

void MultiTenantSystem::warm_host(unsigned vf, const HostBuffer& buf,
                                  std::uint64_t offset, std::uint64_t len) {
  memory(vf).cache().warm_host_range(buf.window_iova(offset, len), len,
                                     /*dirty=*/true);
}

void MultiTenantSystem::warm_device(unsigned vf, const HostBuffer& buf,
                                    std::uint64_t offset, std::uint64_t len) {
  memory(vf).cache().warm_device_range(buf.window_iova(offset, len), len);
}

void MultiTenantSystem::thrash_cache(unsigned vf) {
  memory(vf).cache().thrash();
}

std::string MultiTenantSystem::counters_line(unsigned vf) const {
  const PcieFunction& f = vfs_.at(vf);
  std::string out;
  out.reserve(1024);
  auto add = [&out](const char* key, std::uint64_t value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += std::to_string(value);
  };

  const DmaDevice& dev = f.device();
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

  const RootComplex& rc = f.root_complex();
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

  // Per-VF lane counters exist only on the TDM link; the shared-FIFO
  // weakened link has no per-tenant DLL state to report. Keys stay in the
  // schema (zeroed) so lines from either mode align column-for-column.
  Link::FuncCounters up{};
  Link::FuncCounters down{};
  if (cfg_.isolation.tdm_link) {
    up = up_->func_counters(vf);
    down = down_->func_counters(vf);
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

  if (tenants() > 1 || cfg_.isolation.per_vf_iotlb) {
    const Iommu::DomainStats& d = iommu_->domain_stats(vf);
    add("iommu.hits", d.hits);
    add("iommu.misses", d.misses);
    add("iommu.evictions", d.evictions);
    add("iommu.faults", d.faults);
    add("iommu.remaps", d.remaps);
  } else {
    add("iommu.hits", iommu_->tlb_hits());
    add("iommu.misses", iommu_->tlb_misses());
    add("iommu.evictions", iommu_->tlb_evictions());
    add("iommu.faults", iommu_->faults());
    add("iommu.remaps", iommu_->remaps());
  }

  add("aer.correctable", f.aer().total(fault::ErrorSeverity::Correctable));
  add("aer.nonfatal", f.aer().total(fault::ErrorSeverity::NonFatal));
  add("aer.fatal", f.aer().total(fault::ErrorSeverity::Fatal));
  add("lost_write_bytes", f.lost_write_bytes());

  if (const fault::RecoveryManager* rec = f.recovery()) {
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

}  // namespace pcieb::sim
