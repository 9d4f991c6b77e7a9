// IOMMU model: IO-TLB plus a bounded pool of page-table walkers.
//
// Every inbound TLP's address is translated. A TLB hit costs nothing
// extra; a miss adds the full walk latency and occupies one walker for an
// occupancy period, so sustained miss streams are throughput-bound by
// walkers/occupancy — which is what produces the paper's −70 % bandwidth
// cliff at small transfer sizes (§6.5). Posted writes overlap their walks
// better than reads (the read's completion cannot be formed until the
// translation resolves), modelled as a smaller occupancy for writes.
//
// Superpages (2 MB / 1 GB) shrink the page-number footprint, restoring the
// hit rate — the paper's §7 recommendation, measurable via
// bench/ablation_superpages.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "fault/aer.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace pcieb::sim {

struct IommuConfig {
  bool enabled = false;
  unsigned tlb_entries = 64;
  std::uint64_t page_bytes = 4096;  ///< 4 KB; 2 MB/1 GB model superpages.
  unsigned walkers = 6;             ///< concurrent page-table walks
  Picos walk_latency = from_nanos(330);
  Picos walk_occupancy_read = from_nanos(330);
  Picos walk_occupancy_write = from_nanos(165);
};

class Iommu {
 public:
  Iommu(Simulator& sim, const IommuConfig& cfg);

  /// Per-domain IO-TLB statistics (multi-tenant accounting).
  struct DomainStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t faults = 0;
    std::uint64_t remaps = 0;  ///< domain-scoped remaps (VF-level FLR)
  };

  /// Split the IOMMU into `n` translation domains (SR-IOV: one per VF);
  /// a plain IOMMU is one domain over one pool. `partitioned` gives each
  /// domain an independent IO-TLB slice (tlb_entries/n) and walker-pool
  /// slice — one tenant's miss stream cannot evict another's entries or
  /// starve its walks. Shared mode keeps one capacity pool keyed by
  /// (domain, page): translations still never resolve across domains, but
  /// tenants contend for entries and walkers. Must be called at most once
  /// with n > 1, before any translation; n in 1..256.
  void configure_domains(unsigned n, bool partitioned);
  const DomainStats& domain_stats(unsigned domain) const {
    return domains_.at(domain).stats;
  }

  /// Translate the page containing `addr`; `done` runs when the
  /// translation is available (immediately-ish on a TLB hit). Faulting
  /// translations (see translate_checked) count but report success here —
  /// callers that can handle faults must use translate_checked.
  template <typename F>
  void translate(std::uint64_t addr, bool is_write, F&& done) {
    translate_checked(
        addr, is_write,
        [done = std::forward<F>(done)](bool /*ok*/) mutable { done(); });
  }

  /// Fault-aware translation: `done(ok)` runs when the translation
  /// resolves; ok=false means the remapping faulted (unmapped or blocked
  /// page — injected via the fault plan). A faulted walk still costs the
  /// full walk latency (the fault is discovered at the leaf) and is never
  /// cached, so retries of the same page fault again.
  ///
  /// The disabled and TLB-hit fast paths invoke `done` directly without
  /// type-erasing it; only the (rare, already walk-latency-bound) miss
  /// path builds a CheckedCallback.
  using CheckedCallback = std::function<void(bool ok)>;
  template <typename F>
  void translate_checked(std::uint64_t addr, bool is_write, F&& done) {
    translate_checked(addr, is_write, 0u, std::forward<F>(done));
  }

  /// Domain-qualified translation (SR-IOV: domain = VF index). A page
  /// cached by one domain never satisfies a lookup from another.
  template <typename F>
  void translate_checked(std::uint64_t addr, bool is_write, unsigned domain,
                         F&& done) {
    if (!cfg_.enabled) {
      done(true);
      return;
    }
    bool fault = false;
    if (probe(addr, is_write, domain, fault)) {
      done(true);
      return;
    }
    walk(addr, is_write, domain, fault, CheckedCallback(std::forward<F>(done)));
  }

  /// Drop all cached translations (e.g. after a mapping change).
  void flush_tlb();

  /// Hot-reset re-enumeration (recovery ladder): the device's mappings
  /// are rebuilt from scratch, so every cached translation is stale.
  void remap_after_reset() {
    flush_tlb();
    ++remaps_;
  }
  std::uint64_t remaps() const { return remaps_; }

  /// Drop one domain's cached translations (other domains untouched).
  void flush_domain(unsigned domain);

  /// VF-level FLR: only the resetting function's mappings are rebuilt —
  /// the domain-scoped analogue of remap_after_reset. Counts into both
  /// the domain's and the global remap tallies.
  void remap_domain(unsigned domain);

  const IommuConfig& config() const { return cfg_; }
  std::uint64_t tlb_hits() const { return hits_; }
  std::uint64_t tlb_misses() const { return misses_; }
  std::uint64_t tlb_evictions() const { return evictions_; }
  std::uint64_t faults() const { return faults_; }

  /// Stable addresses of the monotonic totals, for obs::CounterRegistry's
  /// raw readers. Valid for the IOMMU's lifetime.
  struct CounterSources {
    const std::uint64_t* tlb_hits;
    const std::uint64_t* tlb_misses;
    const std::uint64_t* tlb_evictions;
    const std::uint64_t* faults;
  };
  CounterSources counter_sources() const {
    return {&hits_, &misses_, &evictions_, &faults_};
  }
  void reset_stats() {
    hits_ = misses_ = evictions_ = faults_ = 0;
    for (auto& d : domains_) {
      // remaps persist, mirroring the global remap counter's lifetime.
      const std::uint64_t remaps = d.stats.remaps;
      d.stats = DomainStats{};
      d.stats.remaps = remaps;
    }
  }

  /// Attach fault injection (nullptr detaches).
  void set_fault_injector(fault::FaultInjector* inj) { injector_ = inj; }
  void set_aer(fault::AerLog* aer) { aer_ = aer; }
  /// Route one domain's translation faults to its own AER log (falls back
  /// to the shared log when unset).
  void set_domain_aer(unsigned domain, fault::AerLog* aer);

  /// Attach tracing (nullptr detaches).
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

 private:
  using LruList = std::list<std::uint64_t>;  // front = most recent

  /// One IO-TLB capacity pool with its page-table walkers: shared by
  /// every domain, or one per domain when partitioned.
  struct Pool {
    Pool(Simulator& sim, unsigned capacity, unsigned walkers)
        : capacity(capacity), walkers(sim, walkers) {}
    /// Pools are built before any walk captures one, so a move is only
    /// ever a vector relocation; std::deque's move (inside TokenPool) is
    /// not noexcept, which would otherwise force an impossible copy.
    Pool(Pool&&) noexcept = default;
    LruList lru;
    std::unordered_map<std::uint64_t, LruList::iterator> tlb;
    unsigned capacity;
    TokenPool walkers;
  };

  /// One translation domain's accounting.
  struct Domain {
    DomainStats stats;
    fault::AerLog* aer = nullptr;
  };

  Pool& pool_of(unsigned domain) {
    return pools_.size() == 1 ? pools_.front() : pools_[domain];
  }
  bool tlb_lookup(Pool& pool, std::uint64_t key);
  void tlb_insert(Pool& pool, std::uint64_t key);
  /// Translations are domain-qualified even when the capacity pool is
  /// shared, so a cross-domain hit is structurally impossible; the low
  /// byte names the domain an eviction bills.
  static std::uint64_t tlb_key(unsigned domain, std::uint64_t page) {
    return (page << 8) | domain;
  }
  /// Fault-injection check plus TLB probe; true on a hit (counted and
  /// traced). On a miss, `fault` reports whether this walk will fault.
  bool probe(std::uint64_t addr, bool is_write, unsigned domain, bool& fault);
  /// Miss path: acquire a walker, pay the walk latency, then resolve.
  void walk(std::uint64_t addr, bool is_write, unsigned domain, bool fault,
            CheckedCallback done);

  Simulator& sim_;
  IommuConfig cfg_;
  std::vector<Pool> pools_;      ///< at least one
  std::vector<Domain> domains_;  ///< at least one
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t remaps_ = 0;
  fault::FaultInjector* injector_ = nullptr;
  fault::AerLog* aer_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace pcieb::sim
