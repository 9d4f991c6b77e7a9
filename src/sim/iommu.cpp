#include "sim/iommu.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/profiler.hpp"

namespace pcieb::sim {

Iommu::Iommu(Simulator& sim, const IommuConfig& cfg)
    : sim_(sim), cfg_(cfg), domains_(1) {
  if (cfg_.enabled) {
    if (cfg_.tlb_entries == 0 || cfg_.walkers == 0 || cfg_.page_bytes == 0) {
      throw std::invalid_argument("IommuConfig: zero-sized structure");
    }
  }
  pools_.emplace_back(sim_, cfg_.tlb_entries, cfg_.walkers);
}

void Iommu::configure_domains(unsigned n, bool partitioned) {
  if (n == 0 || n > 256) {
    throw std::invalid_argument("Iommu: domain count must be in 1..256");
  }
  if (domains_.size() > 1 || !pools_.front().tlb.empty() || hits_ != 0 ||
      misses_ != 0) {
    throw std::logic_error(
        "Iommu: configure_domains twice or after translations");
  }
  domains_.assign(n, Domain{});
  if (partitioned) {
    // Each domain owns an equal slice of the IO-TLB and the walker pool;
    // a slice is never smaller than one entry/walker so every tenant can
    // always make forward progress.
    const unsigned capacity = std::max(1u, cfg_.tlb_entries / n);
    const unsigned walkers = std::max(1u, cfg_.walkers / n);
    std::vector<Pool> pools;
    pools.reserve(n);
    for (unsigned d = 0; d < n; ++d) {
      pools.emplace_back(sim_, capacity, walkers);
    }
    pools_ = std::move(pools);
  }
}

void Iommu::set_domain_aer(unsigned domain, fault::AerLog* aer) {
  domains_.at(domain).aer = aer;
}

bool Iommu::tlb_lookup(Pool& pool, std::uint64_t key) {
  auto it = pool.tlb.find(key);
  if (it == pool.tlb.end()) return false;
  pool.lru.splice(pool.lru.begin(), pool.lru, it->second);
  return true;
}

void Iommu::tlb_insert(Pool& pool, std::uint64_t key) {
  if (pool.tlb.contains(key)) return;  // a concurrent walk already filled it
  if (pool.tlb.size() >= pool.capacity) {
    const std::uint64_t victim = pool.lru.back();
    pool.lru.pop_back();
    pool.tlb.erase(victim);
    ++evictions_;
    // Eviction bills the domain that loses the entry, not the one that
    // caused it — in a shared pool, the cross-tenant interference signal.
    ++domains_[victim & 0xff].stats.evictions;
  }
  pool.lru.push_front(key);
  pool.tlb[key] = pool.lru.begin();
}

bool Iommu::probe(std::uint64_t addr, bool is_write, unsigned domain,
                  bool& fault) {
  // An injected fault models an unmapped/blocked page: such a page cannot
  // be TLB-resident, so the fault forces the full walk, which discovers
  // the missing leaf — full walk latency, nothing cached.
  if (injector_) {
    obs::ProfScope prof(obs::CostCenter::FaultPredicates);
    fault = injector_->on_translate(addr, is_write, sim_.now(), domain);
  } else {
    fault = false;
  }
  if (fault ||
      !tlb_lookup(pool_of(domain), tlb_key(domain, addr / cfg_.page_bytes))) {
    return false;
  }
  ++hits_;
  ++domains_[domain].stats.hits;
  if (trace_) {
    trace_->record({sim_.now(), 0, addr, 0, 0, obs::EventKind::IommuHit,
                    obs::Component::Iommu,
                    static_cast<std::uint8_t>(is_write ? 1 : 0)});
  }
  return true;
}

void Iommu::walk(std::uint64_t addr, bool is_write, unsigned domain,
                 bool fault, CheckedCallback done) {
  const std::uint64_t key = tlb_key(domain, addr / cfg_.page_bytes);
  ++misses_;
  ++domains_[domain].stats.misses;
  const Picos requested = sim_.now();
  const Picos occupancy =
      is_write ? cfg_.walk_occupancy_write : cfg_.walk_occupancy_read;
  const Picos latency = cfg_.walk_latency;
  // The walk queues on its pool's walkers: in partitioned mode the
  // domain's own slice, so one tenant's miss storm cannot starve another's
  // translations.
  Pool& pool = pool_of(domain);
  pool.walkers.acquire([this, &pool, key, addr, is_write, domain, fault,
                        requested, occupancy, latency,
                        done = std::move(done)]() mutable {
    // The walker is busy for `occupancy`; the requester additionally waits
    // the full walk latency (occupancy <= latency).
    const Picos start = sim_.now();
    sim_.after(occupancy, [&pool] { pool.walkers.release(); });
    sim_.at(start + latency, [this, &pool, key, addr, is_write, domain, fault,
                              requested, done = std::move(done)] {
      if (fault) {
        ++faults_;
        Domain& d = domains_[domain];
        ++d.stats.faults;
        fault::AerLog* aer = d.aer ? d.aer : aer_;
        if (aer) {
          aer->record(fault::ErrorType::IommuFault, sim_.now(), addr, 0,
                      is_write ? 1 : 0);
        }
      } else {
        tlb_insert(pool, key);
      }
      if (trace_) {
        // Span covers the requester's whole wait, including any queueing
        // for a free walker, so breakdown attribution stays exact.
        trace_->record({requested, sim_.now() - requested, addr, 0, 0,
                        obs::EventKind::IommuWalk, obs::Component::Iommu,
                        static_cast<std::uint8_t>((is_write ? 1 : 0) |
                                                  (fault ? 2 : 0))});
      }
      done(!fault);
    });
  });
}

void Iommu::flush_tlb() {
  for (Pool& pool : pools_) {
    pool.tlb.clear();
    pool.lru.clear();
  }
}

void Iommu::flush_domain(unsigned domain) {
  // Erase only this domain's keys: a shared pool holds every domain's.
  Pool& pool = pools_.size() == 1 ? pools_.front() : pools_.at(domain);
  for (auto it = pool.lru.begin(); it != pool.lru.end();) {
    if ((*it & 0xff) == domain) {
      pool.tlb.erase(*it);
      it = pool.lru.erase(it);
    } else {
      ++it;
    }
  }
}

void Iommu::remap_domain(unsigned domain) {
  flush_domain(domain);
  ++remaps_;
  ++domains_.at(domain).stats.remaps;
}

}  // namespace pcieb::sim
