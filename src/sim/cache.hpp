// Last-level cache with a DDIO allocation quota.
//
// A real set-associative tag array (64 B lines, LRU within each set). Two
// write paths exist, matching Intel Data Direct I/O:
//  * host_touch()    — the host CPU warming lines; may allocate any way.
//  * write_allocate()— inbound DMA writes; may only allocate into the
//    first `ddio_ways` ways of a set (10 % of the LLC by default), though
//    they update a line in place wherever it already resides.
// DMA reads probe the whole cache (read_probe).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"

namespace pcieb::sim {

struct CacheConfig {
  std::uint64_t size_bytes = 15 * (1ull << 20);
  unsigned ways = 20;
  unsigned line_bytes = 64;
  unsigned ddio_ways = 2;  ///< ways DMA writes may allocate into (~10 %).

  std::uint64_t sets() const {
    return size_bytes / (static_cast<std::uint64_t>(ways) * line_bytes);
  }
};

class LastLevelCache {
 public:
  enum class WriteOutcome {
    HitUpdate,        ///< line already resident, updated in place
    AllocatedClean,   ///< allocated; victim was clean or empty
    AllocatedDirty,   ///< allocated; a dirty victim had to be flushed first
  };

  explicit LastLevelCache(const CacheConfig& cfg);

  /// DMA read probe: true on hit (refreshes LRU).
  bool read_probe(std::uint64_t addr);

  /// Inbound DMA write (DDIO). Marks the line dirty.
  WriteOutcome write_allocate(std::uint64_t addr);

  /// Host warms a line (may use any way).
  void host_touch(std::uint64_t addr, bool dirty);

  /// Bulk host warm of the contiguous range [addr, addr+len): observable
  /// state, LRU stamps, and statistics are byte-identical to calling
  /// host_touch(addr + i*line_bytes, dirty) for each line in order.
  ///
  /// Lazy when the whole cache is still awaiting a bulk fill (the
  /// prepare-state pattern: thrash()/clear()/construction immediately
  /// followed by one warm): the range is recorded in O(1), its statistics
  /// and LRU-clock advance are applied eagerly (so a reset_stats() right
  /// after behaves exactly as with the eager loop), and each set writes
  /// the range's surviving lines in closed form on first probe, in
  /// O(min(touches, ways)) (docs/PERFORMANCE.md round 4). A benchmark
  /// touching 100 lines of a 16K-line warmed window pays for 100, not
  /// 16K — the dominant per-trial cost of the chaos campaign
  /// (docs/PERFORMANCE.md round 3). Falls back to the eager per-line loop
  /// whenever any set was touched since the fill was armed or a lazy
  /// range is already recorded.
  void warm_host_range(std::uint64_t addr, std::uint64_t len, bool dirty);

  /// Bulk DDIO warm: identical to write_allocate(addr + i*line_bytes) per
  /// line in order, lazy under the same conditions as warm_host_range.
  void warm_device_range(std::uint64_t addr, std::uint64_t len);

  /// Fill the whole cache with clean foreign lines, evicting everything —
  /// the pcie-bench "thrash the cache" step.
  ///
  /// Lazy: the fill is recorded (one bitmap clear + a reserved LRU-clock
  /// range) and each set is materialized on first touch. Every run calls
  /// this once per benchmark while touching only the window's sets, so
  /// the eager O(sets * ways) store loop was the dominant system-build
  /// cost on the chaos workload (docs/PERFORMANCE.md). Materialized
  /// state is bit-identical to the eager fill, including the LRU stamps.
  void thrash();

  /// Drop all contents (power-on state). Lazy like thrash(): the
  /// invalidation is recorded in O(1) and each set is emptied on first
  /// touch, so clearing costs O(sets touched afterwards), not O(capacity).
  void clear();

  const CacheConfig& config() const { return cfg_; }

  // Statistics since construction or reset_stats().
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t dirty_evictions() const { return dirty_evictions_; }
  /// Lines allocated by inbound DMA writes (DDIO-way allocations).
  std::uint64_t ddio_allocations() const { return ddio_allocations_; }
  /// Valid lines displaced by those allocations (clean or dirty).
  std::uint64_t ddio_evictions() const { return ddio_evictions_; }
  void reset_stats();

  /// Stable addresses of the monotonic totals, for obs::CounterRegistry's
  /// raw readers. Valid for the cache's lifetime.
  struct CounterSources {
    const std::uint64_t* hits;
    const std::uint64_t* misses;
    const std::uint64_t* dirty_evictions;
    const std::uint64_t* ddio_allocations;
    const std::uint64_t* ddio_evictions;
  };
  CounterSources counter_sources() const {
    return {&hits_, &misses_, &dirty_evictions_, &ddio_allocations_,
            &ddio_evictions_};
  }

  /// True if the line holding addr is resident (no LRU update) — test hook.
  bool contains(std::uint64_t addr) const;

 private:
  /// Set and tag in one pass: a shift (line size is a power of two) and a
  /// single division by num_sets_ whose quotient is the tag and whose
  /// remainder is the set — separate set and tag helpers cost four
  /// divisions per probe, which dominated the probe at -O2. The division
  /// itself is strength-reduced to a multiply-high by a precomputed magic
  /// constant (Granlund–Montgomery); the constructor proves the constant
  /// exact for every representable line number or leaves set_magic_ at 0
  /// to keep the hardware divide.
  void locate(std::uint64_t addr, std::uint64_t& set, std::uint64_t& tag) const {
    const std::uint64_t line = addr >> line_shift_;
    if (set_magic_ != 0) {
      tag = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(line) * set_magic_) >>
          set_magic_shift_);
    } else {
      tag = line / num_sets_;
    }
    set = line - tag * num_sets_;
  }
  /// Way holding (set, tag), or -1 — a first-hit walk over the
  /// contiguous tag row (8 B per way, one or two cache lines per set).
  int find_way(std::uint64_t set, std::uint64_t tag) const;

  /// Pending lazy bulk operation: thrash() records a whole-cache foreign
  /// fill, clear() records a whole-cache invalidation. Either is
  /// applied per set on first touch via materialize().
  enum class LazyFill : std::uint8_t { Clear, Thrash };

  /// The lazy warm range (see warm_host_range), pre-split by set so a
  /// set's share needs no division: line j of the range was stamped
  /// clock0 + j + 1, so each set gets its lines' original LRU stamps
  /// regardless of materialization order.
  struct WarmRange {
    std::uint64_t start_set = 0;  ///< set of the range's first line
    std::uint64_t start_tag = 0;  ///< tag of the range's first line
    std::uint64_t per_set = 0;    ///< lines in every set, plus one in the
    std::uint64_t extra = 0;      ///< `extra` sets from start_set on
    std::uint64_t clock0 = 0;     ///< lru_clock_ before the first touch
    bool dirty = false;           ///< dirty flag (always set for DDIO)
    bool ddio = false;            ///< write_allocate (DDIO) vs host_touch
  };

  /// Record `lines` lines from addr as the lazy warm and advance the LRU
  /// clock past their stamps.
  void record_warm(std::uint64_t addr, std::uint64_t lines, bool dirty,
                   bool ddio);
  /// Write the lazy warm's lines that survive in `set` — the state the
  /// per-line loop would have left, in closed form (see cache.cpp).
  /// Statistics were counted at record time, so this only moves
  /// tags/LRU/valid/dirty state.
  void replay_warm(std::uint64_t set);
  /// Evictions of the range's own earlier lines once a set's replacement
  /// domain (`ways` wide) wraps: sum over sets of max(0, touches - ways).
  std::uint64_t wrap_evictions(std::uint64_t lines, std::uint64_t ways) const;
  /// True when a fresh warm range may be recorded lazily: a whole-cache
  /// fill is pending with no set materialized yet and no range recorded
  /// (a second range could hit the first's lines, invalidating the O(1)
  /// statistics accounting).
  bool warm_lazy_eligible() const {
    return fill_unmaterialized_ == num_sets_ && !warm_;
  }

  /// Write the pending bulk fill into `set` if it hasn't been touched
  /// since the last thrash()/clear(). The fast path is one counter test:
  /// once every set is materialized the armed counter is 0 and the probe
  /// pays a single predictable branch; while a fill is partly applied,
  /// already-materialized sets cost one inline bit test, not a call.
  void materialize(std::uint64_t set) {
    if (fill_pending(set)) materialize_slow(set);
  }
  void materialize_slow(std::uint64_t set);
  bool fill_pending(std::uint64_t set) const {
    return fill_unmaterialized_ != 0 &&
           (fill_seen_[set >> 6] & (std::uint64_t{1} << (set & 63))) == 0;
  }
  /// Arm a lazy whole-cache fill: O(1) plus one bitmap clear.
  void arm_fill(LazyFill mode);

  bool valid(std::uint64_t set, unsigned way) const {
    return (valid_[set] >> way) & 1u;
  }
  bool dirty(std::uint64_t set, unsigned way) const {
    return (dirty_[set] >> way) & 1u;
  }

  CacheConfig cfg_;
  std::uint64_t num_sets_;
  unsigned line_shift_ = 0;      ///< log2(line_bytes)
  std::uint64_t set_magic_ = 0;  ///< ceil(2^shift / num_sets_), 0 = divide
  unsigned set_magic_shift_ = 0;
  // Structure-of-arrays tag store: the probe (the simulator's single
  // hottest cache operation) reads only the tag row — 8 B per way,
  // contiguous — instead of striding over padded line records. Valid and
  // dirty bits live in one bitmask word per set (ways <= 64 enforced).
  //
  // tags_/lru_ are deliberately left UNINITIALIZED at construction (3.9 MB
  // of zero-fill for the default 15 MB LLC was the dominant system-build
  // cost on the chaos workload): every read of a tag or LRU stamp is
  // guarded by the corresponding valid bit, and materialize() writes a
  // set's row before any guarded read, so an indeterminate word is never
  // observed. This also leaves the backing pages uncommitted until touched.
  std::unique_ptr<std::uint64_t[]> tags_;  ///< num_sets_ * ways, set-major
  std::unique_ptr<std::uint64_t[]> lru_;   ///< num_sets_ * ways, set-major
  std::vector<std::uint64_t> valid_;  ///< one mask per set
  std::vector<std::uint64_t> dirty_;  ///< one mask per set
  // Lazy-fill state: sets materialized since the last thrash()/clear()
  // (one bit per set), the LRU clock value a thrash started from (the
  // reserved range [base+1, base+sets*ways] holds the per-line stamps the
  // eager loop would have written), how many sets still await the fill,
  // and which bulk operation is pending.
  std::vector<std::uint64_t> fill_seen_;
  std::optional<WarmRange> warm_;  ///< lazy warm over the pending fill
  std::uint64_t thrash_base_ = 0;
  std::uint64_t fill_unmaterialized_ = 0;
  LazyFill fill_mode_ = LazyFill::Clear;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t dirty_evictions_ = 0;
  std::uint64_t ddio_allocations_ = 0;
  std::uint64_t ddio_evictions_ = 0;
};

}  // namespace pcieb::sim
