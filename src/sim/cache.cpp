#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace pcieb::sim {

LastLevelCache::LastLevelCache(const CacheConfig& cfg)
    : cfg_(cfg), num_sets_(cfg.sets()) {
  if (cfg_.ways == 0 || cfg_.line_bytes == 0 || num_sets_ == 0) {
    throw std::invalid_argument("CacheConfig: zero-sized structure");
  }
  if (cfg_.ways > 64) {
    throw std::invalid_argument("CacheConfig: at most 64 ways supported");
  }
  if (cfg_.ddio_ways == 0 || cfg_.ddio_ways > cfg_.ways) {
    throw std::invalid_argument("CacheConfig: ddio_ways must be in [1, ways]");
  }
  if (!std::has_single_bit(static_cast<std::uint64_t>(cfg_.line_bytes))) {
    throw std::invalid_argument("CacheConfig: line size must be a power of 2");
  }
  line_shift_ = static_cast<unsigned>(
      std::countr_zero(static_cast<std::uint64_t>(cfg_.line_bytes)));
  // Magic divisor for locate(): with m = ceil(2^p / d) and
  // p = nbits + bit_width(d), floor(n*m / 2^p) == floor(n/d) exactly for
  // all n < 2^nbits (the multiplier's excess e = m*d - 2^p is < d, so the
  // error term n*e/(d*2^p) stays below 2^-bit_width(d) < 1/d). Line
  // numbers fit nbits = 64 - line_shift_ bits by construction. Degenerate
  // configs whose multiplier overflows 64 bits keep the hardware divide.
  const unsigned nbits = 64u - line_shift_;
  const unsigned p = nbits + static_cast<unsigned>(std::bit_width(num_sets_));
  if (p <= 127) {
    const unsigned __int128 m =
        ((static_cast<unsigned __int128>(1) << p) + num_sets_ - 1) / num_sets_;
    if ((m >> 64) == 0) {
      set_magic_ = static_cast<std::uint64_t>(m);
      set_magic_shift_ = p;
    }
  }
  // Uninitialized on purpose (see the header): the valid bitmap gates
  // every read, so the zero-fill the vector form paid — ~4 MB for the
  // default LLC, the top system-build cost — buys nothing.
  tags_.reset(new std::uint64_t[num_sets_ * cfg_.ways]);
  lru_.reset(new std::uint64_t[num_sets_ * cfg_.ways]);
  valid_.resize(num_sets_);
  dirty_.resize(num_sets_);
  fill_seen_.resize((num_sets_ + 63) / 64);
  // Start life with a pending (trivial) clear: the valid masks are
  // already zero, so materializing is a no-op — but an armed fill is what
  // makes warm_host_range on a freshly built cache eligible for the lazy
  // path.
  arm_fill(LazyFill::Clear);
}

int LastLevelCache::find_way(std::uint64_t set, std::uint64_t tag) const {
  const std::uint64_t* tags = &tags_[set * cfg_.ways];
  const std::uint64_t vmask = valid_[set];
  // Valid bit first: the tag word of an invalid way is never read, which
  // is what lets the tag store start life (and survive clear()) without a
  // whole-array fill.
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    if (((vmask >> w) & 1u) && tags[w] == tag) return static_cast<int>(w);
  }
  return -1;
}

bool LastLevelCache::read_probe(std::uint64_t addr) {
  std::uint64_t set, tag;
  locate(addr, set, tag);
  materialize(set);
  const int w = find_way(set, tag);
  if (w >= 0) {
    lru_[set * cfg_.ways + static_cast<unsigned>(w)] = ++lru_clock_;
    ++hits_;
    return true;
  }
  ++misses_;
  return false;
}

LastLevelCache::WriteOutcome LastLevelCache::write_allocate(std::uint64_t addr) {
  std::uint64_t set, tag;
  locate(addr, set, tag);
  materialize(set);
  const std::uint64_t row = set * cfg_.ways;
  if (const int w = find_way(set, tag); w >= 0) {
    lru_[row + static_cast<unsigned>(w)] = ++lru_clock_;
    dirty_[set] |= std::uint64_t{1} << w;
    ++hits_;
    return WriteOutcome::HitUpdate;
  }
  ++misses_;
  // Allocate within the DDIO quota: LRU among the first ddio_ways ways.
  unsigned victim = 0;
  for (unsigned w = 1; w < cfg_.ddio_ways; ++w) {
    if (!valid(set, w)) { victim = w; break; }
    if (!valid(set, victim)) break;
    if (lru_[row + w] < lru_[row + victim]) victim = w;
  }
  const bool was_dirty = valid(set, victim) && dirty(set, victim);
  if (was_dirty) ++dirty_evictions_;
  ++ddio_allocations_;
  if (valid(set, victim)) ++ddio_evictions_;
  valid_[set] |= std::uint64_t{1} << victim;
  dirty_[set] |= std::uint64_t{1} << victim;
  tags_[row + victim] = tag;
  lru_[row + victim] = ++lru_clock_;
  return was_dirty ? WriteOutcome::AllocatedDirty : WriteOutcome::AllocatedClean;
}

void LastLevelCache::host_touch(std::uint64_t addr, bool dirty_line) {
  std::uint64_t set, tag;
  locate(addr, set, tag);
  materialize(set);
  const std::uint64_t row = set * cfg_.ways;
  if (const int w = find_way(set, tag); w >= 0) {
    lru_[row + static_cast<unsigned>(w)] = ++lru_clock_;
    if (dirty_line) dirty_[set] |= std::uint64_t{1} << w;
    return;
  }
  unsigned victim = 0;
  for (unsigned w = 1; w < cfg_.ways; ++w) {
    if (!valid(set, w)) { victim = w; break; }
    if (!valid(set, victim)) break;
    if (lru_[row + w] < lru_[row + victim]) victim = w;
  }
  if (valid(set, victim) && dirty(set, victim)) ++dirty_evictions_;
  valid_[set] |= std::uint64_t{1} << victim;
  if (dirty_line) {
    dirty_[set] |= std::uint64_t{1} << victim;
  } else {
    dirty_[set] &= ~(std::uint64_t{1} << victim);
  }
  tags_[row + victim] = tag;
  lru_[row + victim] = ++lru_clock_;
}

void LastLevelCache::arm_fill(LazyFill mode) {
  std::fill(fill_seen_.begin(), fill_seen_.end(), 0);
  fill_unmaterialized_ = num_sets_;
  fill_mode_ = mode;
  // A whole-cache fill supersedes any unmaterialized warm; its statistics
  // and LRU-clock advance were applied at record time, exactly as the
  // eager loop would have left them.
  warm_.reset();
}

void LastLevelCache::thrash() {
  // Clean foreign lines everywhere: tags that no benchmark buffer address
  // maps to (top bit set), so every subsequent probe misses. Recorded
  // lazily — materialize_slow() writes each set on first touch; here we
  // only clear the seen bitmap and reserve the LRU-clock range the eager
  // fill would have consumed (one ++ per line, set-major, way inner), so
  // the materialized state and every later LRU decision are bit-identical
  // to the eager loop's.
  thrash_base_ = lru_clock_;
  lru_clock_ += num_sets_ * cfg_.ways;
  arm_fill(LazyFill::Thrash);
}

void LastLevelCache::materialize_slow(std::uint64_t set) {
  fill_seen_[set >> 6] |= std::uint64_t{1} << (set & 63);
  --fill_unmaterialized_;
  if (fill_mode_ == LazyFill::Clear) {
    valid_[set] = 0;
    dirty_[set] = 0;
  } else {
    const std::uint64_t row = set * cfg_.ways;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      tags_[row + w] = (std::uint64_t{1} << 63) | w;
      lru_[row + w] = thrash_base_ + row + w + 1;
    }
    valid_[set] = cfg_.ways == 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << cfg_.ways) - 1;
    dirty_[set] = 0;
  }
  if (warm_) replay_warm(set);
}

// The per-line warm loop, restricted to one set, in closed form. Every
// touch misses: the range's lines are distinct, and the pending fill holds
// no reachable tag (a cleared set is empty, thrash tags have the top bit
// set). So each touch allocates the victim loop's choice within the
// replacement domain W (`ways` for host warms, `ddio_ways` for DDIO), and
// that choice follows a fixed cycle:
//  * after thrash() the fill's stamps ascend with the way index and every
//    warm stamp is newer, so LRU takes ways 0, 1, ..., W-1;
//  * after clear() the victim loop's !valid(w) test fires at
//    w = 1 before way 0 is considered, so the first touch takes way 1,
//    the second way 0 (an invalid victim ends the scan), then 2..W-1.
// Either way the domain then holds strictly ascending stamps in cycle
// order, so the cycle repeats: touch i of the set lands in way
// perm[i mod W] with the stamp it had in the loop, and only the last
// min(k, W) of the set's k touches survive.
void LastLevelCache::replay_warm(std::uint64_t set) {
  const WarmRange& r = *warm_;
  // Range index j0 of the set's first line; its other lines follow every
  // num_sets_ lines (the range is line-contiguous), one tag higher each.
  // Sets below start_set are reached after the range wraps the set
  // index, one tag above start_tag.
  const bool wrapped = set < r.start_set;
  const std::uint64_t j0 =
      wrapped ? set + num_sets_ - r.start_set : set - r.start_set;
  const std::uint64_t k = r.per_set + (j0 < r.extra ? 1 : 0);
  const std::uint64_t tag0 = r.start_tag + (wrapped ? 1 : 0);
  const unsigned span = r.ddio ? cfg_.ddio_ways : cfg_.ways;
  const bool cleared = fill_mode_ == LazyFill::Clear;
  const std::uint64_t row = set * cfg_.ways;
  const std::uint64_t first = k > span ? k - span : 0;
  unsigned slot = k > span ? static_cast<unsigned>(k % span) : 0;
  std::uint64_t written = 0;
  for (std::uint64_t i = first; i < k; ++i) {
    const unsigned w = cleared && span > 1 && slot < 2 ? 1 - slot : slot;
    tags_[row + w] = tag0 + i;
    lru_[row + w] = r.clock0 + j0 + i * num_sets_ + 1;
    written |= std::uint64_t{1} << w;
    if (++slot == span) slot = 0;
  }
  valid_[set] |= written;
  if (r.dirty) {
    dirty_[set] |= written;
  } else {
    dirty_[set] &= ~written;
  }
}

std::uint64_t LastLevelCache::wrap_evictions(std::uint64_t lines,
                                             std::uint64_t ways) const {
  // A contiguous range puts q or q+1 lines into each set (r sets get the
  // extra one). Touches past a set's replacement domain evict the range's
  // own earlier lines.
  const std::uint64_t q = lines / num_sets_;
  const std::uint64_t r = lines % num_sets_;
  const std::uint64_t extra_hi = q + 1 > ways ? q + 1 - ways : 0;
  const std::uint64_t extra_lo = q > ways ? q - ways : 0;
  return r * extra_hi + (num_sets_ - r) * extra_lo;
}

void LastLevelCache::record_warm(std::uint64_t addr, std::uint64_t lines,
                                 bool dirty_lines, bool ddio) {
  WarmRange r;
  locate(addr, r.start_set, r.start_tag);
  r.per_set = lines / num_sets_;
  r.extra = lines % num_sets_;
  r.clock0 = lru_clock_;
  r.dirty = dirty_lines;
  r.ddio = ddio;
  warm_ = r;
  lru_clock_ += lines;
}

void LastLevelCache::warm_host_range(std::uint64_t addr, std::uint64_t len,
                                     bool dirty_lines) {
  if (len == 0) return;
  const std::uint64_t n = (len + cfg_.line_bytes - 1) / cfg_.line_bytes;
  if (warm_lazy_eligible()) {
    // The range's lines are distinct and no reachable tag matches the
    // pending fill's contents, so every touch misses deterministically:
    // the statistics of the eager loop are computable up front.
    if (dirty_lines) dirty_evictions_ += wrap_evictions(n, cfg_.ways);
    record_warm(addr, n, dirty_lines, /*ddio=*/false);
    return;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    host_touch(addr + i * cfg_.line_bytes, dirty_lines);
  }
}

void LastLevelCache::warm_device_range(std::uint64_t addr, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t n = (len + cfg_.line_bytes - 1) / cfg_.line_bytes;
  if (warm_lazy_eligible()) {
    misses_ += n;
    ddio_allocations_ += n;
    // Post-thrash every victim is a valid line; on a cleared cache only
    // wraps past the DDIO quota evict (the range's own dirty lines).
    const std::uint64_t wraps = wrap_evictions(n, cfg_.ddio_ways);
    ddio_evictions_ += fill_mode_ == LazyFill::Thrash ? n : wraps;
    dirty_evictions_ += wraps;
    record_warm(addr, n, /*dirty=*/true, /*ddio=*/true);
    return;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    write_allocate(addr + i * cfg_.line_bytes);
  }
}

void LastLevelCache::clear() {
  // Lazy whole-cache invalidation: each set's valid/dirty masks are
  // zeroed on first touch. Tag and LRU words of invalid ways are never
  // read, so they can stay stale.
  arm_fill(LazyFill::Clear);
}

void LastLevelCache::reset_stats() {
  hits_ = misses_ = dirty_evictions_ = 0;
  ddio_allocations_ = ddio_evictions_ = 0;
}

bool LastLevelCache::contains(std::uint64_t addr) const {
  std::uint64_t set, tag;
  locate(addr, set, tag);
  if (fill_pending(set)) {
    if (warm_) {
      // Lazy warm lines may land in this set; materializing is
      // logically const (observable state is unchanged by design).
      const_cast<LastLevelCache*>(this)->materialize(set);
      return find_way(set, tag) >= 0;
    }
    // A set awaiting a clear contains nothing; one awaiting the thrash
    // fill contains only foreign lines ((1<<63)|way), and no reachable
    // address produces a tag with the top bit set — so the answer is
    // computable without materializing.
    if (fill_mode_ == LazyFill::Clear) return false;
    return (tag >> 63) != 0 && (tag & ~(std::uint64_t{1} << 63)) < cfg_.ways;
  }
  return find_way(set, tag) >= 0;
}

}  // namespace pcieb::sim
