// Direct-indexed map for the DMA engine's in-flight bookkeeping.
//
// DmaDevice keys its outstanding read requests by tag and its pending DMA
// ops by dma_id — both non-zero, monotonically increasing uint32 counters
// whose live keys always span a bounded window (tags by the read-tag
// pool, ops by the benchmark's outstanding-byte window).
// std::unordered_map pays a node allocation per insert and a pointer
// chase per lookup, which showed up prominently in the simulator's
// hot-path profile.
//
// For monotone keys a plain power-of-two ring indexed by `key & mask` is
// collision-free as long as the table is larger than the live window: two
// live keys can share a slot only if they differ by a multiple of the
// capacity. When that ever happens the table doubles and re-places its
// entries (which provably cannot collide after doubling), so lookups and
// erases are a single indexed access — no probing, no tombstones, and no
// steady-state allocations.
//
// Key 0 is reserved as the empty-slot sentinel; DmaDevice's counters
// start at 1 and never wrap in any realistic run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pcieb::sim {

/// Map from non-zero uint32 keys to V. V must be default-constructible
/// and movable; erased slots are reset to V{} so held resources (e.g.
/// callbacks) are released eagerly.
template <typename V>
class FlatU32Map {
 public:
  V* find(std::uint32_t key) {
    if (size_ == 0) return nullptr;
    Entry& e = table_[key & mask()];
    return e.key == key ? &e.value : nullptr;
  }
  const V* find(std::uint32_t key) const {
    return const_cast<FlatU32Map*>(this)->find(key);
  }

  /// Insert or overwrite. Returns the stored value.
  V& insert(std::uint32_t key, V value) {
    if (table_.empty()) table_.resize(kInitialSlots);
    for (;;) {
      Entry& e = table_[key & mask()];
      if (e.key == 0 || e.key == key) {
        if (e.key == 0) ++size_;
        e.key = key;
        e.value = std::move(value);
        return e.value;
      }
      grow();  // live window outgrew the table: double and re-place
    }
  }

  /// Remove `key`; returns false when absent.
  bool erase(std::uint32_t key) {
    if (size_ == 0) return false;
    Entry& e = table_[key & mask()];
    if (e.key != key) return false;
    e.key = 0;
    e.value = V{};
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visit every (key, value) pair in unspecified order.
  template <typename F>
  void for_each(F&& f) const {
    if (size_ == 0) return;
    for (const Entry& e : table_) {
      if (e.key != 0) f(e.key, e.value);
    }
  }

  /// Table capacity (growth probe for tests).
  std::size_t capacity() const { return table_.size(); }

 private:
  struct Entry {
    std::uint32_t key = 0;
    V value{};
  };

  std::size_t mask() const { return table_.size() - 1; }

  void grow() {
    // Entries at distinct old slots differ by a non-multiple of the old
    // capacity, hence also of the doubled capacity — re-placing them can
    // never collide.
    std::vector<Entry> old = std::move(table_);
    table_.clear();
    table_.resize(old.size() * 2);
    for (Entry& e : old) {
      if (e.key != 0) table_[e.key & mask()] = std::move(e);
    }
  }

  static constexpr std::size_t kInitialSlots = 64;

  std::vector<Entry> table_;
  std::size_t size_ = 0;
};

}  // namespace pcieb::sim
