// Allocation-free pending-event store for the discrete-event engine.
//
// Two pieces replace the old std::priority_queue<Event> +
// std::function<void()> representation:
//
//  * A node pool: events live in pooled EventNode cells (chunk-allocated,
//    free-list recycled, never relocated) whose callable is a SmallFn —
//    captures up to 48 B are stored inline in the node, so steady-state
//    scheduling performs zero heap allocations.
//
//  * A hierarchical timing wheel keyed on integer picoseconds. The
//    bottom level is 256 slots of 4096 ps each (simulator event deltas —
//    serialization, propagation, memory latency — are almost always under
//    the level's 1 µs horizon, and events run ~5 ns apart, so a near-empty
//    4096 ps slot keeps its sorted insertion O(1) while 1 ps slots would
//    force a cascade on nearly every pop). Bottom slots hold
//    time-sorted, insertion-stable lists; seven coarser levels of 256
//    FIFO slots each cover the rest of the 64-bit range and cascade
//    downward, rarely, when the bottom horizon advances past them.
//
// Ordering contract (identical to the old comparator): events execute in
// ascending time, and events at equal times execute in schedule order.
// Bottom-level insertion places a node after every node with time <= its
// own, upper slot lists are FIFO, cascading preserves list order, and the
// level is a pure function of the timestamp and the monotone lower bound
// — so schedule order is preserved end to end without storing a sequence
// number at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "sim/small_fn.hpp"

namespace pcieb::sim {

class EventQueue {
 public:
  struct EventNode {
    Picos time = 0;
    EventNode* next = nullptr;
    SmallFn fn;
  };

  EventQueue() = default;
  ~EventQueue() { clear(); }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// File `fn` at absolute time `t`. `t` must be >= the time of the most
  /// recently popped event (the Simulator enforces >= now()).
  template <typename F>
  void push(Picos t, F&& fn) {
    EventNode* node = allocate();
    node->time = t;
    if constexpr (std::is_same_v<std::decay_t<F>, SmallFn>) {
      node->fn = std::forward<F>(fn);  // relocate, no re-wrap
    } else {
      node->fn.emplace(std::forward<F>(fn));
    }
    file(node);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Earliest pending timestamp; throws std::logic_error when the queue
  /// is empty. Cascades coarse slots as a side effect but never reorders
  /// or drops events.
  Picos next_time() { return settle(); }

  /// Detach and return the earliest (time, schedule-order) node. The
  /// caller runs node->fn and must hand the node back via recycle() —
  /// typically through a scope guard so a throwing callable still
  /// recycles it. Returns nullptr when empty.
  EventNode* pop();

  /// Destroy the node's callable and return the cell to the free list.
  void recycle(EventNode* node) {
    node->fn.reset();
    node->next = free_;
    free_ = node;
  }

  /// Drop every pending event (destroying the callables).
  void clear();

  /// Total node cells ever allocated (pool growth probe for tests —
  /// steady-state traffic keeps this flat while events recycle).
  std::size_t nodes_allocated() const { return nodes_allocated_; }

 private:
  // 8-bit radix above a 2^12 ps sub-slot: level 0 spans 256 * 4096 ps =
  // ~1 µs, so the common scheduling deltas file straight into level 0 and
  // upper levels only see long timers (replay, retrain, idle gaps).
  static constexpr unsigned kSubShift = 12;              // 4096 ps slots
  static constexpr unsigned kLevelBits = 8;
  static constexpr unsigned kSlots = 1u << kLevelBits;   // 256
  static constexpr unsigned kLevels = 8;
  static constexpr std::size_t kChunkNodes = 128;

  struct Slot {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };
  struct Level {
    /// Word w bit b set <=> slots[64w + b] non-empty.
    std::uint64_t occupied[kSlots / 64] = {};
    Slot slots[kSlots];
  };

  EventNode* allocate();
  /// Insert into the wheel (level chosen against base_), appending to the
  /// slot's FIFO list.
  void file(EventNode* node);
  /// Advance base_ / cascade until the earliest event sits in a level-0
  /// slot; returns its timestamp. Throws when the queue is empty.
  Picos settle();

  Level levels_[kLevels];
  /// Non-empty slot count per level, kept outside Level so the hot
  /// occupied/slots arrays stay cache-line aligned.
  std::uint32_t occupied_slots_[kLevels] = {};
  /// Bit L set <=> level L has at least one occupied slot. Lets settle()
  /// find the lowest occupied level with one countr_zero instead of
  /// scanning every level's occupancy words.
  std::uint32_t levels_occupied_ = 0;
  std::uint64_t base_ = 0;  ///< lower bound on every pending timestamp
  std::size_t size_ = 0;
  EventNode* free_ = nullptr;
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  std::size_t nodes_allocated_ = 0;
};

}  // namespace pcieb::sim
