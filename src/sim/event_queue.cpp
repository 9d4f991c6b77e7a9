#include "sim/event_queue.hpp"

#include <bit>
#include <stdexcept>

namespace pcieb::sim {
namespace {

constexpr unsigned kSubShift = 12;
constexpr unsigned kLevelBits = 8;
constexpr unsigned kSlots = 1u << kLevelBits;

/// Level an event at time `t` files under when the lower bound is `base`:
/// level 0 when they agree on every bit above kSubShift + kLevelBits,
/// otherwise the highest differing 8-bit field above the sub-slot. Equal
/// times always yield equal levels, which is what keeps schedule order
/// implicit.
unsigned level_for(std::uint64_t t, std::uint64_t base) {
  const std::uint64_t diff = (t ^ base) >> kSubShift;
  if (diff < kSlots) return 0;
  const unsigned hi = 63u - static_cast<unsigned>(std::countl_zero(diff));
  return hi / kLevelBits;
}

/// Index of the lowest occupied slot; the level must be non-empty.
/// `start_word` skips bitmap words known to be empty: every pending time
/// is >= base_, so a level's lowest occupied slot is never below base_'s
/// slot field at that level and the scan can begin at base_'s word.
unsigned lowest_slot(const std::uint64_t (&occ)[kSlots / 64],
                     unsigned start_word) {
  for (unsigned w = start_word;; ++w) {
    if (occ[w] != 0) {
      return w * 64 + static_cast<unsigned>(std::countr_zero(occ[w]));
    }
  }
}

}  // namespace

EventQueue::EventNode* EventQueue::allocate() {
  if (free_ == nullptr) {
    auto chunk = std::make_unique<EventNode[]>(kChunkNodes);
    for (std::size_t i = 0; i < kChunkNodes; ++i) {
      chunk[i].next = free_;
      free_ = &chunk[i];
    }
    nodes_allocated_ += kChunkNodes;
    chunks_.push_back(std::move(chunk));
  }
  EventNode* node = free_;
  free_ = node->next;
  node->next = nullptr;
  return node;
}

void EventQueue::file(EventNode* node) {
  const auto t = static_cast<std::uint64_t>(node->time);
  const unsigned level = level_for(t, base_);
  const unsigned slot =
      static_cast<unsigned>(t >> (kSubShift + level * kLevelBits)) &
      (kSlots - 1);
  Level& lv = levels_[level];
  Slot& s = lv.slots[slot];
  ++size_;
  if (s.tail == nullptr) {
    node->next = nullptr;
    s.head = s.tail = node;
    lv.occupied[slot / 64] |= 1ull << (slot % 64);
    if (occupied_slots_[level]++ == 0) levels_occupied_ |= 1u << level;
    return;
  }
  if (level != 0 || node->time >= s.tail->time) {
    // Upper levels are plain FIFOs; at level 0 a new maximum (the common
    // case — simulated time moves forward) appends in O(1). Appending
    // after an equal-keyed tail is exactly schedule order.
    node->next = nullptr;
    s.tail->next = node;
    s.tail = node;
    return;
  }
  // Level-0 sorted insertion: after every node with time <= t (stable),
  // before the first node with time > t. The tail check above guarantees
  // the walk terminates before the end of the list.
  EventNode* prev = nullptr;
  EventNode* cur = s.head;
  while (cur->time <= node->time) {
    prev = cur;
    cur = cur->next;
  }
  node->next = cur;
  if (prev != nullptr) {
    prev->next = node;
  } else {
    s.head = node;
  }
}

Picos EventQueue::settle() {
  for (;;) {
    if (levels_occupied_ & 1u) {
      // The earliest event overall is the head of the lowest occupied
      // bottom slot: bottom lists are time-sorted, slot index order is
      // time order (all bottom residents share the bits above the slot
      // field with base_), and any upper-level event is strictly later.
      const unsigned bottom = lowest_slot(
          levels_[0].occupied,
          static_cast<unsigned>(base_ >> (kSubShift + 6)) & 3u);
      return levels_[0].slots[bottom].head->time;
    }
    if (levels_occupied_ == 0) {
      // Only next_time() can get here empty (pop() checks size_ first).
      throw std::logic_error("EventQueue::next_time: queue is empty");
    }
    // Cascade the earliest occupied coarse slot down one step. All bits
    // of every pending timestamp above level L match base_ for levels
    // below the first occupied one, so the lowest occupied level's lowest
    // occupied slot holds the global minimum.
    const auto level =
        static_cast<unsigned>(std::countr_zero(levels_occupied_));
    Level& lv = levels_[level];
    // base_'s word index at this level; at the topmost reachable level
    // the field shift exceeds 63 bits, where the hint is simply word 0.
    const unsigned hint_shift = kSubShift + level * kLevelBits + 6;
    const unsigned start_word =
        hint_shift < 64 ? static_cast<unsigned>(base_ >> hint_shift) & 3u : 0u;
    const unsigned slot = lowest_slot(lv.occupied, start_word);
    Slot& s = lv.slots[slot];
    EventNode* node = s.head;
    s.head = s.tail = nullptr;
    lv.occupied[slot / 64] &= ~(1ull << (slot % 64));
    if (--occupied_slots_[level] == 0) levels_occupied_ &= ~(1u << level);
    // Jump the lower bound to the start of that slot, then re-file the
    // detached list in order (stable: preserves schedule order).
    const unsigned shift = kSubShift + level * kLevelBits;
    const std::uint64_t field_mask = std::uint64_t{kSlots - 1} << shift;
    const std::uint64_t below_mask = (std::uint64_t{1} << shift) - 1;
    base_ = (base_ & ~(field_mask | below_mask)) |
            (std::uint64_t{slot} << shift);
    while (node != nullptr) {
      EventNode* next = node->next;
      --size_;  // file() re-counts it
      file(node);
      node = next;
    }
  }
}

EventQueue::EventNode* EventQueue::pop() {
  if (size_ == 0) return nullptr;
  const auto t = static_cast<std::uint64_t>(settle());
  const unsigned slot = static_cast<unsigned>(t >> kSubShift) & (kSlots - 1);
  Slot& s = levels_[0].slots[slot];
  EventNode* node = s.head;
  s.head = node->next;
  if (s.head == nullptr) {
    s.tail = nullptr;
    levels_[0].occupied[slot / 64] &= ~(1ull << (slot % 64));
    if (--occupied_slots_[0] == 0) levels_occupied_ &= ~1u;
  }
  node->next = nullptr;
  base_ = t;
  --size_;
  return node;
}

void EventQueue::clear() {
  for (Level& level : levels_) {
    for (Slot& s : level.slots) {
      EventNode* node = s.head;
      while (node != nullptr) {
        EventNode* next = node->next;
        recycle(node);
        node = next;
      }
      s.head = s.tail = nullptr;
    }
    for (std::uint64_t& w : level.occupied) w = 0;
  }
  for (std::uint32_t& c : occupied_slots_) c = 0;
  levels_occupied_ = 0;
  size_ = 0;
}

}  // namespace pcieb::sim
