// Generic contention primitives for the simulator.
//
//  * SerialResource — a single FIFO server (a link direction, a DMA engine
//    issue stage, a page walker): each job occupies it for a service time;
//    jobs queue behind the previous completion.
//  * TokenPool — a counting semaphore with FIFO waiters (DMA read tags,
//    page-walker slots).
//  * BandwidthResource — a SerialResource whose service time is bytes at a
//    fixed rate (memory channels, socket interconnect).
//
// Completion callbacks are perfect-forwarded straight into the event
// engine's inline storage (sim/small_fn.hpp) — no std::function is built
// on the way, so occupying a resource allocates nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace pcieb::sim {

class SerialResource {
 public:
  explicit SerialResource(Simulator& sim) : sim_(sim) {}

  /// Occupy the resource for `service` starting no earlier than now and no
  /// earlier than the previous job's completion. Returns the completion
  /// time.
  Picos occupy(Picos service);

  /// As above, additionally scheduling `done` at the completion time.
  template <typename F>
  Picos occupy(Picos service, F&& done) {
    const Picos t = occupy(service);
    sim_.at(t, std::forward<F>(done));
    return t;
  }

  /// Earliest time a new job could start.
  Picos next_free() const { return busy_until_; }

  /// Total busy time accumulated (for utilization reporting).
  Picos busy_total() const { return busy_total_; }

 private:
  Simulator& sim_;
  Picos busy_until_ = 0;
  Picos busy_total_ = 0;
};

class TokenPool {
 public:
  TokenPool(Simulator& sim, unsigned capacity)
      : sim_(sim), capacity_(capacity) {}

  /// Run `granted` once a token is available (immediately if one is free).
  template <typename F>
  void acquire(F&& granted) {
    if (in_use_ < capacity_) {
      ++in_use_;
      // Run via the scheduler so acquisition order stays deterministic and
      // callers never re-enter their own call stack.
      sim_.after(0, std::forward<F>(granted));
    } else {
      waiters_.emplace_back(std::forward<F>(granted));
    }
  }

  /// Return a token; hands it to the oldest waiter if any.
  void release();

  unsigned in_use() const { return in_use_; }
  unsigned capacity() const { return capacity_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  unsigned capacity_;
  unsigned in_use_ = 0;
  std::deque<SmallFn> waiters_;
};

class BandwidthResource {
 public:
  BandwidthResource(Simulator& sim, double gbps)
      : serial_(sim), gbps_(gbps) {}

  /// Stream `bytes` through; returns the time the last byte passes.
  Picos transfer(std::uint64_t bytes);

  /// As above; `done` runs when the last byte has passed.
  template <typename F>
  Picos transfer(std::uint64_t bytes, F&& done) {
    return serial_.occupy(service_for(bytes), std::forward<F>(done));
  }

  double rate_gbps() const { return gbps_; }
  Picos busy_total() const { return serial_.busy_total(); }

 private:
  /// Memo bound: covers every line-, MPS- and MRRS-sized transfer the
  /// simulator issues; anything larger is computed directly.
  static constexpr std::uint64_t kServiceMemoMax = 16384;

  Picos service_for(std::uint64_t bytes) const;

  SerialResource serial_;
  double gbps_;
  mutable std::vector<Picos> service_memo_;  ///< -1 = not yet computed
};

}  // namespace pcieb::sim
