// Device-side DMA engine models.
//
// Two profiles mirror the paper's §5 implementations:
//  * nfp6000()      — Netronome NFP-6000: a descriptor-enqueue FIFO in
//    front of the DMA engines (~100 ns fixed overhead), an internal
//    staging transfer between the PCIe-adjacent SRAM (CTM) and NFP memory
//    whose cost grows with transfer size, a direct "PCIe command
//    interface" for transfers up to 128 B that bypasses both, and a
//    19.2 ns timestamp counter.
//  * netfpga_sume() — NetFPGA-SUME: requests generated straight from the
//    FPGA pipeline (no enqueue FIFO, no staging), one request per 250 MHz
//    cycle, 4 ns timestamps.
//
// Bounded DMA read tags make small reads latency-bound (Little's law), so
// host-side latency effects — cache misses, NUMA hops, IO-TLB walks —
// surface as read-bandwidth deltas exactly as in §6.3–6.5. Posted writes
// are bounded by flow-control credits returned at commit time.
//
// Error handling (PR 2): when timeouts are armed (arm_timeouts — done by
// System whenever a fault plan is active, so fault-free runs pay nothing),
// every outstanding read carries a completion timeout. On expiry the tag
// is reclaimed and the request retried with a fresh tag after a capped
// exponential backoff; after max_read_retries the request is failed —
// its DMA op still calls `done` (marked failed) so workloads terminate
// instead of hanging. UR/CA completions fail the request immediately (the
// completer's verdict is authoritative); poisoned completions retry like
// timeouts. Tags are monotonic and never reused, so stale timers and
// late/stray completions are recognised by map lookup, counted, dropped.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "fault/aer.hpp"
#include "obs/trace.hpp"
#include "pcie/link_config.hpp"
#include "pcie/packetizer.hpp"
#include "pcie/tlp.hpp"
#include "sim/flat_map.hpp"
#include "sim/link.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace pcieb::sim {

struct DeviceProfile {
  std::string name = "generic";

  /// Latency to enqueue a DMA descriptor to the engine (0 = direct).
  Picos dma_enqueue = 0;
  /// Engine occupancy per TLP issued (pipelining limit). Reads and writes
  /// use separate engines, as on the NFP (distinct to-host and from-host
  /// DMA queues) and the NetFPGA (independent request paths).
  Picos issue_interval = from_nanos(4);
  /// Maximum concurrent outstanding MRd requests.
  unsigned read_tags = 48;
  /// Fixed device-side completion handling (signal + bookkeeping).
  Picos completion_fixed = from_nanos(25);

  /// Internal staging hop (CTM <-> NFP memory). 0 Gb/s disables it.
  double staging_gbps = 0.0;
  Picos staging_base = 0;

  /// Direct PCIe command interface: transfers up to this many bytes can
  /// bypass the descriptor path (0 = not available).
  unsigned cmd_if_max_bytes = 0;
  Picos cmd_if_overhead = 0;

  /// Posted-write flow control window (bytes of payload in flight).
  std::uint32_t posted_credit_bytes = 16384;

  /// Timestamp counter granularity for measurements taken on the device.
  Picos timestamp_resolution = from_nanos(4);

  /// Device-side latency to serve a host MMIO register read (BAR access
  /// pipeline). Host-observed round trips add both link directions.
  Picos mmio_read_latency = from_nanos(40);

  /// Completion timeout for outstanding DMA reads. Only armed when a
  /// fault plan is active (DmaDevice::arm_timeouts) — fault-free runs
  /// schedule no timer events and stay bit-identical to the seed.
  Picos completion_timeout = from_micros(50);
  /// Retries of a timed-out / poisoned read before it is failed.
  unsigned max_read_retries = 3;
  /// Retry backoff: min(retry_backoff << attempt, retry_backoff_cap).
  Picos retry_backoff = from_micros(1);
  Picos retry_backoff_cap = from_micros(64);

  static DeviceProfile nfp6000();
  static DeviceProfile netfpga_sume();

  /// Extra latency of the staging hop for `len` bytes.
  Picos staging_delay(std::uint32_t len) const;
};

class DmaDevice {
 public:
  DmaDevice(Simulator& sim, const DeviceProfile& profile,
            const proto::LinkConfig& link_cfg, Link& upstream);

  /// Wire to the downstream link: receives completions for DMA reads,
  /// answers host MMIO register reads, and surfaces doorbell writes.
  void on_downstream(const proto::Tlp& tlp);

  /// Invoked for every host MMIO access that reaches the device
  /// (doorbells, register reads) — NIC models hook their CSR logic here.
  using MmioHandler =
      std::function<void(const proto::Tlp& tlp, bool is_write)>;
  void set_mmio_handler(MmioHandler h) { mmio_handler_ = std::move(h); }

  std::uint64_t mmio_reads_served() const { return mmio_reads_served_; }
  std::uint64_t doorbells_received() const { return doorbells_; }

  /// Wire to the root complex's write-commit hook: returns posted credits.
  void grant_posted_credits(std::uint32_t payload_bytes);

  /// Issue a DMA read; `done` runs when the data is usable on the device
  /// (all completions received, staging done). `use_cmd_if` selects the
  /// direct command interface when the profile supports the size.
  void dma_read(std::uint64_t addr, std::uint32_t len, Callback done,
                bool use_cmd_if = false);

  /// Issue a DMA write; `done` runs when the last TLP has been handed to
  /// the link (posted semantics — host commit is observed via the root
  /// complex hook).
  void dma_write(std::uint64_t addr, std::uint32_t len, Callback done,
                 bool use_cmd_if = false);

  const DeviceProfile& profile() const { return profile_; }
  std::uint64_t reads_completed() const { return reads_completed_; }
  std::uint64_t writes_sent() const { return writes_sent_; }
  unsigned read_tags_in_use() const { return read_tags_.in_use(); }
  /// Most read tags ever simultaneously in flight.
  unsigned read_tags_hwm() const { return tags_hwm_; }
  /// Total time posted writes sat blocked on flow-control credits.
  Picos fc_stall_total() const { return fc_stall_ps_; }

  /// Arm/disarm per-read completion timeouts (System arms them whenever a
  /// fault plan is active; disarmed runs schedule no timer events).
  void arm_timeouts(bool on) { timeouts_armed_ = on; }
  bool timeouts_armed() const { return timeouts_armed_; }

  std::uint64_t completion_timeouts() const { return completion_timeouts_; }
  std::uint64_t read_retries() const { return read_retries_; }
  /// DMA read ops that finished with at least one failed request.
  std::uint64_t reads_failed() const { return reads_failed_; }
  /// Requested bytes never delivered across failed requests.
  std::uint64_t failed_read_bytes() const { return failed_read_bytes_; }
  /// Completions whose tag matched nothing outstanding (counted, dropped).
  std::uint64_t unexpected_completions() const { return unexpected_cpls_; }
  /// UR/CA completions received (each fails its request, no retry).
  std::uint64_t error_completions_received() const { return error_cpls_; }
  /// Poisoned TLPs received (completions retried; doorbells discarded).
  std::uint64_t poisoned_received() const { return poisoned_rx_; }

  /// Stable addresses of the monotonic totals, for obs::CounterRegistry's
  /// raw readers. Valid for the device's lifetime.
  struct CounterSources {
    const std::uint64_t* reads_completed;
    const std::uint64_t* writes_sent;
    const std::uint64_t* completion_timeouts;
    const std::uint64_t* read_retries;
    const std::uint64_t* reads_failed;
    const std::uint64_t* failed_read_bytes;
    const std::uint64_t* unexpected_cpls;
  };
  CounterSources counter_sources() const {
    return {&reads_completed_, &writes_sent_,       &completion_timeouts_,
            &read_retries_,    &reads_failed_,      &failed_read_bytes_,
            &unexpected_cpls_};
  }

  /// Attach tracing (nullptr detaches).
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Attach AER error reporting (nullptr detaches).
  void set_aer(fault::AerLog* aer) { aer_ = aer; }

  /// SR-IOV: assign this device a requester function number. Every TLP it
  /// emits is stamped with it, inbound TLPs carrying another function's
  /// requester ID are counted and dropped (cross-VF tag bleed — the
  /// isolation monitors assert this stays zero), and watchdog tag dumps
  /// gain a "rid 00:00.K" prefix naming the owner.
  void set_function(unsigned func) {
    func_ = static_cast<std::uint8_t>(func);
    has_rid_ = true;
  }
  unsigned function() const { return func_; }
  /// Inbound TLPs dropped because their requester function was not ours.
  std::uint64_t foreign_tlps() const { return foreign_tlps_; }

  /// Invoked whenever a DMA read op retires — the watchdog's forward-
  /// progress signal (writes kick via the RC commit hook).
  using ProgressHook = std::function<void()>;
  void set_progress_hook(ProgressHook h) { progress_ = std::move(h); }

  /// Invoked with the payload bytes of every queued-but-unsent write TLP
  /// a Function-Level Reset discards. Those TLPs never consumed posted
  /// credits, so no credits come back — the hook only accounts the lost
  /// goodput (System mirrors it into lost_write_bytes).
  using WriteAbortHook = std::function<void(std::uint32_t)>;
  void set_write_abort_hook(WriteAbortHook h) { write_abort_ = std::move(h); }

  /// Function-Level Reset (recovery ladder): abort every in-flight read
  /// request — tags reclaimed in ascending order, each accounted through
  /// the same retire/fail path a retries-exhausted read takes, so the
  /// issued == retired + in-flight ledger holds across the reset — and
  /// discard queued-but-unsent writes (done callbacks still fire; payload
  /// goes through the write-abort hook). Posted credits are NOT forced:
  /// writes already on the wire return theirs via the RC commit/drop
  /// hooks, so conservation re-initializes the window exactly.
  void function_level_reset();
  std::uint64_t flr_count() const { return flrs_; }
  /// Read requests aborted and write TLPs discarded across all FLRs.
  std::uint64_t flr_aborted_reads() const { return flr_aborted_reads_; }
  std::uint64_t flr_dropped_writes() const { return flr_dropped_writes_; }

  // Outstanding-work probes for the watchdog's deadlock check.
  std::size_t inflight_read_requests() const { return inflight_reads_.size(); }
  std::size_t pending_read_ops() const { return read_ops_.size(); }
  std::size_t pending_write_tlps() const { return pending_writes_.size(); }

  /// Sorted list of the tags currently in flight ("tags: 3,7,9" or
  /// "none") — the watchdog's quiescent-deadlock report names each one.
  std::string outstanding_tags() const;

  // --- conservation probes (check::MonitorSuite) ----------------------
  /// Posted-credit bytes currently available; the full advertised window
  /// (profile().posted_credit_bytes) whenever no write payload is in
  /// flight. Signed so a credit-accounting bug shows as a negative value
  /// instead of wrapping.
  std::int64_t posted_credits_available() const { return posted_credits_; }
  /// Read-request tags handed out (first issues and retry reissues).
  std::uint64_t read_requests_issued() const { return read_reqs_issued_; }
  /// Read-request tags retired (delivered, failed, or reclaimed by a
  /// timeout / error completion). issued == retired + in-flight, always.
  std::uint64_t read_requests_retired() const { return read_reqs_retired_; }
  /// Payload bytes requested by dma_read ops (measurement of intent).
  std::uint64_t read_payload_requested() const { return read_bytes_requested_; }
  /// Payload bytes fully delivered to the device across read requests.
  std::uint64_t read_payload_delivered() const { return read_bytes_delivered_; }
  /// Posted-write payload bytes handed to the link (credits consumed).
  std::uint64_t write_payload_issued() const { return write_bytes_issued_; }

 private:
  struct ReadState {
    std::uint32_t remaining = 0;  ///< completion bytes outstanding
    std::uint32_t dma_id = 0;
    proto::Tlp req;               ///< original request, kept for retries
    unsigned retries = 0;         ///< reissues already consumed
    bool poisoned = false;        ///< a poisoned completion tainted the data
  };
  struct DmaReadOp {
    std::uint32_t requests_left = 0;
    std::uint32_t total_len = 0;
    Callback done;
    std::uint32_t failed_bytes = 0;  ///< requested bytes never delivered
  };

  void issue_read_requests(std::uint64_t addr, std::uint32_t len,
                           std::uint32_t dma_id);
  void handle_completion(const proto::Tlp& tlp);
  void arm_completion_timeout(std::uint32_t tag);
  void on_completion_timeout(std::uint32_t tag);
  /// Reclaim the tag and either retry (after backoff) or fail the request.
  void retry_or_fail(ReadState state);
  void reissue_read(proto::Tlp req, std::uint32_t dma_id, unsigned retries);
  void fail_request(std::uint32_t dma_id, const proto::Tlp& req);
  /// One request of `dma_id` retired (delivered or failed); finishes the
  /// op — tail latency, trace, `done` — once the last request retires.
  /// Returns true when this retired the whole op.
  bool retire_request(std::uint32_t dma_id);
  Picos retry_backoff_for(unsigned retries) const;
  void send_write_tlps(std::uint64_t addr, std::uint32_t len,
                       std::uint32_t dma_id);
  void try_send_pending_writes();
  /// Take `dma_id`'s write callback out of write_ops_ (empty if none).
  Callback take_write_done(std::uint32_t dma_id);

  Simulator& sim_;
  DeviceProfile profile_;
  proto::LinkConfig link_cfg_;
  Link& upstream_;
  SerialResource read_issue_;
  SerialResource write_issue_;
  TokenPool read_tags_;

  std::uint32_t next_tag_ = 1;
  std::uint32_t next_dma_id_ = 1;
  FlatU32Map<ReadState> inflight_reads_;
  FlatU32Map<DmaReadOp> read_ops_;
  /// Each DMA write's `done`, keyed by dma_id until its last TLP is
  /// handed to the link (writes without a callback have no entry), so
  /// the write path's closures carry ids, not callbacks.
  FlatU32Map<Callback> write_ops_;

  std::int64_t posted_credits_;  ///< bytes of posted payload window left
  struct PendingWrite {
    proto::Tlp tlp;
    bool last = false;  ///< final TLP of its DMA op
    std::uint32_t dma_id = 0;
  };
  std::deque<PendingWrite> pending_writes_;

  /// Reusable segmentation scratch. Safe to share across the read and
  /// write paths: every segmentation loop finishes (copying each TLP out)
  /// before any code that could segment again runs — grants and issue
  /// completions always arrive via the scheduler, never synchronously.
  proto::TlpVec tlp_scratch_;

  MmioHandler mmio_handler_;
  ProgressHook progress_;
  WriteAbortHook write_abort_;
  obs::TraceSink* trace_ = nullptr;
  fault::AerLog* aer_ = nullptr;
  bool timeouts_armed_ = false;
  std::uint64_t reads_completed_ = 0;
  std::uint64_t writes_sent_ = 0;
  std::uint64_t mmio_reads_served_ = 0;
  std::uint64_t doorbells_ = 0;
  std::uint64_t completion_timeouts_ = 0;
  std::uint64_t read_retries_ = 0;
  std::uint64_t reads_failed_ = 0;
  std::uint64_t failed_read_bytes_ = 0;
  std::uint64_t unexpected_cpls_ = 0;
  std::uint64_t error_cpls_ = 0;
  std::uint64_t poisoned_rx_ = 0;
  std::uint64_t flrs_ = 0;
  std::uint64_t flr_aborted_reads_ = 0;
  std::uint64_t flr_dropped_writes_ = 0;
  std::uint64_t read_reqs_issued_ = 0;
  std::uint64_t read_reqs_retired_ = 0;
  std::uint64_t read_bytes_requested_ = 0;
  std::uint64_t read_bytes_delivered_ = 0;
  std::uint64_t write_bytes_issued_ = 0;
  unsigned tags_hwm_ = 0;
  Picos fc_stall_ps_ = 0;
  Picos stall_start_ = 0;
  bool stalled_ = false;
  std::uint8_t func_ = 0;
  bool has_rid_ = false;
  std::uint64_t foreign_tlps_ = 0;
};

}  // namespace pcieb::sim
