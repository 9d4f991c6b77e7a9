#include "sim/device.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"

namespace pcieb::sim {

DeviceProfile DeviceProfile::nfp6000() {
  DeviceProfile p;
  p.name = "NFP6000";
  p.dma_enqueue = from_nanos(100);
  p.issue_interval = from_nanos(13);
  p.read_tags = 22;
  p.completion_fixed = from_nanos(25);
  p.staging_gbps = 64.0;  // 8 GB/s CTM <-> internal memory path
  p.staging_base = from_nanos(20);
  p.cmd_if_max_bytes = 128;
  p.cmd_if_overhead = from_nanos(10);
  p.timestamp_resolution = from_nanos(19.2);
  return p;
}

DeviceProfile DeviceProfile::netfpga_sume() {
  DeviceProfile p;
  p.name = "NetFPGA-SUME";
  p.dma_enqueue = 0;
  p.issue_interval = from_nanos(4);  // one request per 250 MHz cycle
  p.read_tags = 22;
  p.completion_fixed = from_nanos(20);
  p.staging_gbps = 0.0;
  p.staging_base = 0;
  p.cmd_if_max_bytes = 0;
  p.timestamp_resolution = from_nanos(4);
  return p;
}

Picos DeviceProfile::staging_delay(std::uint32_t len) const {
  if (staging_gbps <= 0.0) return 0;
  return staging_base + serialization_ps(len, staging_gbps);
}

DmaDevice::DmaDevice(Simulator& sim, const DeviceProfile& profile,
                     const proto::LinkConfig& link_cfg, Link& upstream)
    : sim_(sim),
      profile_(profile),
      link_cfg_(link_cfg),
      upstream_(upstream),
      read_issue_(sim),
      write_issue_(sim),
      read_tags_(sim, profile.read_tags),
      posted_credits_(profile.posted_credit_bytes) {}

void DmaDevice::dma_read(std::uint64_t addr, std::uint32_t len, Callback done,
                         bool use_cmd_if) {
  if (len == 0) throw std::invalid_argument("dma_read: zero length");
  if (use_cmd_if &&
      (profile_.cmd_if_max_bytes == 0 || len > profile_.cmd_if_max_bytes)) {
    throw std::invalid_argument("dma_read: command interface unavailable");
  }
  const std::uint32_t dma_id = next_dma_id_++;
  if (trace_) {
    trace_->record({sim_.now(), 0, addr, dma_id, len,
                    obs::EventKind::DmaReadSubmit, obs::Component::Device,
                    static_cast<std::uint8_t>(use_cmd_if ? 1 : 0)});
  }
  const std::uint32_t nreqs = proto::count_read_requests(link_cfg_, addr, len);
  read_ops_.insert(dma_id, DmaReadOp{nreqs, use_cmd_if ? 0 : len, std::move(done)});
  read_bytes_requested_ += len;
  const Picos front_delay =
      use_cmd_if ? profile_.cmd_if_overhead : profile_.dma_enqueue;
  sim_.after(front_delay,
             [this, addr, len, dma_id] { issue_read_requests(addr, len, dma_id); });
}

void DmaDevice::issue_read_requests(std::uint64_t addr, std::uint32_t len,
                                    std::uint32_t dma_id) {
  // Scratch buffer: acquire() never invokes the grant synchronously (it
  // goes through the scheduler), so nothing re-enters this segmentation
  // before the loop finishes copying each request into its closure.
  {
    obs::ProfScope prof(obs::CostCenter::Packetizer);
    proto::segment_read_requests(link_cfg_, addr, len, tlp_scratch_);
  }
  for (const proto::Tlp& r : tlp_scratch_) {
    read_tags_.acquire([this, req = r, dma_id]() mutable {
      const std::uint32_t tag = next_tag_++;
      req.tag = tag;
      req.func = func_;
      inflight_reads_.insert(tag, ReadState{req.read_len, dma_id, req, 0, false});
      ++read_reqs_issued_;
      tags_hwm_ = std::max(tags_hwm_, read_tags_.in_use());
      read_issue_.occupy(profile_.issue_interval, [this, req] {
        upstream_.send(req);
        arm_completion_timeout(req.tag);
      });
    });
  }
}

Picos DmaDevice::retry_backoff_for(unsigned retries) const {
  if (profile_.retry_backoff <= 0) return 0;
  Picos backoff = profile_.retry_backoff;
  for (unsigned i = 0; i < retries && backoff < profile_.retry_backoff_cap;
       ++i) {
    backoff <<= 1;
  }
  return std::min(backoff, profile_.retry_backoff_cap);
}

void DmaDevice::arm_completion_timeout(std::uint32_t tag) {
  if (!timeouts_armed_ || profile_.completion_timeout <= 0) return;
  sim_.after(profile_.completion_timeout,
             [this, tag] { on_completion_timeout(tag); });
}

void DmaDevice::on_completion_timeout(std::uint32_t tag) {
  ReadState* found = inflight_reads_.find(tag);
  // Tags are monotonic and never reused, so a missing tag means the read
  // already finished (or was reissued) — this timer is stale.
  if (found == nullptr) return;
  ++completion_timeouts_;
  ReadState state = std::move(*found);
  inflight_reads_.erase(tag);
  ++read_reqs_retired_;
  read_tags_.release();
  if (aer_) {
    aer_->record(fault::ErrorType::CompletionTimeout, sim_.now(),
                 state.req.addr, tag, state.retries);
  }
  retry_or_fail(std::move(state));
}

void DmaDevice::retry_or_fail(ReadState state) {
  if (state.retries < profile_.max_read_retries) {
    ++read_retries_;
    sim_.after(retry_backoff_for(state.retries),
               [this, req = state.req, dma_id = state.dma_id,
                retries = state.retries + 1] {
                 reissue_read(req, dma_id, retries);
               });
  } else {
    fail_request(state.dma_id, state.req);
  }
}

void DmaDevice::reissue_read(proto::Tlp req, std::uint32_t dma_id,
                             unsigned retries) {
  read_tags_.acquire([this, req, dma_id, retries]() mutable {
    const std::uint32_t tag = next_tag_++;
    req.tag = tag;
    req.func = func_;
    inflight_reads_.insert(tag, ReadState{req.read_len, dma_id, req, retries, false});
    ++read_reqs_issued_;
    tags_hwm_ = std::max(tags_hwm_, read_tags_.in_use());
    read_issue_.occupy(profile_.issue_interval, [this, req] {
      upstream_.send(req);
      arm_completion_timeout(req.tag);
    });
  });
}

void DmaDevice::fail_request(std::uint32_t dma_id, const proto::Tlp& req) {
  if (aer_) {
    aer_->record(fault::ErrorType::TransactionFailed, sim_.now(), req.addr,
                 req.tag, req.read_len);
  }
  DmaReadOp* op = read_ops_.find(dma_id);
  if (op == nullptr) return;
  op->failed_bytes += req.read_len;
  retire_request(dma_id);
}

void DmaDevice::on_downstream(const proto::Tlp& tlp) {
  if (has_rid_ && tlp.func != func_) {
    // Requester-ID check: a TLP carrying another function's RID reached
    // this function — cross-VF bleed. Count and drop; the isolation
    // monitors assert this counter stays zero.
    ++foreign_tlps_;
    if (aer_) {
      aer_->record(tlp.type == proto::TlpType::MemRd ||
                           tlp.type == proto::TlpType::MemWr
                       ? fault::ErrorType::MalformedTlp
                       : fault::ErrorType::UnexpectedCompletion,
                   sim_.now(), tlp.addr, tlp.tag, tlp.func);
    }
    return;
  }
  if (tlp.type == proto::TlpType::MemWr) {
    if (tlp.poisoned) {
      // Poisoned doorbell: the payload is known-bad, so the CSR update is
      // discarded rather than applied.
      ++poisoned_rx_;
      if (aer_) {
        aer_->record(fault::ErrorType::PoisonedTlp, sim_.now(), tlp.addr,
                     tlp.tag, tlp.payload);
      }
      return;
    }
    // Host MMIO write (doorbell / register update): posted, absorbed here.
    ++doorbells_;
    if (mmio_handler_) mmio_handler_(tlp, /*is_write=*/true);
    return;
  }
  if (tlp.type == proto::TlpType::MemRd) {
    // Host MMIO register read: answer with a completion after the BAR
    // access latency, echoing the requester's tag.
    ++mmio_reads_served_;
    if (mmio_handler_) mmio_handler_(tlp, /*is_write=*/false);
    proto::Tlp cpl{proto::TlpType::CplD, tlp.addr, tlp.read_len, 0, tlp.tag};
    cpl.func = tlp.func;  // completion routes back to the requesting RC
    sim_.after(profile_.mmio_read_latency,
               [this, cpl] { upstream_.send(cpl); });
    return;
  }
  handle_completion(tlp);
}

void DmaDevice::handle_completion(const proto::Tlp& tlp) {
  ReadState* found = inflight_reads_.find(tlp.tag);
  if (found == nullptr) {
    // Stale (timed-out-and-reissued) or stray completion: tags are never
    // reused, so nothing can be misdelivered — count it and move on.
    ++unexpected_cpls_;
    if (aer_) {
      aer_->record(fault::ErrorType::UnexpectedCompletion, sim_.now(),
                   tlp.addr, tlp.tag, tlp.payload);
    }
    return;
  }
  if (!tlp.completed_ok()) {
    // UR/CA: the completer's verdict is authoritative — reclaim the tag
    // and fail the request now rather than burn retries.
    ++error_cpls_;
    ReadState state = std::move(*found);
    inflight_reads_.erase(tlp.tag);
    ++read_reqs_retired_;
    read_tags_.release();
    fail_request(state.dma_id, state.req);
    return;
  }
  ReadState& state = *found;
  if (tlp.poisoned) {
    ++poisoned_rx_;
    state.poisoned = true;
    if (aer_) {
      aer_->record(fault::ErrorType::PoisonedTlp, sim_.now(), tlp.addr,
                   tlp.tag, tlp.payload);
    }
  }
  if (tlp.payload > state.remaining) {
    // Completion overrun: malformed by construction. Drop it; the
    // request finishes via its remaining completions or times out.
    if (aer_) {
      aer_->record(fault::ErrorType::MalformedTlp, sim_.now(), tlp.addr,
                   tlp.tag, tlp.payload);
    }
    return;
  }
  state.remaining -= tlp.payload;
  if (state.remaining > 0) {
    if (trace_) {
      trace_->record({sim_.now(), 0, tlp.addr, state.dma_id, tlp.payload,
                      obs::EventKind::DevCplRx, obs::Component::Device, 0});
    }
    return;
  }

  ReadState finished = std::move(state);
  inflight_reads_.erase(tlp.tag);
  ++read_reqs_retired_;
  read_tags_.release();
  if (!finished.poisoned) read_bytes_delivered_ += finished.req.read_len;
  if (finished.poisoned) {
    // All data arrived but some of it is known-bad: re-fetch the request
    // (same path as a timeout) instead of handing poison to the engine.
    retry_or_fail(std::move(finished));
    return;
  }
  const std::uint32_t dma_id = finished.dma_id;
  const bool op_complete = retire_request(dma_id);
  if (trace_) {
    trace_->record({sim_.now(), 0, tlp.addr, dma_id, tlp.payload,
                    obs::EventKind::DevCplRx, obs::Component::Device,
                    static_cast<std::uint8_t>(op_complete ? 1 : 0)});
  }
}

bool DmaDevice::retire_request(std::uint32_t dma_id) {
  DmaReadOp* found = read_ops_.find(dma_id);
  if (found == nullptr) {
    throw std::logic_error("DmaDevice: completion for unknown DMA op");
  }
  DmaReadOp& op = *found;
  if (--op.requests_left != 0) return false;

  // Whole DMA retired: device-side completion handling plus the staging
  // hop (skipped on the direct command interface, where total_len is 0).
  const Picos tail = profile_.completion_fixed +
                     (op.total_len ? profile_.staging_delay(op.total_len) : 0);
  Callback done = std::move(op.done);
  const std::uint32_t failed_bytes = op.failed_bytes;
  read_ops_.erase(dma_id);
  ++reads_completed_;
  if (failed_bytes > 0) {
    ++reads_failed_;
    failed_read_bytes_ += failed_bytes;
  }
  if (progress_) progress_();
  if (done || trace_) {
    sim_.after(tail, [this, dma_id, failed_bytes, done = std::move(done)] {
      if (trace_) {
        trace_->record({sim_.now(), 0, 0, dma_id, failed_bytes,
                        obs::EventKind::DmaReadDone, obs::Component::Device,
                        static_cast<std::uint8_t>(failed_bytes ? 1 : 0)});
      }
      if (done) done();
    });
  }
  return true;
}

void DmaDevice::dma_write(std::uint64_t addr, std::uint32_t len, Callback done,
                          bool use_cmd_if) {
  if (len == 0) throw std::invalid_argument("dma_write: zero length");
  if (use_cmd_if &&
      (profile_.cmd_if_max_bytes == 0 || len > profile_.cmd_if_max_bytes)) {
    throw std::invalid_argument("dma_write: command interface unavailable");
  }
  const std::uint32_t dma_id = next_dma_id_++;
  if (trace_) {
    trace_->record({sim_.now(), 0, addr, dma_id, len,
                    obs::EventKind::DmaWriteSubmit, obs::Component::Device,
                    static_cast<std::uint8_t>(use_cmd_if ? 1 : 0)});
  }
  Picos front_delay;
  if (use_cmd_if) {
    front_delay = profile_.cmd_if_overhead;
  } else {
    // Writes stage data into the PCIe-adjacent SRAM before the engine can
    // emit TLPs (NFP internal architecture; zero-cost on NetFPGA).
    front_delay = profile_.dma_enqueue + profile_.staging_delay(len);
  }
  if (done) write_ops_.insert(dma_id, std::move(done));
  sim_.after(front_delay, [this, addr, len, dma_id] {
    send_write_tlps(addr, len, dma_id);
  });
}

void DmaDevice::send_write_tlps(std::uint64_t addr, std::uint32_t len,
                                std::uint32_t dma_id) {
  {
    obs::ProfScope prof(obs::CostCenter::Packetizer);
    proto::segment_write(link_cfg_, addr, len, tlp_scratch_);
  }
  for (std::size_t i = 0; i < tlp_scratch_.size(); ++i) {
    const bool last = (i + 1 == tlp_scratch_.size());
    proto::Tlp tlp = tlp_scratch_[i];
    tlp.func = func_;
    pending_writes_.push_back(PendingWrite{tlp, last, dma_id});
  }
  try_send_pending_writes();
}

Callback DmaDevice::take_write_done(std::uint32_t dma_id) {
  Callback* found = write_ops_.find(dma_id);
  if (found == nullptr) return {};
  Callback done = std::move(*found);
  write_ops_.erase(dma_id);
  return done;
}

void DmaDevice::try_send_pending_writes() {
  while (!pending_writes_.empty()) {
    PendingWrite& pw = pending_writes_.front();
    const std::int64_t cost = pw.tlp.payload;
    if (posted_credits_ < cost) {  // wait for grant_posted_credits
      if (!stalled_) {
        stalled_ = true;
        stall_start_ = sim_.now();
      }
      return;
    }
    if (stalled_) {
      stalled_ = false;
      const Picos stalled_for = sim_.now() - stall_start_;
      fc_stall_ps_ += stalled_for;
      if (trace_ && stalled_for > 0) {
        trace_->record({stall_start_, stalled_for, pw.tlp.addr, pw.dma_id,
                        pw.tlp.payload, obs::EventKind::FcStall,
                        obs::Component::Device, 0});
      }
    }
    posted_credits_ -= cost;
    write_bytes_issued_ += static_cast<std::uint64_t>(cost);
    const proto::Tlp tlp = pw.tlp;
    const bool last = pw.last;
    const std::uint32_t dma_id = pw.dma_id;
    pending_writes_.pop_front();
    ++writes_sent_;
    if (!last) {
      write_issue_.occupy(profile_.issue_interval,
                          [this, tlp] { upstream_.send(tlp); });
    } else {
      // The callback stays in write_ops_ until the TLP leaves, so the
      // closure (this + Tlp + id) fits the event engine's inline buffer.
      write_issue_.occupy(profile_.issue_interval, [this, tlp, dma_id] {
        upstream_.send(tlp);
        if (trace_) {
          trace_->record({sim_.now(), 0, tlp.addr, dma_id, tlp.payload,
                          obs::EventKind::DmaWriteDone,
                          obs::Component::Device, 0});
        }
        if (Callback done = take_write_done(dma_id)) done();
      });
    }
  }
}

std::string DmaDevice::outstanding_tags() const {
  std::vector<std::uint32_t> tags;
  tags.reserve(inflight_reads_.size());
  inflight_reads_.for_each(
      [&tags](std::uint32_t tag, const ReadState&) { tags.push_back(tag); });
  std::sort(tags.begin(), tags.end());
  // SR-IOV devices prefix their requester ID so a watchdog dump of a
  // multi-tenant deadlock names the owning function of every stuck tag.
  const std::string rid =
      has_rid_ ? "rid 00:00." + std::to_string(func_) + " " : "";
  if (tags.empty()) return rid + "none";
  std::string out = rid + "tags:";
  for (const std::uint32_t t : tags) {
    out += ' ';
    out += std::to_string(t);
  }
  return out;
}

void DmaDevice::function_level_reset() {
  ++flrs_;
  // Abort in-flight reads in ascending tag order (the map's iteration
  // order is slot-based; sorting pins the abort sequence) — each goes
  // through the same retire/fail accounting as a retries-exhausted read.
  std::vector<std::pair<std::uint32_t, ReadState>> aborted;
  aborted.reserve(inflight_reads_.size());
  inflight_reads_.for_each([&aborted](std::uint32_t tag, const ReadState& s) {
    aborted.emplace_back(tag, s);
  });
  std::sort(aborted.begin(), aborted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [tag, state] : aborted) {
    inflight_reads_.erase(tag);
    ++read_reqs_retired_;
    ++flr_aborted_reads_;
    read_tags_.release();
    fail_request(state.dma_id, state.req);
  }
  // Discard queued-but-unsent writes. They never consumed credits (the
  // send loop takes credits only when it dequeues), so only the lost
  // payload is accounted; done callbacks fire so workloads terminate.
  if (stalled_) {
    stalled_ = false;
    fc_stall_ps_ += sim_.now() - stall_start_;
  }
  while (!pending_writes_.empty()) {
    PendingWrite pw = std::move(pending_writes_.front());
    pending_writes_.pop_front();
    ++flr_dropped_writes_;
    // The payload retires as issued-and-lost so both conservation
    // ledgers (issued == committed + lost, offered == committed +
    // dropped) balance without a special FLR term.
    write_bytes_issued_ += pw.tlp.payload;
    if (write_abort_) write_abort_(pw.tlp.payload);
    if (pw.last) {
      if (Callback done = take_write_done(pw.dma_id)) {
        sim_.after(0, std::move(done));
      }
    }
  }
  if (progress_) progress_();
}

void DmaDevice::grant_posted_credits(std::uint32_t payload_bytes) {
  posted_credits_ += payload_bytes;
  if (posted_credits_ > static_cast<std::int64_t>(profile_.posted_credit_bytes)) {
    throw std::logic_error("DmaDevice: credit overflow");
  }
  try_send_pending_writes();
}

}  // namespace pcieb::sim
