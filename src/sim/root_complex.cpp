#include "sim/root_complex.hpp"

#include <algorithm>
#include <vector>

#include "obs/profiler.hpp"
#include "pcie/packetizer.hpp"

namespace pcieb::sim {

RootComplex::RootComplex(Simulator& sim, const proto::LinkConfig& link_cfg,
                         const RootComplexConfig& cfg, MemorySystem& mem,
                         Iommu& iommu, Link& downstream)
    : sim_(sim),
      link_cfg_(link_cfg),
      cfg_(cfg),
      mem_(mem),
      iommu_(iommu),
      downstream_(downstream),
      pipeline_(sim),
      is_local_([](std::uint64_t) { return true; }) {}

void RootComplex::on_upstream(const proto::Tlp& tlp) {
  switch (tlp.type) {
    case proto::TlpType::MemWr:
      handle_write(tlp);
      return;
    case proto::TlpType::MemRd:
      handle_read(tlp);
      return;
    case proto::TlpType::CplD:
    case proto::TlpType::Cpl: {
      // Completion for a host-initiated MMIO read. A completion whose tag
      // matches nothing outstanding is counted and dropped — a stray
      // completion must never take down the host.
      auto it = host_reads_.find(tlp.tag);
      if (it == host_reads_.end()) {
        ++unexpected_cpls_;
        if (aer_) {
          aer_->record(fault::ErrorType::UnexpectedCompletion, sim_.now(),
                       tlp.addr, tlp.tag, tlp.payload);
        }
        return;
      }
      if (tlp.poisoned && aer_) {
        aer_->record(fault::ErrorType::PoisonedTlp, sim_.now(), tlp.addr,
                     tlp.tag, tlp.payload);
      }
      Callback done = std::move(it->second);
      host_reads_.erase(it);
      // An error/poisoned status still completes the MMIO read — the
      // driver sees all-ones (or bad) data, not a hang.
      if (done) done();
      return;
    }
  }
}

void RootComplex::host_mmio_write(std::uint64_t addr, std::uint32_t len) {
  {
    obs::ProfScope prof(obs::CostCenter::Packetizer);
    proto::segment_write(link_cfg_, addr, len, tlp_scratch_);
  }
  for (proto::Tlp& tlp : tlp_scratch_) {
    tlp.func = func_;
    downstream_.send(tlp);
  }
}

void RootComplex::host_mmio_read(std::uint64_t addr, std::uint32_t len,
                                 Callback done) {
  if (port_contained_) {
    // DPC: the downstream port is frozen, so the request can never be
    // claimed — answer UR right away (all-ones data to the driver)
    // instead of transmitting into the void and stranding the callback.
    ++contained_host_reads_;
    ++error_cpls_;
    if (done) sim_.after(0, std::move(done));
    return;
  }
  const std::uint32_t tag = next_host_tag_++;
  host_reads_[tag] = std::move(done);
  proto::Tlp req{proto::TlpType::MemRd, addr, 0, len, tag};
  req.func = func_;
  downstream_.send(req);
}

void RootComplex::abort_host_reads() {
  std::vector<std::uint32_t> tags;
  tags.reserve(host_reads_.size());
  for (const auto& [tag, done] : host_reads_) tags.push_back(tag);
  std::sort(tags.begin(), tags.end());
  for (const std::uint32_t tag : tags) {
    auto it = host_reads_.find(tag);
    Callback done = std::move(it->second);
    host_reads_.erase(it);
    ++contained_host_reads_;
    ++error_cpls_;
    if (done) sim_.after(0, std::move(done));
  }
}

void RootComplex::drop_write_payload(std::uint32_t payload) {
  write_bytes_dropped_ += payload;
  if (on_write_drop_) on_write_drop_(payload);
}

void RootComplex::handle_write(const proto::Tlp& tlp) {
  // Validate before the write enters the ordering fence: a rejected write
  // never becomes visible, so later reads must not wait on it. Credits
  // still come back via the drop hook — a discard must not wedge the
  // sender's flow control.
  if (tlp.payload == 0 || tlp.payload > link_cfg_.mps) {
    ++malformed_writes_;
    if (aer_) {
      aer_->record(fault::ErrorType::MalformedTlp, sim_.now(), tlp.addr,
                   tlp.tag, tlp.payload);
    }
    drop_write_payload(tlp.payload);
    return;
  }
  if (tlp.poisoned) {
    ++poisoned_dropped_;
    if (aer_) {
      aer_->record(fault::ErrorType::PoisonedTlp, sim_.now(), tlp.addr,
                   tlp.tag, tlp.payload);
    }
    drop_write_payload(tlp.payload);
    return;
  }
  ++writes_arrived_;
  posted_hwm_ = std::max(posted_hwm_, posted_writes_pending());
  if (trace_) record_rx_and_pipeline(tlp);
  pipeline_.occupy(cfg_.tlp_pipeline, [this, tlp] {
    // Translate in the requester function's own IOMMU domain — the TLP's
    // requester ID, not any RC-local state, selects the page tables.
    iommu_.translate_checked(tlp.addr, /*is_write=*/true, tlp.func,
                             [this, tlp](bool ok) {
      if (!ok) {
        // Remapping fault on a posted write: spec-correct silent discard
        // (the IOMMU already logged the AER record). The write still
        // retires from the ordering fence so fenced reads make progress.
        ++writes_dropped_;
        drop_write_payload(tlp.payload);
        drain_ordered_reads();
        return;
      }
      const bool local = is_local_(tlp.addr);
      mem_.write(tlp.addr, tlp.payload, local, [this, tlp] {
        ++writes_committed_;
        write_bytes_ += tlp.payload;
        if (on_write_commit_) on_write_commit_(tlp.payload);
        drain_ordered_reads();
      });
    });
  });
}

void RootComplex::handle_read(const proto::Tlp& tlp) {
  if (tlp.read_len == 0 || tlp.read_len > link_cfg_.mrrs) {
    // Malformed read: no completion is owed — the requester's completion
    // timeout is the recovery path.
    ++malformed_reads_;
    if (aer_) {
      aer_->record(fault::ErrorType::MalformedTlp, sim_.now(), tlp.addr,
                   tlp.tag, tlp.read_len);
    }
    return;
  }
  ++reads_;
  if (trace_) record_rx_and_pipeline(tlp);
  // Snapshot the posted writes this read must not pass (arrival order).
  const std::uint64_t fence = writes_arrived_;
  pipeline_.occupy(cfg_.tlp_pipeline, [this, tlp, fence] {
    iommu_.translate_checked(tlp.addr, /*is_write=*/false, tlp.func,
                             [this, tlp, fence](bool ok) {
      if (!ok) {
        // Unmapped page: nobody can claim the read — answer UR so the
        // requester reclaims its tag immediately instead of timing out.
        send_error_completion(tlp, proto::CplStatus::UR);
        return;
      }
      if (writes_retired() >= fence) {
        emit_completions(tlp);
      } else {
        ordered_reads_.push_back(PendingRead{tlp, fence, sim_.now()});
        ordered_hwm_ = std::max(ordered_hwm_,
                                static_cast<std::uint64_t>(ordered_reads_.size()));
      }
    });
  });
}

void RootComplex::drain_ordered_reads() {
  while (!ordered_reads_.empty() &&
         writes_retired() >= ordered_reads_.front().writes_before) {
    PendingRead pending = ordered_reads_.front();
    ordered_reads_.pop_front();
    if (trace_) {
      trace_->record({pending.deferred_at, sim_.now() - pending.deferred_at,
                      pending.req.addr, pending.req.tag, pending.req.read_len,
                      obs::EventKind::RcOrderWait, obs::Component::RootComplex,
                      static_cast<std::uint8_t>(pending.req.type)});
    }
    emit_completions(pending.req);
  }
}

/// Record the TLP's arrival plus the pipeline span it is about to occupy
/// (start may be later than now when the pipeline is busy).
void RootComplex::record_rx_and_pipeline(const proto::Tlp& tlp) {
  const auto type = static_cast<std::uint8_t>(tlp.type);
  const std::uint32_t len =
      tlp.type == proto::TlpType::MemRd ? tlp.read_len : tlp.payload;
  trace_->record({sim_.now(), 0, tlp.addr, tlp.tag, len, obs::EventKind::RcRx,
                  obs::Component::RootComplex, type});
  const Picos start = std::max(sim_.now(), pipeline_.next_free());
  trace_->record({start, cfg_.tlp_pipeline, tlp.addr, tlp.tag, len,
                  obs::EventKind::RcPipeline, obs::Component::RootComplex,
                  type});
}

void RootComplex::send_error_completion(const proto::Tlp& req,
                                        proto::CplStatus status) {
  ++error_cpls_;
  proto::Tlp cpl{proto::TlpType::Cpl, req.addr, 0, 0, req.tag};
  cpl.cpl_status = status;
  cpl.func = req.func;
  downstream_.send(cpl);
}

void RootComplex::emit_completions(const proto::Tlp& req) {
  if (injector_) {
    // Forced completer errors fire before memory is touched: a UR means
    // nobody claimed the address, a CA means the completer gave up.
    fault::CplFault f;
    {
      obs::ProfScope prof(obs::CostCenter::FaultPredicates);
      f = injector_->on_completion(req, sim_.now(), injector_port_);
    }
    if (f != fault::CplFault::None) {
      const bool ur = f == fault::CplFault::UnsupportedRequest;
      if (aer_) {
        aer_->record(ur ? fault::ErrorType::UnsupportedRequest
                        : fault::ErrorType::CompleterAbort,
                     sim_.now(), req.addr, req.tag, req.read_len);
      }
      send_error_completion(
          req, ur ? proto::CplStatus::UR : proto::CplStatus::CA);
      return;
    }
  }
  const bool local = is_local_(req.addr);
  mem_.fetch(req.addr, req.read_len, local, [this, req] {
    {
      obs::ProfScope prof(obs::CostCenter::Packetizer);
      proto::segment_completions(link_cfg_, req.addr, req.read_len,
                                 tlp_scratch_);
    }
    for (proto::Tlp& cpl : tlp_scratch_) {
      cpl.tag = req.tag;
      cpl.func = req.func;  // completions route back to the requester VF
      downstream_.send(cpl);
    }
  });
}

}  // namespace pcieb::sim
