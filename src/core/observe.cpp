#include "core/observe.hpp"

#include <stdexcept>

namespace pcieb::core {

ObsSession::ObsSession(sim::System& system, const Options& opts)
    : system_(system) {
  system_.register_counters(counters_);
  if (opts.trace || opts.breakdown) {
    sink_ = std::make_unique<obs::TraceSink>(kTraceCapacity);
    if (opts.breakdown) {
      breakdown_ = std::make_unique<obs::LatencyBreakdown>();
      sink_->set_listener(
          [b = breakdown_.get()](const obs::TraceEvent& e) { b->on_event(e); });
    }
    system_.set_trace_sink(sink_.get());
  }
  if (opts.telemetry) {
    // Construct after register_counters so the series captures the full
    // metric list; drive it from the simulator's dedicated sample hook.
    series_ = std::make_unique<obs::TimeSeries>(counters_,
                                                opts.telemetry_interval_ps);
    system_.sim().set_sample_hook(
        [s = series_.get()](Picos now) { s->observe(now); });
    sample_hook_set_ = true;
  }
}

ObsSession::~ObsSession() {
  if (sink_) system_.set_trace_sink(nullptr);
  if (sample_hook_set_) system_.sim().set_sample_hook({});
}

void ObsSession::finish_telemetry() {
  if (series_) series_->finish(system_.sim().now());
}

void ObsSession::write_trace_json(const std::string& path) const {
  if (!sink_) throw std::logic_error("ObsSession: tracing was not enabled");
  if (series_) {
    // Merge the counter tracks into the TLP timeline for one Perfetto view.
    sink_->set_extra_json(series_->chrome_counter_events());
  }
  sink_->write_chrome_json_file(path);
}

obs::DigestSet ObsSession::stage_digests() const {
  return breakdown_ ? breakdown_->stage_digests() : obs::DigestSet{};
}

obs::BreakdownReport ObsSession::breakdown_report() const {
  if (!breakdown_) {
    throw std::logic_error("ObsSession: breakdown was not enabled");
  }
  return breakdown_->report();
}

model::StageBudgetInputs stage_budget_inputs(const sim::SystemConfig& cfg,
                                             const BenchParams& params) {
  model::StageBudgetInputs in;
  in.link = cfg.link;
  const auto& dev = cfg.device;
  in.device_front_ns =
      to_nanos(params.use_cmd_if ? dev.cmd_if_overhead : dev.dma_enqueue);
  in.issue_interval_ns = to_nanos(dev.issue_interval);
  in.up_propagation_ns = to_nanos(cfg.up_propagation);
  in.down_propagation_ns = to_nanos(cfg.down_propagation);
  in.rc_pipeline_ns = to_nanos(cfg.rc.tlp_pipeline);
  in.iommu_walk_ns = 0.0;  // steady state: the window's pages are in-TLB
  in.llc_hit_ns = to_nanos(cfg.mem.llc_hit);
  in.dram_extra_ns = to_nanos(cfg.mem.dram_extra);
  in.read_pipeline_gbps = cfg.mem.read_pipeline_gbps;
  in.dram_gbps = cfg.mem.dram_gbps;
  in.cache_line_bytes = cfg.cache.line_bytes;
  in.expect_llc_miss = params.cache_state == CacheState::Thrash;
  in.completion_fixed_ns = to_nanos(dev.completion_fixed);
  if (!params.use_cmd_if && dev.staging_gbps > 0.0) {
    in.staging_base_ns = to_nanos(dev.staging_base);
    in.staging_gbps = dev.staging_gbps;
  }
  return in;
}

}  // namespace pcieb::core
