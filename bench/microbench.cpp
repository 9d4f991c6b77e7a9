// google-benchmark microbenchmarks for the library's hot paths: the
// packetizer (into a caller-owned TlpVec), the event engine and its
// SmallFn callable wrapper, a link direction, the DMA in-flight map, the
// cache tag array, the RNG, the latency digest and the overload load
// generator's flow pick. These guard the simulator's own
// performance (a full figure sweep executes hundreds of millions of
// events); `pciebench perf` measures the same paths end to end.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/loadgen.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/counters.hpp"
#include "obs/digest.hpp"
#include "obs/trace.hpp"
#include "pcie/packetizer.hpp"
#include "pcie/tlp_vec.hpp"
#include "sim/cache.hpp"
#include "sim/flat_map.hpp"
#include "sim/host_buffer.hpp"
#include "sim/link.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

namespace {

using namespace pcieb;

// One reusable caller-owned TlpVec: no allocation per call.
void BM_SegmentWriteIntoTlpVec(benchmark::State& state) {
  const auto cfg = proto::gen3_x8();
  const auto len = static_cast<std::uint32_t>(state.range(0));
  proto::TlpVec out;
  for (auto _ : state) {
    out.clear();
    proto::segment_write(cfg, 0x1000, len, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentWriteIntoTlpVec)->Arg(64)->Arg(1500)->Arg(4096);

void BM_DmaReadBytes(benchmark::State& state) {
  const auto cfg = proto::gen3_x8();
  const auto len = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::dma_read_bytes(cfg, 0x1000, len));
  }
}
BENCHMARK(BM_DmaReadBytes)->Arg(64)->Arg(1500)->Arg(65536);

void BM_EventQueue(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < depth; ++i) {
      sim.at(static_cast<Picos>((i * 2654435761u) % 1000000), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);

void BM_EventChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int hops = 0;
    std::function<void()> chain = [&] {
      if (++hops < 10000) sim.after(1, chain);
    };
    sim.after(0, chain);
    sim.run();
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventChain);

// SmallFn's fire-once cycle as the event loop drives it: emplace an
// inline-capture callable, then invoke+destroy in one dispatch.
void BM_SmallFnInlineConsume(benchmark::State& state) {
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::SmallFn fn;
    fn.emplace([&sink] { ++sink; });
    fn.invoke_consume();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SmallFnInlineConsume);

// The >48 B spill path (one heap cell per emplace) — the cost cap for
// oversized captures, not a path figure sweeps hit.
void BM_SmallFnHeapConsume(benchmark::State& state) {
  struct Big {
    std::uint64_t* sink;
    unsigned char pad[72];
    void operator()() { ++*sink; }
  };
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::SmallFn fn;
    fn.emplace(Big{&sink, {}});
    fn.invoke_consume();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SmallFnHeapConsume);

// The DMA engine's tag/dma_id bookkeeping shape: a sliding window of
// monotone keys, insert + find + erase per transaction.
void BM_FlatU32MapWindow(benchmark::State& state) {
  const auto window = static_cast<std::uint32_t>(state.range(0));
  sim::FlatU32Map<std::uint64_t> map;
  std::uint32_t next = 1;
  for (std::uint32_t i = 0; i < window; ++i, ++next) map.insert(next, next);
  for (auto _ : state) {
    map.insert(next, next);
    benchmark::DoNotOptimize(map.find(next));
    map.erase(next - window);
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatU32MapWindow)->Arg(32)->Arg(256);

void BM_CacheProbe(benchmark::State& state) {
  sim::CacheConfig cfg;
  cfg.size_bytes = 15ull << 20;
  sim::LastLevelCache cache(cfg);
  Xoshiro256 rng(1);
  for (std::uint64_t i = 0; i < 100000; ++i) {
    cache.host_touch(i * 64, false);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.read_probe(rng.below(1 << 24) * 64));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbe);

void BM_CacheWriteAllocate(benchmark::State& state) {
  sim::CacheConfig cfg;
  cfg.size_bytes = 15ull << 20;
  sim::LastLevelCache cache(cfg);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.write_allocate(rng.below(1 << 24) * 64));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheWriteAllocate);

// Lazy-warm materialization in the bw_rd_warm shape: thrash the
// NFP6000-HSW LLC, bulk-warm an 8 MB window at the benchmark buffer's
// base, then probe one line of every set, so each set applies the thrash
// fill and its ~11 warm lines once (hot-path round 4, closed-form replay).
void BM_CacheWarmMaterialize(benchmark::State& state) {
  const auto& prof = sys::profile_by_name("NFP6000-HSW");
  sim::LastLevelCache cache(prof.config.cache);
  const std::uint64_t sets = cache.config().sets();
  const std::uint64_t line = cache.config().line_bytes;
  const std::uint64_t base = sim::BufferConfig{}.base_iova;
  for (auto _ : state) {
    cache.thrash();
    cache.warm_host_range(base, 8ull << 20, /*dirty=*/true);
    for (std::uint64_t s = 0; s < sets; ++s) {
      benchmark::DoNotOptimize(cache.read_probe(base + s * line));
    }
  }
  state.SetItemsProcessed(state.iterations() * sets);
}
BENCHMARK(BM_CacheWarmMaterialize);

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Xoshiro);

// Latency-digest insertion with frame-latency-shaped values: 150-300 ns
// scaled by 2^0..2^6, in picoseconds (what an overload run records per
// delivered frame). Counts land in a flat array over the occupied
// bucket range, so an add is an index computation and an increment.
void BM_DigestAdd(benchmark::State& state) {
  Xoshiro256 rng(11);
  std::vector<std::uint64_t> values(4096);
  for (auto& v : values) v = (150000 + rng.below(150000)) << rng.below(7);
  obs::Digest d;
  std::size_t i = 0;
  for (auto _ : state) {
    d.add(values[i++ & 4095]);
  }
  benchmark::DoNotOptimize(d.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DigestAdd);

// Zipf flow picks for the overload load generator (zipf_s 1.1 over 64
// and 1000 flows): one uniform draw plus a guide-table scan of the CDF.
void BM_LoadGenNextFlow(benchmark::State& state) {
  core::LoadGenConfig cfg;
  cfg.flows = static_cast<std::uint32_t>(state.range(0));
  core::LoadGen gen(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next_flow());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoadGenNextFlow)->Arg(64)->Arg(1000);

// The fault-predicate fast path: a sparse plan (one nth= rule far in the
// future, one bounded window already past) against a dense TLP stream.
// Every call should take the compiled gate's handful of branches, never
// the per-rule walk — this is the common no-match event in a chaos trial.
void BM_FaultGateNoMatch(benchmark::State& state) {
  fault::FaultPlan plan;
  fault::FaultRule nth;
  nth.kind = fault::FaultKind::LinkDrop;
  nth.nth = 1u << 30;  // never reached
  plan.rules.push_back(nth);
  fault::FaultRule window;
  window.kind = fault::FaultKind::Poison;
  window.from = from_nanos(10);
  window.until = from_nanos(20);  // already past
  plan.rules.push_back(window);
  fault::FaultInjector inj(plan);
  proto::Tlp tlp{proto::TlpType::MemWr, 0x1000, 64, 0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(inj.on_link_tx(tlp, true, from_micros(5)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultGateNoMatch);

// Comparison point: a prob= rule cannot be gated (every TLP must draw),
// so this measures the full per-rule walk plus the RNG draw.
void BM_FaultGateProbWalk(benchmark::State& state) {
  fault::FaultPlan plan;
  fault::FaultRule r;
  r.kind = fault::FaultKind::LinkCorrupt;
  r.prob = 1e-9;
  plan.rules.push_back(r);
  fault::FaultInjector inj(plan);
  proto::Tlp tlp{proto::TlpType::MemWr, 0x1000, 64, 0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(inj.on_link_tx(tlp, true, from_micros(5)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultGateProbWalk);

// Counter snapshot with raw uint64_t* readers vs std::function readers —
// the batching front replaced per-snapshot std::function hops with
// pointer dereferences for every monotonic total.
void BM_CounterSnapshotRaw(benchmark::State& state) {
  obs::CounterRegistry reg;
  std::uint64_t sources[32] = {};
  for (int i = 0; i < 32; ++i) {
    reg.add_counter("raw." + std::to_string(i), &sources[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.snapshot());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_CounterSnapshotRaw);

void BM_CounterSnapshotLambda(benchmark::State& state) {
  obs::CounterRegistry reg;
  std::uint64_t sources[32] = {};
  for (int i = 0; i < 32; ++i) {
    std::uint64_t* src = &sources[i];
    reg.add_counter("fn." + std::to_string(i),
                    [src] { return double(*src); });
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.snapshot());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_CounterSnapshotLambda);

// Trace staging: listener-free recording batches events 64 at a time
// before touching the bounded ring, so the per-event cost is one store
// plus a branch. The ring capacity is default (1<<16).
void BM_TraceRecordStaged(benchmark::State& state) {
  obs::TraceSink sink;
  obs::TraceEvent e{0, 1, 2, 3, 4, obs::EventKind::LinkTx,
                    obs::Component::LinkUp, 0};
  for (auto _ : state) {
    sink.record(e);
  }
  benchmark::DoNotOptimize(sink.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordStaged);

// Full build of a Table-1 system — the chaos campaign's per-trial fixed
// cost (every trial constructs its own System).
void BM_SystemRebuild(benchmark::State& state) {
  const auto& prof = sys::profile_by_name("NFP6000-HSW");
  for (auto _ : state) {
    sim::System system(prof.config);
    benchmark::DoNotOptimize(system.sim().now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemRebuild);

void BM_SerialResource(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::SerialResource res(sim);
    for (int i = 0; i < 1000; ++i) res.occupy(10);
    sim.run();
    benchmark::DoNotOptimize(res.busy_total());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SerialResource);

// One link direction under a 64-TLP burst: each send serializes a TLP
// and files its arrival, then the run delivers all 64 — one event per
// TLP. `per_tlp` is wall time per TLP sent and delivered (printed in ns).
void BM_LinkBurst(benchmark::State& state) {
  constexpr int kBurst = 64;
  sim::Simulator sim;
  sim::Link link(sim, proto::gen3_x8(), from_nanos(100));
  std::uint64_t delivered = 0;
  link.set_deliver([&delivered](const proto::Tlp&) { ++delivered; });
  const proto::Tlp cpl{proto::TlpType::CplD, 0x1000, 256, 0, 0};
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) link.send(cpl);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * kBurst);
  state.counters["per_tlp"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBurst),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LinkBurst);

}  // namespace

BENCHMARK_MAIN();
