#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.hpp"

namespace pcieb::sim {
namespace {

proto::Tlp write_tlp(std::uint32_t payload) {
  return proto::Tlp{proto::TlpType::MemWr, 0x1000, payload, 0, 0};
}

TEST(LinkTest, DeliveryTimeIsSerializationPlusPropagation) {
  Simulator sim;
  proto::LinkConfig cfg = proto::gen3_x8();
  Link link(sim, cfg, from_nanos(100));
  Picos delivered = -1;
  link.set_deliver([&](const proto::Tlp&) { delivered = sim.now(); });
  const proto::Tlp t = write_tlp(256);  // 280 wire bytes
  const Picos predicted = link.send(t);
  sim.run();
  EXPECT_EQ(delivered, predicted);
  const Picos ser = serialization_ps(280, cfg.tlp_gbps());
  EXPECT_EQ(delivered, ser + from_nanos(100));
}

TEST(LinkTest, BackToBackTlpsSerialize) {
  Simulator sim;
  proto::LinkConfig cfg = proto::gen3_x8();
  Link link(sim, cfg, 0);
  std::vector<Picos> times;
  link.set_deliver([&](const proto::Tlp&) { times.push_back(sim.now()); });
  link.send(write_tlp(256));
  link.send(write_tlp(256));
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[1] - times[0], serialization_ps(280, cfg.tlp_gbps()));
}

TEST(LinkTest, DeliveryPreservesOrder) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), from_nanos(50));
  std::vector<std::uint32_t> tags;
  link.set_deliver([&](const proto::Tlp& t) { tags.push_back(t.tag); });
  for (std::uint32_t i = 0; i < 20; ++i) {
    proto::Tlp t = write_tlp(64);
    t.tag = i;
    link.send(t);
  }
  sim.run();
  ASSERT_EQ(tags.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(tags[i], i);
}

TEST(LinkTest, CountsBytesAndTlps) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), 0);
  link.set_deliver([](const proto::Tlp&) {});
  link.send(write_tlp(64));   // 88 wire bytes
  link.send(write_tlp(128));  // 152 wire bytes
  sim.run();
  EXPECT_EQ(link.tlps_sent(), 2u);
  EXPECT_EQ(link.wire_bytes_sent(), 240u);
  EXPECT_EQ(link.payload_bytes_sent(), 192u);
}

TEST(LinkTest, SustainedRateMatchesConfiguredBandwidth) {
  Simulator sim;
  proto::LinkConfig cfg = proto::gen3_x8();
  Link link(sim, cfg, from_nanos(100));
  std::size_t delivered = 0;
  link.set_deliver([&](const proto::Tlp&) { ++delivered; });
  const int n = 1000;
  for (int i = 0; i < n; ++i) link.send(write_tlp(256));
  sim.run();
  EXPECT_EQ(delivered, static_cast<std::size_t>(n));
  // Payload goodput over the busy interval: 256/280 of the TLP rate.
  const double achieved = gbps(static_cast<std::uint64_t>(n) * 256,
                               sim.now() - from_nanos(100));
  EXPECT_NEAR(achieved, cfg.tlp_gbps() * 256.0 / 280.0, 0.2);
}

TEST(LinkTest, NoDeliverCallbackIsSafe) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), 0);
  link.send(write_tlp(64));
  EXPECT_NO_THROW(sim.run());
  // Same single arrival event as a wired link; it retires the entry.
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_EQ(link.unacked(), 0u);
}

// ---- one event per delivered TLP ---------------------------------------------

// A TLP's arrival is closed-form once the wire is claimed: it is filed at
// send time for max(now, wire free) + serialization + propagation, and it
// is the only event the TLP costs.
TEST(LinkTest, EachDeliveredTlpIsOneEventAtItsClosedFormArrival) {
  const proto::LinkConfig cfg = proto::gen3_x8();
  const Picos prop = from_nanos(100);
  Simulator sim;
  Link link(sim, cfg, prop);
  std::vector<Picos> arrived;
  link.set_deliver([&](const proto::Tlp&) { arrived.push_back(sim.now()); });
  std::vector<Picos> predicted;
  Picos wire_free = 0;
  // A back-to-back burst at t=0, then a second burst after the wire idles.
  for (const Picos start : {Picos{0}, from_nanos(5000)}) {
    sim.at(start, [&, start] {
      const std::size_t pending = sim.pending();
      for (std::uint32_t i = 0; i < 8; ++i) {
        const proto::Tlp t = write_tlp(64u << (i % 3));
        const Picos done = std::max(start, wire_free) +
                           serialization_ps(t.wire_bytes(cfg), cfg.tlp_gbps());
        wire_free = done;
        predicted.push_back(done + prop);
        EXPECT_EQ(link.send(t), done + prop);
      }
      EXPECT_EQ(sim.pending() - pending, 8u);
    });
  }
  sim.run();
  EXPECT_EQ(arrived, predicted);
  EXPECT_EQ(sim.executed(), 2u + 16u);  // two burst events + one per TLP
  EXPECT_EQ(link.unacked(), 0u);
}

TEST(LinkTest, LostTlpsFileNoEvent) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), from_nanos(100));
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  link.set_deliver([&](const proto::Tlp&) { ++delivered; });
  link.set_drop_hook([&](const proto::Tlp&) { ++dropped; });

  // Contained port: discarded before the wire.
  link.set_blocked(true);
  link.send(write_tlp(64));
  EXPECT_EQ(sim.pending(), 0u);
  link.set_blocked(false);

  // Injected drop: occupies the wire, never arrives.
  fault::FaultInjector drop(fault::parse_plan("drop@nth=1"));
  link.set_fault_injector(&drop, /*upstream=*/true);
  link.send(write_tlp(64));
  EXPECT_EQ(sim.pending(), 0u);

  // Surprise link-down: the trigger TLP is lost.
  fault::FaultInjector linkdown(fault::parse_plan("linkdown@nth=1"));
  link.set_fault_injector(&linkdown, /*upstream=*/true);
  bool went_down = false;
  link.set_linkdown_hook([&] { went_down = true; });
  link.send(write_tlp(64));
  EXPECT_TRUE(went_down);
  EXPECT_EQ(sim.pending(), 0u);

  sim.run();
  EXPECT_EQ(sim.executed(), 0u);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(link.unacked(), 0u);
}

// Armed telemetry keeps the serialization-end instant as an empty event
// (Simulator::sample_point) so the sampler sees the executed-event
// sequence it always did; unarmed runs file nothing there.
TEST(LinkTest, SampleHookKeepsOneEventAtSerializationEnd) {
  for (const bool armed : {false, true}) {
    Simulator sim;
    Link link(sim, proto::gen3_x8(), from_nanos(100));
    std::vector<Picos> sampled;
    if (armed) {
      sim.set_sample_hook([&](Picos now) { sampled.push_back(now); });
    }
    link.set_deliver([](const proto::Tlp&) {});
    const Picos arrival = link.send(write_tlp(256));
    sim.run();
    if (armed) {
      EXPECT_EQ(sampled,
                (std::vector<Picos>{arrival - from_nanos(100), arrival}));
    } else {
      EXPECT_EQ(sim.executed(), 1u);
    }
  }
}

// ---- weighted TDM lanes: the path every TLP takes ---------------------------

proto::Tlp func_tlp(unsigned func, std::uint32_t payload = 256) {
  proto::Tlp t = write_tlp(payload);
  t.func = static_cast<std::uint8_t>(func);
  return t;
}

TEST(LinkLaneTest, EachLaneSerializesAtItsShare) {
  const proto::LinkConfig cfg = proto::gen3_x8();
  Simulator sim;
  Link link(sim, cfg, from_nanos(100));
  link.configure_tenants({3, 1});
  // Both start at t=0: each lane is its own server at weight/total.
  EXPECT_EQ(link.send(func_tlp(0)),
            serialization_ps(280, 0.75 * cfg.tlp_gbps()) + from_nanos(100));
  EXPECT_EQ(link.send(func_tlp(1)),
            serialization_ps(280, 0.25 * cfg.tlp_gbps()) + from_nanos(100));
  sim.run();
  EXPECT_EQ(link.func_counters(0).tlps, 1u);
  EXPECT_EQ(link.func_counters(1).tlps, 1u);
  EXPECT_EQ(link.tlps_sent(), 2u);
  EXPECT_EQ(link.busy_total(), serialization_ps(280, 0.75 * cfg.tlp_gbps()) +
                                   serialization_ps(280, 0.25 * cfg.tlp_gbps()));
}

TEST(LinkLaneTest, BurstOnOneLaneNeverDelaysAnother) {
  std::vector<Picos> quiet;
  std::vector<Picos> loaded;
  for (const bool burst : {false, true}) {
    Simulator sim;
    Link link(sim, proto::gen3_x8(), from_nanos(100));
    link.configure_tenants({3, 1});
    std::vector<Picos>& lane0 = burst ? loaded : quiet;
    link.set_deliver([&](const proto::Tlp& t) {
      if (t.func == 0) lane0.push_back(sim.now());
    });
    for (int i = 0; i < 20; ++i) {
      sim.at(from_nanos(50) * i, [&link, burst] {
        if (burst) {
          for (int k = 0; k < 10; ++k) link.send(func_tlp(1, 512));
        }
        link.send(func_tlp(0));
      });
    }
    sim.run();
  }
  ASSERT_EQ(quiet.size(), 20u);
  EXPECT_EQ(loaded, quiet);
}

TEST(LinkLaneTest, BlockedLaneDropsOnlyItsOwnTlps) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), from_nanos(100));
  link.configure_tenants({1, 1});
  std::vector<unsigned> delivered;
  std::vector<unsigned> dropped;
  link.set_deliver([&](const proto::Tlp& t) { delivered.push_back(t.func); });
  link.set_drop_hook([&](const proto::Tlp& t) { dropped.push_back(t.func); });
  link.set_func_blocked(1, true);
  for (int i = 0; i < 4; ++i) {
    link.send(func_tlp(0));
    link.send(func_tlp(1));
  }
  sim.run();
  EXPECT_EQ(delivered, std::vector<unsigned>(4, 0));
  EXPECT_EQ(dropped, std::vector<unsigned>(4, 1));
  EXPECT_EQ(link.func_counters(0).tlps, 4u);
  EXPECT_EQ(link.func_counters(0).blocked_drops, 0u);
  EXPECT_EQ(link.func_counters(1).tlps, 0u);
  EXPECT_EQ(link.func_counters(1).blocked_drops, 4u);
  EXPECT_EQ(link.blocked_drops(), 4u);

  // Port-wide and per-lane containment are separate latches: a port
  // freeze and thaw leaves the function contained.
  link.set_blocked(true);
  link.set_blocked(false);
  EXPECT_TRUE(link.func_blocked(1));
  EXPECT_FALSE(link.func_blocked(0));
}

TEST(LinkLaneTest, LaneBlockedInFlightStillDiscardsAtArrival) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), from_nanos(100));
  link.configure_tenants({1, 1});
  std::vector<unsigned> delivered;
  std::vector<Picos> dropped_at;
  link.set_deliver([&](const proto::Tlp& t) { delivered.push_back(t.func); });
  link.set_drop_hook(
      [&](const proto::Tlp&) { dropped_at.push_back(sim.now()); });
  const Picos arrive0 = link.send(func_tlp(0));
  const Picos arrive1 = link.send(func_tlp(1));
  // Contain function 1 while its TLP is on the wire; the arrival event
  // filed at send time must check containment when it runs.
  sim.at(from_nanos(10), [&link] { link.set_func_blocked(1, true); });
  sim.run();
  EXPECT_EQ(delivered, std::vector<unsigned>{0});
  EXPECT_EQ(dropped_at, std::vector<Picos>{arrive1});
  EXPECT_GT(arrive1, from_nanos(10));
  EXPECT_EQ(arrive0, arrive1);  // equal shares, equal sizes
  EXPECT_EQ(link.func_counters(1).blocked_drops, 1u);
  EXPECT_EQ(link.unacked(), 0u);
}

TEST(LinkLaneTest, DerateSlowsOnlyItsLane) {
  const proto::LinkConfig cfg = proto::gen3_x8();
  proto::LinkConfig x4 = cfg;
  x4.lanes = 4;
  Simulator sim;
  Link link(sim, cfg, 0);
  link.configure_tenants({1, 1});
  link.set_func_recovery_derate(1, 4, 0);
  EXPECT_EQ(link.send(func_tlp(0)), serialization_ps(280, 0.5 * cfg.tlp_gbps()));
  EXPECT_EQ(link.send(func_tlp(1)), serialization_ps(280, 0.5 * x4.tlp_gbps()));
  EXPECT_FALSE(link.recovery_derated());
  sim.run();
  link.clear_func_recovery_derate(1);
  const Picos now = sim.now();
  EXPECT_EQ(link.send(func_tlp(1)),
            now + serialization_ps(280, 0.5 * cfg.tlp_gbps()));
}

TEST(LinkLaneTest, LaneAerTakesItsOwnDllRecords) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), 0);
  link.configure_tenants({1, 1});
  fault::FaultInjector injector(fault::parse_plan("corrupt@prob=1"));
  fault::AerLog port;
  fault::AerLog vf1;
  link.set_fault_injector(&injector, /*upstream=*/true);
  link.set_aer(&port);
  link.set_func_aer(1, &vf1);
  link.send(func_tlp(0));
  link.send(func_tlp(1));
  sim.run();
  // Lane 1 logs to its own AER; lane 0 has none and falls back to the port.
  EXPECT_EQ(vf1.count(fault::ErrorType::BadTlp), 1u);
  EXPECT_EQ(port.count(fault::ErrorType::BadTlp), 1u);
  EXPECT_EQ(link.func_counters(0).replays, 1u);
  EXPECT_EQ(link.func_counters(1).replays, 1u);
  EXPECT_EQ(link.replays(), 2u);
}

TEST(LinkLaneTest, ConfigureTenantsOnlyBeforeTraffic) {
  Simulator sim;
  Link used(sim, proto::gen3_x8(), 0);
  used.send(write_tlp(64));
  EXPECT_THROW(used.configure_tenants({1, 1}), std::logic_error);

  Link twice(sim, proto::gen3_x8(), 0);
  twice.configure_tenants({1, 1});
  EXPECT_THROW(twice.configure_tenants({1, 1}), std::logic_error);

  Link bad(sim, proto::gen3_x8(), 0);
  EXPECT_THROW(bad.configure_tenants({}), std::invalid_argument);
  EXPECT_THROW(bad.configure_tenants({1, 0}), std::invalid_argument);
}

// A plain link is one lane of weight 1: configuring that lane explicitly
// changes nothing observable, with every DLL fault path exercised.
constexpr const char* kLanePlan =
    "corrupt@prob=0.04;corrupt@prob=0.01,count=6;ack-loss@prob=0.03;"
    "drop@prob=0.02;poison@prob=0.02;downtrain@time=3us-6us,lanes=4,gen=1";

std::array<std::uint64_t, 9> fields(const Link::FuncCounters& c) {
  return {c.tlps,     c.wire_bytes, c.payload_bytes, c.replays,
          c.replay_timeouts, c.retrains, c.dropped,  c.poisoned,
          c.blocked_drops};
}

struct FaultedRun {
  std::vector<std::string> transcript;
  std::array<std::uint64_t, 9> totals{};
  std::array<std::uint64_t, 9> lane0{};
  std::uint64_t downtrains = 0;
};

FaultedRun run_faulted(bool configure_one_lane) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), from_nanos(100));
  if (configure_one_lane) link.configure_tenants({1});
  fault::FaultInjector injector(fault::parse_plan(kLanePlan));
  fault::AerLog aer;
  obs::TraceSink trace;
  link.set_fault_injector(&injector, /*upstream=*/true);
  link.set_aer(&aer);
  link.set_trace(&trace, obs::Component::LinkUp);

  FaultedRun r;
  const auto note = [&r](const char* what, Picos t, const proto::Tlp& tlp) {
    r.transcript.push_back(std::string(what) + " " + std::to_string(t) + " " +
                           tlp.describe());
  };
  link.set_deliver([&](const proto::Tlp& t) { note("deliver", sim.now(), t); });
  link.set_drop_hook([&](const proto::Tlp& t) { note("drop", sim.now(), t); });
  for (std::uint32_t i = 0; i < 600; ++i) {
    proto::Tlp t = write_tlp(64u << (i % 3));
    t.tag = i;
    sim.at(from_nanos(15) * i, [&, t] { note("send", link.send(t), t); });
  }
  // A containment window: discards at send time and in flight.
  sim.at(from_nanos(7000), [&link] { link.set_blocked(true); });
  sim.at(from_nanos(7400), [&link] { link.set_blocked(false); });
  sim.run();

  for (const fault::ErrorRecord& e : aer.records()) {
    r.transcript.push_back("aer " + std::string(fault::to_string(e.type)) +
                           " " + std::to_string(e.ts) + " " +
                           std::to_string(e.addr) + " " +
                           std::to_string(e.tag) + " " +
                           std::to_string(e.info));
  }
  for (const obs::TraceEvent& e : trace.events()) {
    r.transcript.push_back(
        "trace " + std::string(obs::to_string(e.kind)) + " " +
        std::to_string(e.ts) + " " + std::to_string(e.dur) + " " +
        std::to_string(e.id) + " " + std::to_string(e.len));
  }
  r.totals = {link.tlps_sent(),       link.wire_bytes_sent(),
              link.payload_bytes_sent(), link.replays(),
              link.replay_timeouts(), link.retrains(),
              link.dropped(),         link.poisoned(),
              link.blocked_drops()};
  r.lane0 = fields(link.func_counters(0));
  r.downtrains = link.downtrains();
  return r;
}

TEST(LinkLaneTest, PlainLinkIsOneLaneOfWeightOne) {
  const FaultedRun plain = run_faulted(false);
  const FaultedRun one_lane = run_faulted(true);
  EXPECT_EQ(plain.transcript, one_lane.transcript);
  EXPECT_EQ(plain.totals, one_lane.totals);
  EXPECT_EQ(plain.lane0, one_lane.lane0);
  EXPECT_EQ(plain.downtrains, one_lane.downtrains);
  // The lane's counters are the link's: one lane carries everything.
  EXPECT_EQ(plain.lane0, plain.totals);
  // Every fault path actually ran.
  EXPECT_GT(plain.totals[3], 0u);  // replays
  EXPECT_GT(plain.totals[4], 0u);  // replay timeouts
  EXPECT_GT(plain.totals[5], 0u);  // retrains
  EXPECT_GT(plain.totals[6], 0u);  // drops
  EXPECT_GT(plain.totals[7], 0u);  // poisoned
  EXPECT_GT(plain.totals[8], 0u);  // blocked drops
  EXPECT_EQ(plain.downtrains, 1u);
}

}  // namespace
}  // namespace pcieb::sim
