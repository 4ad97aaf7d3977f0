// Tests for the discrete-event network simulator: scheduler semantics,
// link timing/loss/MTU behaviour, multipath-skew reordering (the §1
// disordering generator), and multi-hop chain topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/chunk/codec.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/router.hpp"
#include "src/netsim/simulator.hpp"

namespace chunknet {
namespace {

class CollectingSink final : public PacketSink {
 public:
  explicit CollectingSink(Simulator& sim) : sim_(sim) {}
  void on_packet(SimPacket pkt) override {
    arrival_times.push_back(sim_.now());
    packets.push_back(std::move(pkt));
  }
  std::vector<SimPacket> packets;
  std::vector<SimTime> arrival_times;

 private:
  Simulator& sim_;
};

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.schedule_in(5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 6u);
}

TEST(Simulator, DeadlineStopsExecution) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  EXPECT_EQ(sim.run(50), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.pending());
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  SimTime seen = 12345;
  sim.schedule_at(100, [&] {
    sim.schedule_at(5, [&] { seen = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Simulator, CatchUpFiresEachOverdueEventOnceAtTheCurrentTime) {
  Simulator sim;
  // A 30 ms timer that re-arms itself, like an RTO that keeps resending.
  std::vector<SimTime> fired_at;
  std::function<void()> tick = [&] {
    fired_at.push_back(sim.now());
    sim.schedule_in(30 * kMillisecond, tick);
  };
  sim.schedule_at(30 * kMillisecond, tick);

  // A stall far past the deadline: one fire, at the current time, and
  // the re-armed deadline is measured from there.
  EXPECT_EQ(sim.catch_up(kSecond), 1u);
  ASSERT_EQ(fired_at.size(), 1u);
  EXPECT_EQ(fired_at[0], kSecond);
  EXPECT_EQ(sim.next_event_at(), kSecond + 30 * kMillisecond);

  EXPECT_EQ(sim.catch_up(kSecond / 2), 0u);  // never moves backwards
  EXPECT_EQ(sim.now(), kSecond);
}

SimPacket packet_of(Simulator& sim, std::size_t bytes) {
  SimPacket p;
  p.bytes.assign(bytes, 0x77);
  p.id = sim.next_packet_id();
  p.created_at = sim.now();
  return p;
}

TEST(Link, DeliveryTimingMatchesRatePlusPropagation) {
  Simulator sim;
  Rng rng(1);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte/µs
  cfg.prop_delay = 100 * kMicrosecond;
  cfg.mtu = 10000;
  Link link(sim, cfg, sink, rng);
  link.send(packet_of(sim, 1000));  // 1000 µs serialize + 100 µs prop
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], 1100 * kMicrosecond);
  EXPECT_EQ(sink.packets[0].hops, 1);
}

TEST(Link, BackToBackPacketsQueueOnSerialization) {
  Simulator sim;
  Rng rng(2);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 0;
  Link link(sim, cfg, sink, rng);
  link.send(packet_of(sim, 1000));
  link.send(packet_of(sim, 1000));
  sim.run();
  ASSERT_EQ(sink.arrival_times.size(), 2u);
  EXPECT_EQ(sink.arrival_times[0], 1000 * kMicrosecond);
  EXPECT_EQ(sink.arrival_times[1], 2000 * kMicrosecond);
}

TEST(Link, OversizedPacketsDropped) {
  Simulator sim;
  Rng rng(3);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.mtu = 100;
  Link link(sim, cfg, sink, rng);
  link.send(packet_of(sim, 101));
  sim.run();
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(link.stats().oversize_dropped, 1u);
}

TEST(Link, LossRateApproximatelyHonoured) {
  Simulator sim;
  Rng rng(4);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.loss_rate = 0.3;
  cfg.rate_bps = 1e12;
  Link link(sim, cfg, sink, rng);
  for (int i = 0; i < 2000; ++i) link.send(packet_of(sim, 100));
  sim.run();
  EXPECT_NEAR(static_cast<double>(link.stats().lost) / 2000.0, 0.3, 0.05);
  EXPECT_EQ(link.stats().delivered + link.stats().lost, 2000u);
}

TEST(Link, DuplicationDeliversTwice) {
  Simulator sim;
  Rng rng(5);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.dup_rate = 1.0;  // always duplicate
  Link link(sim, cfg, sink, rng);
  link.send(packet_of(sim, 50));
  sim.run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(link.stats().duplicated, 1u);
}

TEST(Link, DuplicateChargedSerializationOnALane) {
  // A duplicate is a real transmission: it must occupy a lane for its
  // full serialization time, not materialize for free. With one lane
  // the duplicate serializes strictly after the original, so it cannot
  // arrive before 2×tx + propagation.
  Simulator sim;
  Rng rng(5);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.rate_bps = 1e6;  // 1000 bytes -> 8 ms serialization
  cfg.prop_delay = 1 * kMillisecond;
  cfg.dup_rate = 1.0;
  Link link(sim, cfg, sink, rng);
  link.send(packet_of(sim, 1000));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 2u);
  const SimTime tx = 8 * kMillisecond;
  EXPECT_EQ(sink.arrival_times[0], tx + cfg.prop_delay);
  EXPECT_GE(sink.arrival_times[1], 2 * tx + cfg.prop_delay);
}

TEST(Link, SaturatedThroughputBoundedByRateDespiteDuplication) {
  // Regression: duplicates used to bypass lane occupancy, letting a
  // saturated link deliver ~2x its configured rate. Every delivered
  // byte must be paid for in serialization time.
  Simulator sim;
  Rng rng(7);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1000 bytes -> 1 ms per copy
  cfg.prop_delay = 0;
  cfg.dup_rate = 1.0;  // doubles the offered byte count
  Link link(sim, cfg, sink, rng);
  for (int i = 0; i < 100; ++i) link.send(packet_of(sim, 1000));
  sim.run();
  EXPECT_EQ(link.stats().delivered, 200u);
  const double seconds = static_cast<double>(sim.now()) / 1e9;
  const double achieved_bps =
      static_cast<double>(link.stats().bytes_delivered) * 8.0 / seconds;
  EXPECT_LE(achieved_bps, cfg.rate_bps * 1.05);
  EXPECT_GE(achieved_bps, cfg.rate_bps * 0.80);  // not absurdly slow either
}

TEST(Link, MultipathSkewReordersPackets) {
  // Eight parallel lanes with skew: packets striped round-robin arrive
  // out of order — the paper's SONET/ATM parallel-connection scenario.
  Simulator sim;
  Rng rng(6);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.rate_bps = 622e6;
  cfg.prop_delay = 1 * kMillisecond;
  cfg.lanes = 8;
  cfg.lane_skew = 200 * kMicrosecond;
  Link link(sim, cfg, sink, rng);
  std::vector<std::uint64_t> sent_ids;
  for (int i = 0; i < 64; ++i) {
    auto p = packet_of(sim, 1000);
    sent_ids.push_back(p.id);
    link.send(std::move(p));
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 64u);
  bool disordered = false;
  for (std::size_t i = 1; i < sink.packets.size(); ++i) {
    if (sink.packets[i].id < sink.packets[i - 1].id) disordered = true;
  }
  EXPECT_TRUE(disordered);
}

TEST(Link, SingleLaneNoSkewPreservesOrder) {
  Simulator sim;
  Rng rng(7);
  CollectingSink sink(sim);
  LinkConfig cfg;  // defaults: 1 lane, no jitter, no loss
  Link link(sim, cfg, sink, rng);
  for (int i = 0; i < 32; ++i) link.send(packet_of(sim, 500));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 32u);
  for (std::size_t i = 1; i < sink.packets.size(); ++i) {
    EXPECT_LT(sink.packets[i - 1].id, sink.packets[i].id);
  }
}

TEST(LinkLanes, PerLaneSerializationSplitsAggregateRate) {
  // lanes=4 stripes the aggregate rate evenly: each lane clocks bytes
  // at rate/4, so four same-size packets sent together each take 4x a
  // single-lane serialization but finish simultaneously — and the
  // aggregate goodput still equals the configured rate.
  Simulator sim;
  Rng rng(8);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // aggregate 1 byte/µs; per lane 0.25 byte/µs
  cfg.prop_delay = 0;
  cfg.lanes = 4;
  cfg.mtu = 10000;
  Link link(sim, cfg, sink, rng);
  for (int i = 0; i < 4; ++i) link.send(packet_of(sim, 1000));
  sim.run();
  ASSERT_EQ(sink.arrival_times.size(), 4u);
  for (const SimTime t : sink.arrival_times) {
    EXPECT_EQ(t, 4000 * kMicrosecond);  // 1000 bytes at rate/4
  }
  // 4000 bytes in 4000 µs == the aggregate 8 Mbps — striping does not
  // mint extra capacity.
  EXPECT_EQ(link.stats().bytes_delivered, 4000u);
  EXPECT_EQ(sim.now(), 4000 * kMicrosecond);
}

TEST(LinkLanes, TwoLanesLargeSkewDeterministicOvertaking) {
  // Round-robin striping with a skewed second lane: every even-indexed
  // packet rides lane 0 and overtakes every odd-indexed packet stuck
  // behind lane 1's extra path length. The documented arithmetic:
  // arrival = serialize(queue position) + prop + lane_index * skew.
  Simulator sim;
  Rng rng(9);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // per lane 4e6: 1000 bytes -> 2 ms
  cfg.prop_delay = 1 * kMillisecond;
  cfg.lanes = 2;
  cfg.lane_skew = 5 * kMillisecond;
  cfg.mtu = 10000;
  Link link(sim, cfg, sink, rng);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    auto p = packet_of(sim, 1000);
    ids.push_back(p.id);
    link.send(std::move(p));
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 4u);
  // Lane 0: packets 0 and 2 at 2+1=3 ms and 4+1=5 ms.
  // Lane 1: packets 1 and 3 at 2+1+5=8 ms and 4+1+5=10 ms.
  EXPECT_EQ(sink.packets[0].id, ids[0]);
  EXPECT_EQ(sink.packets[1].id, ids[2]);
  EXPECT_EQ(sink.packets[2].id, ids[1]);
  EXPECT_EQ(sink.packets[3].id, ids[3]);
  EXPECT_EQ(sink.arrival_times[0], 3 * kMillisecond);
  EXPECT_EQ(sink.arrival_times[1], 5 * kMillisecond);
  EXPECT_EQ(sink.arrival_times[2], 8 * kMillisecond);
  EXPECT_EQ(sink.arrival_times[3], 10 * kMillisecond);
}

TEST(LinkLanes, SkewBoundsMaximumDisplacement) {
  // A packet can only be overtaken by packets serialized while it sat
  // on its skewed lane: with lanes=2 the displacement in delivery
  // order is bounded by skew / per-lane serialization time, not the
  // whole stream — reordering is local, which is what gives the
  // resequencing buffer its bounded occupancy.
  Simulator sim;
  Rng rng(10);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // per lane 4e6: 1000 bytes -> 2 ms
  cfg.prop_delay = 0;
  cfg.lanes = 2;
  cfg.lane_skew = 4 * kMillisecond;  // = 2 per-lane packet times
  cfg.mtu = 10000;
  Link link(sim, cfg, sink, rng);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 32; ++i) {
    auto p = packet_of(sim, 1000);
    ids.push_back(p.id);
    link.send(std::move(p));
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 32u);
  // Map id -> send index, then bound each packet's displacement.
  std::size_t max_disp = 0;
  for (std::size_t pos = 0; pos < sink.packets.size(); ++pos) {
    for (std::size_t sent = 0; sent < ids.size(); ++sent) {
      if (ids[sent] == sink.packets[pos].id) {
        const std::size_t d = pos > sent ? pos - sent : sent - pos;
        max_disp = std::max(max_disp, d);
      }
    }
  }
  EXPECT_GT(max_disp, 0u);  // skew did reorder
  // skew (4 ms) / per-lane tx (2 ms) = 2 packets per lane -> at most
  // ~2*lanes positions of displacement.
  EXPECT_LE(max_disp, 4u);
}

TEST(ChainTopology, TransparentChainDeliversEndToEnd) {
  Simulator sim;
  Rng rng(8);
  CollectingSink sink(sim);
  std::vector<LinkConfig> hops(3);
  for (auto& h : hops) h.mtu = 1500;
  ChainTopology chain(sim, rng, hops, sink,
                      [] { return transparent_relay(); });
  chain.inject(std::vector<std::uint8_t>(800, 0x11));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].bytes.size(), 800u);
  EXPECT_EQ(sink.packets[0].hops, 3);
}

TEST(ChainTopology, ChunkRelayRefragmentsAtSmallerMtu) {
  Simulator sim;
  Rng rng(9);
  CollectingSink sink(sim);

  // Build one packet of chunks at MTU 1500, push through a 576-MTU hop.
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 256;
  fo.xpdu_elements = 256;
  std::vector<std::uint8_t> stream(1024, 0x5C);
  auto chunks = frame_stream(stream, fo);
  auto pkt = encode_packet(chunks, 1500);
  ASSERT_FALSE(pkt.empty());

  std::vector<LinkConfig> hops(2);
  hops[0].mtu = 1500;
  hops[1].mtu = 576;
  RelayStats stats;
  ChainTopology chain(sim, rng, hops, sink, [&stats] {
    return chunk_relay(RepackPolicy::kRepack, &stats);
  });
  chain.inject(std::move(pkt));
  sim.run();

  ASSERT_GT(sink.packets.size(), 1u);  // had to fragment
  EXPECT_GT(stats.splits, 0u);
  std::size_t payload = 0;
  for (const auto& p : sink.packets) {
    EXPECT_LE(p.bytes.size(), 576u);
    const auto parsed = decode_packet(p.bytes);
    ASSERT_TRUE(parsed.ok);
    for (const auto& c : parsed.chunks) payload += c.payload.size();
  }
  EXPECT_EQ(payload, 1024u);
}

TEST(ChainTopology, RouteFlapCausesReordering) {
  Simulator sim;
  Rng rng(10);
  CollectingSink sink(sim);
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.prop_delay = 1 * kMillisecond;
  cfg.route_flap_interval = 2 * kMillisecond;
  cfg.route_flap_magnitude = 5 * kMillisecond;
  Link link(sim, cfg, sink, rng);
  for (int burst = 0; burst < 50; ++burst) {
    sim.schedule_at(static_cast<SimTime>(burst) * kMillisecond, [&] {
      link.send(packet_of(sim, 1000));
    });
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 50u);
  bool disordered = false;
  for (std::size_t i = 1; i < sink.packets.size(); ++i) {
    if (sink.packets[i].id < sink.packets[i - 1].id) disordered = true;
  }
  EXPECT_TRUE(disordered);
}

}  // namespace
}  // namespace chunknet
