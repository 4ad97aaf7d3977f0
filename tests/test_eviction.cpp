// Receiver graceful degradation: the max_held_bytes / max_open_tpdus
// caps must bound memory by EVICTING (with counters and trace events),
// never by corrupting delivered data or wedging the connection.
#include <gtest/gtest.h>

#include <memory>

#include "src/chunk/builder.hpp"
#include "src/netsim/simulator.hpp"
#include "src/obs/obs.hpp"
#include "src/transport/invariant.hpp"
#include "src/transport/receiver.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  return v;
}

/// Frames `stream` into TPDUs of 8 elements (two 16-byte data chunks
/// each) and appends each TPDU's ED chunk, so tests can feed complete
/// or deliberately incomplete TPDUs chunk by chunk.
std::vector<std::vector<Chunk>> framed_tpdus(
    const std::vector<std::uint8_t>& stream) {
  FramerOptions fo;
  fo.connection_id = 1;
  fo.element_size = 4;
  fo.tpdu_elements = 8;
  fo.xpdu_elements = 8;
  fo.max_chunk_elements = 4;
  std::vector<std::vector<Chunk>> groups;
  for (StreamFramer framer(stream, fo); !framer.done();) {
    framer.next_tpdu(groups.emplace_back());
  }
  for (auto& g : groups) {
    TpduInvariant inv;
    for (const Chunk& c : g) inv.absorb(c);
    g.push_back(make_ed_chunk(fo.connection_id, g.front().h.tpdu.id,
                              g.front().h.conn.sn, inv.value()));
  }
  return groups;
}

ReceiverConfig base_config(std::size_t app_bytes, DeliveryMode mode) {
  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.element_size = 4;
  rc.mode = mode;
  rc.app_buffer_bytes = app_bytes;
  return rc;
}

TEST(Eviction, ReorderCapFlushesQueueOutOfOrderButByteExact) {
  const auto stream = pattern(96);  // 3 TPDUs, data chunks at C.SN 0..20
  const auto tpdus = framed_tpdus(stream);
  ASSERT_EQ(tpdus.size(), 3u);

  Simulator sim;
  MetricsRegistry reg;
  ChunkTracer tracer;
  ObsContext obs{&reg, &tracer};
  ReceiverConfig rc = base_config(stream.size(), DeliveryMode::kReorder);
  rc.max_held_bytes = 64;
  rc.obs = &obs;
  ChunkTransportReceiver rx(sim, std::move(rc));

  // Data chunks indexed by C.SN (16 bytes each: SN 0,4,8,12,16,20).
  std::map<std::uint32_t, Chunk> by_sn;
  for (const auto& g : tpdus) {
    for (const auto& c : g) {
      if (c.h.type == ChunkType::kData) by_sn[c.h.conn.sn] = c;
    }
  }
  ASSERT_EQ(by_sn.size(), 6u);

  // Out-of-order arrival fills the queue to exactly the cap...
  for (const std::uint32_t sn : {4u, 8u, 12u, 16u}) {
    rx.on_chunk(by_sn[sn], 0);
  }
  EXPECT_EQ(rx.stats().held_bytes_now, 64u);
  EXPECT_EQ(rx.stats().held_chunks_evicted, 0u);

  // ...and the next disordered chunk forces the flush: everything is
  // placed out of order (position-keyed, so bytes stay exact).
  rx.on_chunk(by_sn[20], 0);
  EXPECT_EQ(rx.stats().held_bytes_now, 0u);
  EXPECT_EQ(rx.stats().held_chunks_evicted, 4u);
  EXPECT_EQ(rx.stats().held_bytes_evicted, 64u);

  // The late head-of-line chunk still lands in its slot.
  rx.on_chunk(by_sn[0], 0);
  EXPECT_TRUE(rx.stream_complete(stream.size() / 4));
  EXPECT_TRUE(
      std::equal(stream.begin(), stream.end(), rx.app_data().begin()));

  // Evictions are observable: trace events with aux = 1 (placed out of
  // order) and registry counters.
  std::uint64_t evicted_events = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind == TraceEventKind::kChunkEvicted) {
      EXPECT_EQ(e.aux, 1u);
      ++evicted_events;
    }
  }
  EXPECT_EQ(evicted_events, 4u);
  const Counter* c = reg.find_counter("receiver.reorder.held_chunks_evicted");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 4u);
}

TEST(Eviction, UncappedReceiverNeverEvicts) {
  const auto stream = pattern(96);
  const auto tpdus = framed_tpdus(stream);
  Simulator sim;
  ChunkTransportReceiver rx(
      sim, base_config(stream.size(), DeliveryMode::kReorder));
  // Same disordered arrival as above, but no cap: classic reorder hold.
  std::vector<Chunk> data;
  for (const auto& g : tpdus) {
    for (const auto& c : g) {
      if (c.h.type == ChunkType::kData) data.push_back(c);
    }
  }
  for (std::size_t i = data.size(); i-- > 0;) rx.on_chunk(data[i], 0);
  EXPECT_EQ(rx.stats().held_chunks_evicted, 0u);
  EXPECT_EQ(rx.stats().tpdus_evicted, 0u);
  EXPECT_TRUE(
      std::equal(stream.begin(), stream.end(), rx.app_data().begin()));
}

TEST(Eviction, SharedHeldPeakGaugeReadsTheMaxOverReceivers) {
  // Every receiver of one mode shares receiver.<mode>.held_bytes_peak.
  // The first receiver peaks higher than the second; the gauge must
  // keep the higher peak instead of reading whichever receiver held
  // bytes last.
  const auto stream = pattern(96);
  const auto tpdus = framed_tpdus(stream);
  std::map<std::uint32_t, Chunk> by_sn;
  for (const auto& g : tpdus) {
    for (const auto& c : g) {
      if (c.h.type == ChunkType::kData) by_sn[c.h.conn.sn] = c;
    }
  }

  Simulator sim;
  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};
  ReceiverConfig rc = base_config(stream.size(), DeliveryMode::kReorder);
  rc.obs = &obs;
  ChunkTransportReceiver high(sim, rc);
  ChunkTransportReceiver low(sim, rc);

  // C.SN 0 never arrives, so both reorder queues hold what they get.
  for (const std::uint32_t sn : {4u, 8u, 12u, 16u}) {
    high.on_chunk(by_sn[sn], 0);
  }
  low.on_chunk(by_sn[4], 0);
  ASSERT_EQ(high.stats().held_bytes_peak, 64u);
  ASSERT_EQ(low.stats().held_bytes_peak, 16u);

  const Gauge* peak = reg.find_gauge("receiver.reorder.held_bytes_peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->value(), 64);
  const Gauge* held = reg.find_gauge("receiver.reorder.held_bytes");
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->value(), 80);
}

TEST(Eviction, ReassembleCapEvictsOldestHolderAndRecovers) {
  const auto stream = pattern(96);
  const auto tpdus = framed_tpdus(stream);
  ASSERT_EQ(tpdus.size(), 3u);

  Simulator sim;
  ReceiverConfig rc = base_config(stream.size(), DeliveryMode::kReassemble);
  rc.max_held_bytes = 64;
  ChunkTransportReceiver rx(sim, std::move(rc));

  auto feed_data = [&](std::size_t tpdu_index) {
    for (const auto& c : tpdus[tpdu_index]) {
      if (c.h.type == ChunkType::kData) rx.on_chunk(c, 0);
    }
  };
  auto feed_ed = [&](std::size_t tpdu_index) {
    for (const auto& c : tpdus[tpdu_index]) {
      if (c.h.type == ChunkType::kErrorDetection) rx.on_chunk(c, 0);
    }
  };

  // Distinct arrival times make "oldest holder" well-defined.
  sim.schedule_at(1 * kMillisecond, [&] { feed_data(0); });  // holds 32 B
  sim.schedule_at(2 * kMillisecond, [&] { feed_data(1); });  // holds 64 B
  sim.schedule_at(3 * kMillisecond, [&] {
    // 16 more bytes exceed the cap: TPDU 0 (oldest) is evicted whole.
    rx.on_chunk(tpdus[2][0], 0);
  });
  sim.run();

  EXPECT_EQ(rx.stats().tpdus_evicted, 1u);
  EXPECT_EQ(rx.stats().held_chunks_evicted, 2u);
  EXPECT_EQ(rx.stats().held_bytes_evicted, 32u);
  EXPECT_EQ(rx.stats().held_bytes_now, 48u);  // TPDU 1 + first of TPDU 2

  // Finish TPDUs 1 and 2, then retransmit the evicted TPDU 0 from
  // scratch: its state was dropped cleanly, so it completes too.
  feed_ed(1);
  rx.on_chunk(tpdus[2][1], 0);
  feed_ed(2);
  feed_data(0);
  feed_ed(0);
  EXPECT_EQ(rx.stats().tpdus_accepted, 3u);
  EXPECT_EQ(rx.stats().tpdus_rejected, 0u);
  EXPECT_EQ(rx.stats().held_bytes_now, 0u);
  EXPECT_TRUE(
      std::equal(stream.begin(), stream.end(), rx.app_data().begin()));
}

TEST(Eviction, OpenTpduCapPrefersFinishedTombstones) {
  const auto stream = pattern(96);
  const auto tpdus = framed_tpdus(stream);
  Simulator sim;
  ReceiverConfig rc = base_config(stream.size(), DeliveryMode::kImmediate);
  rc.max_open_tpdus = 2;
  ChunkTransportReceiver rx(sim, std::move(rc));

  // TPDU 0 completes: its entry becomes a finished tombstone.
  for (const auto& c : tpdus[0]) rx.on_chunk(c, 0);
  EXPECT_EQ(rx.stats().tpdus_accepted, 1u);

  // TPDU 1 opens (incomplete). The table is now at the cap, so TPDU
  // 2's first chunk must evict — and it must pick the tombstone, not
  // the live TPDU 1.
  rx.on_chunk(tpdus[1][0], 0);
  rx.on_chunk(tpdus[2][0], 0);
  EXPECT_EQ(rx.stats().tpdus_evicted, 1u);

  // Both live TPDUs still finish: the in-flight one lost no state.
  rx.on_chunk(tpdus[1][1], 0);
  for (const auto& c : tpdus[1]) {
    if (c.h.type == ChunkType::kErrorDetection) rx.on_chunk(c, 0);
  }
  rx.on_chunk(tpdus[2][1], 0);
  for (const auto& c : tpdus[2]) {
    if (c.h.type == ChunkType::kErrorDetection) rx.on_chunk(c, 0);
  }
  EXPECT_EQ(rx.stats().tpdus_accepted, 3u);
  EXPECT_EQ(rx.stats().tpdus_rejected, 0u);
  EXPECT_TRUE(rx.stream_complete(stream.size() / 4));
  EXPECT_TRUE(
      std::equal(stream.begin(), stream.end(), rx.app_data().begin()));
}

TEST(Eviction, OpenTpduCapPrefersIncompleteOverCompleteUndelivered) {
  // A complete-but-undelivered TPDU (every data chunk arrived, ED chunk
  // still in flight) is one chunk away from acceptance: evicting it
  // throws away a full retransmission's worth of progress. The open-cap
  // victim ranking must prefer an INCOMPLETE TPDU — even a younger one.
  const auto stream = pattern(96);
  const auto tpdus = framed_tpdus(stream);
  Simulator sim;
  ReceiverConfig rc = base_config(stream.size(), DeliveryMode::kImmediate);
  rc.max_open_tpdus = 2;
  ChunkTransportReceiver rx(sim, std::move(rc));

  // TPDU 0 (oldest): all data placed, awaiting only its ED chunk.
  sim.schedule_at(1 * kMillisecond, [&] {
    for (const auto& c : tpdus[0]) {
      if (c.h.type == ChunkType::kData) rx.on_chunk(c, 0);
    }
  });
  // TPDU 1 (younger): one chunk, incomplete.
  sim.schedule_at(2 * kMillisecond, [&] { rx.on_chunk(tpdus[1][0], 0); });
  // TPDU 2's first chunk forces an eviction at the cap.
  sim.schedule_at(3 * kMillisecond, [&] { rx.on_chunk(tpdus[2][0], 0); });
  sim.run();
  EXPECT_EQ(rx.stats().tpdus_evicted, 1u);

  // The ED chunk arrives late: TPDU 0 must still be there to accept it.
  for (const auto& c : tpdus[0]) {
    if (c.h.type == ChunkType::kErrorDetection) rx.on_chunk(c, 0);
  }
  EXPECT_EQ(rx.stats().tpdus_accepted, 1u);
  EXPECT_EQ(rx.stats().tpdus_rejected, 0u);
}

TEST(Eviction, OpenTpduCapBoundsStateUnderTpduFlood) {
  // 32 TPDUs open and never finish (a hostile sender, or a long loss
  // tail). With the cap at 4, the table must keep evicting — the
  // receiver degrades instead of growing without bound.
  Simulator sim;
  ReceiverConfig rc = base_config(32 * 16, DeliveryMode::kImmediate);
  rc.max_open_tpdus = 4;
  ChunkTransportReceiver rx(sim, std::move(rc));

  for (std::uint32_t id = 1; id <= 32; ++id) {
    Chunk c;
    c.h.type = ChunkType::kData;
    c.h.size = 4;
    c.h.len = 4;
    c.h.conn = {1, (id - 1) * 4, false};
    c.h.tpdu = {id, (id - 1) * 4, false};  // no stop: stays open
    c.h.xpdu = {1, (id - 1) * 4, false};
    c.payload.assign(16, static_cast<std::uint8_t>(id));
    rx.on_chunk(std::move(c), 0);
  }
  EXPECT_EQ(rx.stats().tpdus_evicted, 28u);  // 32 offered, 4 retained
  // Immediate mode placed every payload before its TPDU was dropped.
  EXPECT_EQ(rx.elements_delivered(), 32u * 4u);
}

TEST(Eviction, HundredThousandFlowTableShedsInBoundedWork) {
  // Scale regression for the flat-table refactor: with 100k open TPDUs
  // at the cap, each further arrival evicts exactly one victim, and the
  // work done to FIND victims must be O(evicted) — queue-head pops and
  // a walk that stops at the first incomplete entry — never a scan of
  // the 100k live entries. The old std::map implementation scanned the
  // whole table per eviction (O(live × evicted) here, ~10^7 steps).
  constexpr std::uint32_t kLive = 100'000;
  constexpr std::uint32_t kExtra = 100;
  Simulator sim;
  ReceiverConfig rc = base_config(16, DeliveryMode::kImmediate);
  rc.max_open_tpdus = kLive;
  ChunkTransportReceiver rx(sim, std::move(rc));

  auto open_chunk = [](std::uint32_t id) {
    Chunk c;
    c.h.type = ChunkType::kData;
    c.h.size = 4;
    c.h.len = 4;
    // Every TPDU maps to the same (tiny) app range: this test is about
    // table work, not placement.
    c.h.conn = {1, 0, false};
    c.h.tpdu = {id, 0, false};  // no stop: stays open and incomplete
    c.h.xpdu = {1, 0, false};
    c.payload.assign(16, static_cast<std::uint8_t>(id));
    return c;
  };

  for (std::uint32_t id = 1; id <= kLive; ++id) {
    rx.on_chunk(open_chunk(id), 0);
  }
  ASSERT_EQ(rx.open_tpdus(), kLive);
  EXPECT_EQ(rx.stats().evict_scan_steps, 0u);

  for (std::uint32_t id = kLive + 1; id <= kLive + kExtra; ++id) {
    rx.on_chunk(open_chunk(id), 0);
  }
  EXPECT_EQ(rx.open_tpdus(), kLive);
  EXPECT_EQ(rx.stats().tpdus_evicted, kExtra);
  // One step per eviction: the creation-order walk's head entry is
  // itself incomplete, so every victim search terminates immediately.
  EXPECT_EQ(rx.stats().evict_scan_steps, kExtra);
  // Structural footprint stays flat-table sized (tens of bytes per
  // TPDU entry), nowhere near node-per-entry map territory.
  EXPECT_LT(rx.state_bytes(), kLive * 512u);
}

}  // namespace
}  // namespace chunknet
