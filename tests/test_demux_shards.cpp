// The sharded connection plane: connection-id-sharded demultiplexing,
// bounded refused-connection memory (TTL + FIFO cap), timer-wheel
// driven idle eviction, and batched governor admission leases.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/chunk/codec.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/transport/demux.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {
namespace {

ReceiverConfig receiver_config(std::uint32_t conn_id, std::size_t bytes) {
  ReceiverConfig rc;
  rc.connection_id = conn_id;
  rc.element_size = 4;
  rc.app_buffer_bytes = bytes;
  return rc;
}

std::vector<Chunk> chunks_for(std::uint32_t conn_id,
                              std::span<const std::uint8_t> stream) {
  FramerOptions fo;
  fo.connection_id = conn_id;
  fo.element_size = 4;
  fo.tpdu_elements = static_cast<std::uint32_t>(stream.size() / 4);
  fo.xpdu_elements = 8;
  fo.max_chunk_elements = 8;
  return frame_stream(stream, fo);
}

SimPacket wrap(Simulator& sim, std::vector<Chunk> chunks) {
  SimPacket pkt;
  pkt.bytes = encode_packet(chunks, 65535);
  pkt.id = sim.next_packet_id();
  pkt.created_at = sim.now();
  return pkt;
}

SimPacket open_packet(std::uint32_t id) {
  ConnectionOpen open;
  open.connection_id = id;
  SimPacket sp;
  sp.bytes = encode_packet(std::vector<Chunk>{make_signal_chunk(open)}, 1500);
  return sp;
}

TEST(DemuxShards, ShardChoiceIsAPureFunctionOfTheLabel) {
  DemuxConfig dc;
  dc.shards = 8;
  ChunkDemultiplexer demux(dc);
  EXPECT_EQ(demux.shard_count(), 8u);
  std::set<std::uint32_t> used;
  for (std::uint32_t id = 1; id <= 256; ++id) {
    const std::uint32_t s = demux.shard_of(id);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, demux.shard_of(id));  // stable
    used.insert(s);
  }
  // Sequential ids must spread: the mixed hash, not id % shards.
  EXPECT_EQ(used.size(), 8u);
}

TEST(DemuxShards, ShardCountRoundsUpToPowerOfTwo) {
  DemuxConfig dc;
  dc.shards = 5;
  ChunkDemultiplexer demux(dc);
  EXPECT_EQ(demux.shard_count(), 8u);
}

TEST(DemuxShards, DataRoutesOnlyThroughTheOwningShard) {
  Simulator sim;
  DemuxConfig dc;
  dc.shards = 4;
  ChunkDemultiplexer demux(dc);

  std::vector<std::unique_ptr<ChunkTransportReceiver>> rxs;
  constexpr std::uint32_t kConns = 64;
  for (std::uint32_t id = 1; id <= kConns; ++id) {
    rxs.push_back(std::make_unique<ChunkTransportReceiver>(
        sim, receiver_config(id, 64)));
    demux.attach(id, *rxs.back());
  }
  EXPECT_EQ(demux.flows(), kConns);

  // Chunks from different-shard connections share packets; each chunk
  // must land with its own receiver via its own shard.
  std::uint64_t total_chunks = 0;
  for (std::uint32_t id = 1; id <= kConns; ++id) {
    std::vector<std::uint8_t> stream(64, static_cast<std::uint8_t>(id));
    auto chunks = chunks_for(id, stream);
    total_chunks += chunks.size();
    demux.on_packet(wrap(sim, std::move(chunks)));
  }
  for (std::uint32_t id = 1; id <= kConns; ++id) {
    EXPECT_TRUE(rxs[id - 1]->stream_complete(16)) << id;
    EXPECT_EQ(rxs[id - 1]->stats().foreign_chunks, 0u) << id;
  }
  // Per-shard counters cover the traffic exactly — no chunk was
  // double-routed or counted against a foreign shard.
  std::uint64_t per_shard_sum = 0;
  std::uint32_t shards_hit = 0;
  for (std::uint32_t s = 0; s < demux.shard_count(); ++s) {
    per_shard_sum += demux.shard_stats(s).data_chunks_routed;
    if (demux.shard_stats(s).data_chunks_routed > 0) ++shards_hit;
    EXPECT_EQ(demux.shard_stats(s).unknown_connection, 0u);
  }
  EXPECT_EQ(per_shard_sum, total_chunks);
  EXPECT_EQ(demux.stats().data_chunks_routed, total_chunks);
  EXPECT_GT(shards_hit, 1u);
}

TEST(DemuxShards, ConnectionOpenAndRefusalLandInTheOwningShard) {
  GovernorConfig gc;
  gc.soft_watermark_bytes = 48 * 1024;
  gc.hard_watermark_bytes = 64 * 1024;
  ResourceGovernor gov(gc);

  Simulator sim;
  std::vector<std::unique_ptr<ChunkTransportReceiver>> receivers;
  DemuxConfig dc;
  dc.shards = 4;
  ChunkDemultiplexer demux(dc);
  DemuxAdmissionConfig adm;
  adm.governor = &gov;
  adm.reserve_bytes = 48 * 1024;
  adm.open_connection =
      [&](const ConnectionOpen& open) -> ChunkTransportReceiver* {
    receivers.push_back(std::make_unique<ChunkTransportReceiver>(
        sim, receiver_config(open.connection_id, 1024)));
    return receivers.back().get();
  };
  demux.configure_admission(std::move(adm));

  demux.on_packet(open_packet(5));  // fits
  demux.on_packet(open_packet(6));  // would exceed the hard watermark

  const std::uint32_t s5 = demux.shard_of(5);
  const std::uint32_t s6 = demux.shard_of(6);
  EXPECT_EQ(demux.shard_stats(s5).connections_admitted, 1u);
  EXPECT_EQ(demux.shard_stats(s6).connections_refused, 1u);
  for (std::uint32_t s = 0; s < demux.shard_count(); ++s) {
    if (s != s5) EXPECT_EQ(demux.shard_stats(s).connections_admitted, 0u);
    if (s != s6) EXPECT_EQ(demux.shard_stats(s).connections_refused, 0u);
  }
  EXPECT_EQ(demux.stats().connections_admitted, 1u);
  EXPECT_EQ(demux.stats().connections_refused, 1u);
}

TEST(ObsBindingDemux, DeclinedOpenCountsAsRefusedNotAdmitted) {
  // The governor has headroom but the endpoint declines connection 6:
  // the demux takes the admission back and counts a refusal. The
  // registry reads the shard Stats, so it shows the net counts too,
  // also after the demux is gone.
  GovernorConfig gc;
  gc.soft_watermark_bytes = 1 << 20;
  gc.hard_watermark_bytes = 1 << 20;
  ResourceGovernor gov(gc);

  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};
  Simulator sim;
  std::vector<std::unique_ptr<ChunkTransportReceiver>> receivers;
  DemuxConfig dc;
  dc.shards = 1;
  auto demux = std::make_unique<ChunkDemultiplexer>(dc);
  demux->set_obs(&obs, &sim);
  DemuxAdmissionConfig adm;
  adm.governor = &gov;
  adm.reserve_bytes = 16 * 1024;
  adm.open_connection =
      [&](const ConnectionOpen& open) -> ChunkTransportReceiver* {
    if (open.connection_id == 6) return nullptr;
    receivers.push_back(std::make_unique<ChunkTransportReceiver>(
        sim, receiver_config(open.connection_id, 1024)));
    return receivers.back().get();
  };
  demux->configure_admission(std::move(adm));

  demux->on_packet(open_packet(5));  // admitted
  demux->on_packet(open_packet(6));  // admitted by the governor, declined
  const auto st = demux->stats();
  EXPECT_EQ(st.connections_admitted, 1u);
  EXPECT_EQ(st.connections_refused, 1u);
  EXPECT_EQ(reg.find_counter("demux.shard0.admitted")->value(), 1u);
  EXPECT_EQ(reg.find_counter("demux.shard0.refused")->value(), 1u);
  EXPECT_EQ(gov.stats().reserved_now, 16u * 1024u);  // only 5 holds one

  demux.reset();
  EXPECT_EQ(reg.find_counter("demux.shard0.admitted")->value(), 1u);
  EXPECT_EQ(reg.find_counter("demux.shard0.refused")->value(), 1u);
}

TEST(DemuxShards, StatsSnapshotsAreIndependentValues) {
  // Each stats() call aggregates into its own value: a snapshot taken
  // before traffic keeps reading the counts of that moment.
  Simulator sim;
  ChunkDemultiplexer demux(DemuxConfig{});
  const std::vector<std::uint8_t> stream(64, 0x5A);
  const auto& before = demux.stats();
  demux.on_packet(wrap(sim, chunks_for(9, stream)));
  const auto& after = demux.stats();
  EXPECT_EQ(before.packets, 0u);
  EXPECT_EQ(before.unknown_connection, 0u);
  EXPECT_EQ(after.packets, 1u);
  EXPECT_GT(after.unknown_connection, 0u);
}

TEST(DemuxShards, RefusedTableStaysBoundedUnderOpenRefuseChurn) {
  // The regression for the unbounded-refused_-map bug: a governor with
  // no headroom refuses EVERY open; hammering distinct connection ids
  // must not grow per-shard memory past the configured cap.
  GovernorConfig gc;
  gc.soft_watermark_bytes = 1;
  gc.hard_watermark_bytes = 1;  // nothing fits: all opens refused
  ResourceGovernor gov(gc);

  Simulator sim;
  DemuxConfig dc;
  dc.shards = 2;
  dc.max_refused = 128;
  ChunkDemultiplexer demux(dc);
  DemuxAdmissionConfig adm;
  adm.governor = &gov;
  adm.reserve_bytes = 16 * 1024;
  adm.open_connection =
      [](const ConnectionOpen&) -> ChunkTransportReceiver* {
    ADD_FAILURE() << "nothing should be admitted";
    return nullptr;
  };
  demux.configure_admission(std::move(adm));

  constexpr std::uint32_t kChurn = 20000;
  for (std::uint32_t id = 1; id <= kChurn; ++id) {
    demux.on_packet(open_packet(id));
  }
  EXPECT_EQ(demux.stats().connections_refused, kChurn);
  EXPECT_LE(demux.refused_size(),
            static_cast<std::size_t>(dc.max_refused) * demux.shard_count());
  // Forgotten refusals were counted out, not leaked.
  EXPECT_EQ(demux.stats().refused_expired + demux.refused_size(), kChurn);
  // Structural memory stays in cap territory, nowhere near 20k entries.
  EXPECT_LT(demux.state_bytes(), 256u * 1024u);
}

TEST(DemuxShards, RefusalExpiresOnTheWheelAndRetryIsReevaluated) {
  GovernorConfig gc;
  gc.soft_watermark_bytes = 48 * 1024;
  gc.hard_watermark_bytes = 64 * 1024;
  ResourceGovernor gov(gc);

  Simulator sim;
  SimTimerWheel wheel(sim, {kMillisecond});
  std::vector<std::unique_ptr<ChunkTransportReceiver>> receivers;
  std::vector<ConnectionRefused> refusals;
  DemuxConfig dc;
  dc.refused_ttl = 50 * kMillisecond;
  dc.timers = &wheel;
  auto demux = std::make_unique<ChunkDemultiplexer>(dc);
  DemuxAdmissionConfig adm;
  adm.governor = &gov;
  adm.reserve_bytes = 48 * 1024;
  adm.open_connection =
      [&](const ConnectionOpen& open) -> ChunkTransportReceiver* {
    receivers.push_back(std::make_unique<ChunkTransportReceiver>(
        sim, receiver_config(open.connection_id, 1024)));
    return receivers.back().get();
  };
  adm.send_refusal = [&refusals](Chunk c) {
    refusals.push_back(*parse_connection_refused(c));
  };
  demux->configure_admission(std::move(adm));

  demux->on_packet(open_packet(5));  // admitted: 48K of 64K
  demux->on_packet(open_packet(6));  // refused: would need 96K
  ASSERT_EQ(refusals.size(), 1u);
  EXPECT_EQ(demux->refused_size(), 1u);

  // Within the TTL a duplicate open is dropped silently.
  demux->on_packet(open_packet(6));
  EXPECT_EQ(refusals.size(), 1u);

  // Free the headroom, run past the retry-hint deadline: the wheel
  // sweeps the refusal out, and the retry gets a FRESH decision.
  gov.unbind_client(5);
  demux->detach(5);
  sim.run(sim.now() + 200 * kMillisecond);
  EXPECT_EQ(demux->refused_size(), 0u);
  EXPECT_EQ(demux->stats().refused_expired, 1u);
  demux->on_packet(open_packet(6));
  EXPECT_EQ(receivers.size(), 2u);  // admitted this time
  EXPECT_EQ(demux->stats().connections_admitted, 2u);
}

TEST(DemuxShards, IdleConnectionsEvictLruFirstActiveSurvive) {
  Simulator sim;
  SimTimerWheel wheel(sim, {kMillisecond});
  std::vector<std::uint32_t> evicted;
  DemuxConfig dc;
  dc.shards = 2;
  dc.idle_timeout = 100 * kMillisecond;
  dc.timers = &wheel;
  dc.on_idle_evict = [&](std::uint32_t id, ChunkTransportReceiver*) {
    evicted.push_back(id);
  };
  ChunkDemultiplexer demux(dc);

  std::vector<std::unique_ptr<ChunkTransportReceiver>> rxs;
  for (std::uint32_t id = 1; id <= 8; ++id) {
    rxs.push_back(std::make_unique<ChunkTransportReceiver>(
        sim, receiver_config(id, 64)));
    demux.attach(id, *rxs.back());
  }

  // Keep even ids warm with periodic traffic; odd ids go silent.
  for (int round = 0; round < 6; ++round) {
    sim.schedule_at(static_cast<SimTime>(round) * 40 * kMillisecond, [&] {
      for (std::uint32_t id = 2; id <= 8; id += 2) {
        std::vector<std::uint8_t> stream(16, 1);
        demux.on_packet(wrap(sim, chunks_for(id, stream)));
      }
    });
  }
  // Last warm traffic lands at t=200ms; check at 250ms, when every odd
  // id has been idle since t=0 (> timeout) but the even ids are only
  // 50ms idle.
  sim.run(250 * kMillisecond);

  EXPECT_EQ(demux.stats().idle_evicted, 4u);
  ASSERT_EQ(evicted.size(), 4u);
  for (const std::uint32_t id : evicted) EXPECT_EQ(id % 2, 1u) << id;
  EXPECT_EQ(demux.flows(), 4u);
  for (std::uint32_t id = 2; id <= 8; id += 2) {
    EXPECT_EQ(demux.shard_stats(demux.shard_of(id)).unknown_connection, 0u);
  }

  // Long after the last traffic, the warm ones idle out too.
  sim.run(kSecond);
  EXPECT_EQ(demux.flows(), 0u);
  EXPECT_EQ(demux.stats().idle_evicted, 8u);
}

TEST(DemuxShards, LeaseBatchedAdmissionAmortizesGovernorTraffic) {
  GovernorConfig gc;
  gc.soft_watermark_bytes = 8 * 1024 * 1024;
  gc.hard_watermark_bytes = 16 * 1024 * 1024;
  ResourceGovernor gov(gc);

  DemuxConfig dc;
  dc.shards = 4;
  auto demux = std::make_unique<ChunkDemultiplexer>(dc);
  DemuxAdmissionConfig adm;
  adm.governor = &gov;
  adm.reserve_bytes = 16 * 1024;
  adm.lease_batch = 32;
  demux->configure_admission(std::move(adm));

  constexpr std::uint32_t kConns = 400;
  for (std::uint32_t id = 1; id <= kConns; ++id) {
    EXPECT_TRUE(demux->try_admit(id)) << id;
  }
  EXPECT_EQ(demux->stats().connections_admitted, kConns);
  // Governor round-trips are batched: far fewer than one per admit
  // (at most ceil(kConns/32) + one in-flight batch per shard).
  EXPECT_LE(demux->stats().lease_acquires,
            static_cast<std::uint64_t>(kConns / 32 + demux->shard_count()));
  // The reserve covers every admitted connection (plus unconsumed
  // lease slots).
  EXPECT_GE(gov.stats().reserved_now,
            static_cast<std::uint64_t>(kConns) * 16 * 1024);

  // Tearing the demux down returns every leased byte.
  demux.reset();
  EXPECT_EQ(gov.stats().reserved_now, 0u);
}

TEST(DemuxShards, LeaseFallsBackToSingleSlotNearTheWatermark) {
  GovernorConfig gc;
  gc.soft_watermark_bytes = 40 * 1024;
  gc.hard_watermark_bytes = 48 * 1024;  // room for 3 reserves of 16K
  ResourceGovernor gov(gc);

  ChunkDemultiplexer demux;  // single shard: deterministic lease order
  DemuxAdmissionConfig adm;
  adm.governor = &gov;
  adm.reserve_bytes = 16 * 1024;
  adm.lease_batch = 32;  // a full batch (512K) can never fit
  demux.configure_admission(std::move(adm));

  EXPECT_TRUE(demux.try_admit(1));
  EXPECT_TRUE(demux.try_admit(2));
  EXPECT_TRUE(demux.try_admit(3));
  EXPECT_FALSE(demux.try_admit(4));  // watermark reached
  EXPECT_EQ(demux.stats().connections_admitted, 3u);
  EXPECT_EQ(demux.stats().connections_refused, 1u);
  // Batching never admitted MORE than the legacy path would have: the
  // reserve stayed within the hard watermark throughout.
  EXPECT_LE(gov.stats().reserved_now, gc.hard_watermark_bytes);
}

}  // namespace
}  // namespace chunknet
