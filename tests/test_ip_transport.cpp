// Tests for the IP-fragmentation baseline transport: wire codec,
// in-network re-fragmentation, end-to-end delivery, CRC gating, and the
// double-bus-crossing behaviour the chunk design eliminates.
#include "src/baselines/ip_transport.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/netsim/link.hpp"
#include "src/netsim/simulator.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 40503u) >> 7);
  }
  return v;
}

TEST(IpFragmentCodec, RoundTrip) {
  const std::vector<std::uint8_t> body{1, 2, 3, 4, 5};
  const auto pkt = encode_ip_fragment(42, 1000, 5000, true, body);
  EXPECT_EQ(pkt.size(), kIpFragHeaderBytes + body.size());
  const auto f = decode_ip_fragment(pkt);
  ASSERT_TRUE(f.ok);
  EXPECT_EQ(f.dgram_id, 42u);
  EXPECT_EQ(f.offset, 1000u);
  EXPECT_EQ(f.stream_base, 5000u);
  EXPECT_TRUE(f.more_fragments);
  EXPECT_TRUE(std::equal(body.begin(), body.end(), f.body.begin()));
}

TEST(IpFragmentCodec, RejectsTruncation) {
  auto pkt = encode_ip_fragment(1, 0, 0, false, std::vector<std::uint8_t>(10));
  pkt.pop_back();
  EXPECT_FALSE(decode_ip_fragment(pkt).ok);
  pkt.resize(4);
  EXPECT_FALSE(decode_ip_fragment(pkt).ok);
}

TEST(IpFragmentRelay, RefragmentsOversize) {
  const auto pkt =
      encode_ip_fragment(7, 0, 0, false, pattern(1000));
  RelayStats stats;
  auto relay = ip_fragment_relay(&stats);
  const auto out = relay(pkt, 300);
  ASSERT_GT(out.size(), 1u);
  std::size_t total = 0;
  std::uint32_t expected_offset = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_LE(out[i].size(), 300u);
    const auto f = decode_ip_fragment(out[i]);
    ASSERT_TRUE(f.ok);
    EXPECT_EQ(f.offset, expected_offset);
    EXPECT_EQ(f.more_fragments, i + 1 < out.size());
    expected_offset += static_cast<std::uint32_t>(f.body.size());
    total += f.body.size();
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_GT(stats.splits, 0u);
}

TEST(IpFragmentRelay, PreservesMoreFragmentsOnInnerPieces) {
  // Re-fragmenting a middle fragment: every piece must keep MF set.
  const auto pkt = encode_ip_fragment(7, 500, 0, true, pattern(600));
  auto relay = ip_fragment_relay();
  const auto out = relay(pkt, 200);
  ASSERT_GT(out.size(), 1u);
  for (const auto& p : out) {
    EXPECT_TRUE(decode_ip_fragment(p).more_fragments);
  }
}

TEST(IpFragmentRelay, PassThroughWhenFits) {
  const auto pkt = encode_ip_fragment(7, 0, 0, false, pattern(100));
  auto relay = ip_fragment_relay();
  const auto out = relay(pkt, 1500);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], pkt);
}

struct IpHarness {
  Simulator sim;
  Rng rng{77};
  std::unique_ptr<IpFragTransportReceiver> receiver;
  std::unique_ptr<IpFragTransportSender> sender;
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;

  IpHarness(LinkConfig fwd_cfg, std::size_t stream_bytes,
            std::size_t tpdu_bytes = 4096,
            std::size_t pool_bytes = 1 << 20, ObsContext* obs = nullptr) {
    IpReceiverConfig rc;
    rc.app_buffer_bytes = stream_bytes;
    rc.reassembly_pool_bytes = pool_bytes;
    rc.obs = obs;
    rc.send_control = [this](std::vector<std::uint8_t> body) {
      SimPacket sp;
      sp.bytes = std::move(body);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      reverse->send(std::move(sp));
    };
    receiver = std::make_unique<IpFragTransportReceiver>(sim, std::move(rc));
    forward = std::make_unique<Link>(sim, fwd_cfg, *receiver, rng);

    IpSenderConfig sc;
    sc.tpdu_bytes = tpdu_bytes;
    sc.mtu = fwd_cfg.mtu;
    sc.retransmit_timeout = 20 * kMillisecond;
    sc.obs = obs;
    sc.send_packet = [this](std::vector<std::uint8_t> bytes) {
      SimPacket sp;
      sp.bytes = std::move(bytes);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      forward->send(std::move(sp));
    };
    sender = std::make_unique<IpFragTransportSender>(sim, std::move(sc));
    LinkConfig rev;
    reverse = std::make_unique<Link>(sim, rev, *sender, rng);
  }
};

TEST(IpTransportE2E, CleanNetworkDelivers) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  const auto stream = pattern(32 * 1024);
  IpHarness h(cfg, stream.size());
  h.sender->send_stream(stream);
  h.sim.run();

  EXPECT_TRUE(h.sender->all_acked());
  EXPECT_EQ(h.receiver->bytes_delivered(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
  EXPECT_EQ(h.receiver->stats().datagrams_bad_crc, 0u);
}

TEST(IpTransportE2E, EveryByteCrossesBusTwice) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  const auto stream = pattern(32 * 1024);
  IpHarness h(cfg, stream.size());
  h.sender->send_stream(stream);
  h.sim.run();
  // Pool crossing: payload + CRC trailers; placement crossing: payload.
  const std::uint64_t trailers = 4 * (32 * 1024 / 4096);
  EXPECT_EQ(h.receiver->stats().bus_bytes, 2u * stream.size() + trailers);
}

TEST(IpTransportE2E, LossRecoveredByDatagramRetransmission) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  cfg.loss_rate = 0.05;
  const auto stream = pattern(32 * 1024);
  IpHarness h(cfg, stream.size());
  h.sender->send_stream(stream);
  h.sim.run(20 * kSecond);

  EXPECT_EQ(h.receiver->bytes_delivered(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
  // Kent & Mogul's point: one lost fragment costs a whole datagram.
  EXPECT_GT(h.sender->stats().retransmissions, 0u);
}

TEST(IpTransportE2E, DisorderedFragmentsReassembleCorrectly) {
  LinkConfig cfg;
  cfg.mtu = 576;
  cfg.lanes = 8;
  cfg.lane_skew = 300 * kMicrosecond;
  const auto stream = pattern(32 * 1024);
  IpHarness h(cfg, stream.size());
  h.sender->send_stream(stream);
  h.sim.run();
  EXPECT_EQ(h.receiver->bytes_delivered(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
}

TEST(IpTransportE2E, CorruptionDetectedByCrcAndNakked) {
  struct Corruptor final : public PacketSink {
    PacketSink* inner{nullptr};
    Rng rng{3};
    int count{0};
    void on_packet(SimPacket pkt) override {
      if (pkt.bytes.size() > 100 && rng.chance(0.1) && count < 5) {
        pkt.bytes[kIpFragHeaderBytes + 10] ^= 0xFF;
        ++count;
      }
      inner->on_packet(std::move(pkt));
    }
  };

  LinkConfig cfg;
  cfg.mtu = 1500;
  const auto stream = pattern(32 * 1024);
  IpHarness h(cfg, stream.size());
  Corruptor corruptor;
  corruptor.inner = h.receiver.get();
  // Re-point the forward link at the corruptor.
  h.forward = std::make_unique<Link>(h.sim, cfg, corruptor, h.rng);
  h.sender->send_stream(stream);
  h.sim.run(20 * kSecond);

  EXPECT_GT(corruptor.count, 0);
  EXPECT_GT(h.receiver->stats().datagrams_bad_crc, 0u);
  EXPECT_EQ(h.receiver->bytes_delivered(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
}

TEST(IpTransportE2E, TinyPoolLocksUpUnderDisorder) {
  LinkConfig cfg;
  cfg.mtu = 576;
  cfg.lanes = 8;
  cfg.lane_skew = 2 * kMillisecond;  // severe skew
  const auto stream = pattern(64 * 1024);
  IpHarness h(cfg, stream.size(), /*tpdu_bytes=*/8192,
              /*pool_bytes=*/4096);  // pool smaller than one datagram's worth in flight
  h.sender->send_stream(stream);
  h.sim.run(30 * kSecond);
  EXPECT_GT(h.receiver->stats().pool_lockups, 0u);
}

// The ip_sender.* / ip_receiver.* counters are the baseline's Stats as
// the registry sees them, during the run and after both ends are gone.
TEST(ObsBindingIp, CountersEqualStatsAndOutliveTheEndpoints) {
  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};
  LinkConfig cfg;
  cfg.mtu = 576;
  cfg.loss_rate = 0.05;
  const auto stream = pattern(32 * 1024);
  IpHarness h(cfg, stream.size(), 4096, 1 << 20, &obs);
  h.sender->send_stream(stream);
  h.sim.run(20 * kSecond);
  ASSERT_EQ(h.receiver->bytes_delivered(), stream.size());
  EXPECT_GT(h.sender->stats().retransmissions, 0u);

  using SS = IpFragTransportSender::Stats;
  const std::vector<std::pair<std::string, std::uint64_t SS::*>> sent = {
      {"ip_sender.datagrams_sent", &SS::datagrams_sent},
      {"ip_sender.retransmissions", &SS::retransmissions},
      {"ip_sender.gave_up", &SS::gave_up},
      {"ip_sender.packets_sent", &SS::packets_sent},
      {"ip_sender.bytes_sent", &SS::bytes_sent},
  };
  using RS = IpFragTransportReceiver::Stats;
  const std::vector<std::pair<std::string, std::uint64_t RS::*>> recv = {
      {"ip_receiver.fragments", &RS::fragments},
      {"ip_receiver.malformed", &RS::malformed},
      {"ip_receiver.datagrams_ok", &RS::datagrams_ok},
      {"ip_receiver.datagrams_bad_crc", &RS::datagrams_bad_crc},
      {"ip_receiver.bus_bytes", &RS::bus_bytes},
  };
  std::vector<std::pair<std::string, std::uint64_t>> want;
  for (const auto& [name, field] : sent) {
    want.emplace_back(name, h.sender->stats().*field);
  }
  for (const auto& [name, field] : recv) {
    want.emplace_back(name, h.receiver->stats().*field);
  }
  want.emplace_back("ip_receiver.bytes_delivered",
                    h.receiver->bytes_delivered());
  for (const auto& [name, value] : want) {
    const Counter* c = reg.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value(), value) << name;
  }

  h.sender.reset();
  h.receiver.reset();
  for (const auto& [name, value] : want) {
    EXPECT_EQ(reg.find_counter(name)->value(), value) << name;
  }
}

}  // namespace
}  // namespace chunknet
