// sim_multipath_reorder: one chunk connection sprayed over four skewed,
// bursty-lossy paths, re-enveloped by a router down to a small egress
// MTU, with feedback on a reverse link — all in the discrete-event
// simulator, no sockets.
//
// The benchmark owns every seam it measures through: the sender's
// send_packet and the receiver's send_control callbacks (datagram and
// byte counts), a wrapped chunk_relay (chunk.relay), and two PacketSink
// shims — one in front of the receiver that decodes each packet
// (chunk.decode) and hands the views to on_chunk_view (transport.rx),
// the same ingest path the UDP session uses, and one in front of the
// sender's feedback input (transport.feedback).
//
// A run cycles through kConnections seeded connections. Their
// simulated-time results are deterministic, so each replay of a
// connection must reproduce its first outcome exactly; a difference is
// counted as a failure.
#include <algorithm>
#include <cstring>
#include <memory>
#include <set>

#include "src/chunk/codec.hpp"
#include "src/common/rng.hpp"
#include "src/netsim/multipath.hpp"
#include "src/netsim/router.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace chunknet;

namespace {

constexpr std::uint32_t kConn = 7;
constexpr std::uint16_t kElem = 4;
constexpr std::size_t kTpduBytes = 4096;
constexpr std::size_t kStreamBytes = 256 * 1024;
constexpr std::size_t kPaths = 4;
constexpr std::size_t kEgressMtu = 576;
constexpr std::size_t kConnections = 1024;
constexpr SimTime kSimDeadline = 120 * kSecond;

/// A PacketSink that forwards to a callback.
class SinkShim final : public PacketSink {
 public:
  explicit SinkShim(std::function<void(SimPacket)> fn) : fn_(std::move(fn)) {}
  void on_packet(SimPacket pkt) override { fn_(std::move(pkt)); }

 private:
  std::function<void(SimPacket)> fn_;
};

std::vector<MultipathPathConfig> make_paths() {
  std::vector<MultipathPathConfig> paths(kPaths);
  for (std::size_t i = 0; i < kPaths; ++i) {
    paths[i].link.rate_bps = 24e6;
    paths[i].link.prop_delay = kMillisecond + i * 1500 * kMicrosecond;
    paths[i].link.jitter = 200 * kMicrosecond;
    paths[i].link.mtu = 1500;
    paths[i].faults = GilbertElliottConfig::with_mean_loss(0.01, 3.0);
  }
  return paths;
}

/// What one connection produced in simulated time; replays must match.
struct Outcome {
  SimTime done_at{0};
  std::uint64_t events{0};
  std::uint64_t data_datagrams{0};
  std::uint64_t feedback_datagrams{0};
  std::uint64_t retransmissions{0};
  bool operator==(const Outcome&) const = default;
};

struct Rig {
  Simulator sim;
  Rng rng;
  RelayStats relay_stats;
  std::unique_ptr<ChunkTransportReceiver> receiver;
  std::unique_ptr<SinkShim> rx_sink;
  std::unique_ptr<Link> egress;
  std::unique_ptr<Router> router;
  std::unique_ptr<MultipathScheduler> mpath;
  std::unique_ptr<ChunkTransportSender> sender;
  std::unique_ptr<SinkShim> fb_sink;
  std::unique_ptr<Link> reverse;
  std::vector<ChunkView> views;
  SimTime done_at{0};
  Phase& ph;

  Rig(Phase& phase, std::uint64_t seed) : rng(seed), ph(phase) {
    ReceiverConfig rc;
    rc.connection_id = kConn;
    rc.element_size = kElem;
    rc.app_buffer_bytes = kStreamBytes;
    rc.record_latency_samples = false;
    // Path skew spreads one TPDU over ~5 ms; a gap still open 10 ms
    // after the first chunk is loss, and is NAKed selectively.
    rc.gap_nak_delay = 10 * kMillisecond;
    rc.grant_credit = true;
    rc.credit_window_bytes = 128 * 1024;
    rc.credit_tpdu_slots = 32;
    rc.on_tpdu = [this](const TpduOutcome&) {
      if (done_at == 0 &&
          receiver->stream_complete(kStreamBytes / kElem)) {
        done_at = sim.now();
      }
    };
    rc.send_control = [this](Chunk ctrl) {
      SimPacket sp;
      sp.bytes = encode_packet(std::span<const Chunk>(&ctrl, 1), 1500);
      ++ph.feedback_datagrams;
      ++ph.datagrams;
      ph.wire_bytes += sp.bytes.size();
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      reverse->send(std::move(sp));
    };
    receiver = std::make_unique<ChunkTransportReceiver>(sim, std::move(rc));

    rx_sink = std::make_unique<SinkShim>([this](SimPacket pkt) {
      bool ok = false;
      {
        ScopedSpan s(span::kChunkDecode);
        ok = decode_packet_views(pkt.bytes, views);
      }
      ++ph.decode_packets;
      if (!ok) return;
      ScopedSpan s(span::kTransportRx);
      for (const ChunkView& v : views) {
        receiver->on_chunk_view(v, pkt.created_at, pkt.id);
      }
      ph.rx_chunks += views.size();
      views.clear();
    });
    LinkConfig eg;
    eg.rate_bps = 1e9;
    eg.prop_delay = 100 * kMicrosecond;
    eg.mtu = kEgressMtu;
    egress = std::make_unique<Link>(sim, eg, *rx_sink, rng);

    RelayFn relay = chunk_relay(RepackPolicy::kRepack, &relay_stats);
    router = std::make_unique<Router>(
        sim,
        [this, relay](PacketBytes bytes, std::size_t mtu) {
          ScopedSpan s(span::kChunkRelay);
          ++ph.relay_packets;
          return relay(std::move(bytes), mtu);
        },
        *egress);

    MultipathConfig mc;
    mc.mode = SprayMode::kPerPacket;
    mpath = std::make_unique<MultipathScheduler>(sim, mc, make_paths(),
                                                 *router, rng);

    SenderConfig sc;
    sc.framer.connection_id = kConn;
    sc.framer.element_size = kElem;
    sc.framer.tpdu_elements = kTpduBytes / kElem;
    sc.framer.xpdu_elements = 256;
    sc.framer.max_chunk_elements = 256;
    sc.mtu = 1400;
    sc.selective_retransmit = true;
    sc.retransmit_timeout = 100 * kMillisecond;
    sc.max_retransmits = 12;
    sc.rto.adaptive = true;
    sc.flow.enabled = true;
    sc.flow.initial_credit_bytes = 64 * 1024;
    sc.flow.initial_tpdu_slots = 16;
    sc.send_packet = [this](PacketBytes bytes) {
      ++ph.data_datagrams;
      ++ph.datagrams;
      ph.data_bytes += bytes.size();
      ph.wire_bytes += bytes.size();
      SimPacket sp;
      sp.bytes = std::move(bytes);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      mpath->send(std::move(sp));
    };
    sender = std::make_unique<ChunkTransportSender>(sim, std::move(sc));

    fb_sink = std::make_unique<SinkShim>([this](SimPacket pkt) {
      ScopedSpan s(span::kTransportFeedback);
      ++ph.feedback_packets;
      sender->on_packet(std::move(pkt));
    });
    LinkConfig rev;
    rev.prop_delay = kMillisecond;
    reverse = std::make_unique<Link>(sim, rev, *fb_sink, rng);
  }
};

std::vector<std::uint8_t> seeded_pool(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(2 * kStreamBytes);
  for (std::size_t i = 0; i < v.size(); i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(v.data() + i, &w, 8);
  }
  return v;
}

}  // namespace

Phase run_sim_multipath_reorder(const RunOptions& o) {
  // Inputs first (excluded from the measurement): per connection, a
  // link-randomness seed and a stream cut from one seeded pool.
  Rng master(o.seed);
  const auto pool = seeded_pool(master.next());
  std::vector<std::uint64_t> seeds;
  std::vector<std::span<const std::uint8_t>> streams;
  for (std::size_t i = 0; i < kConnections; ++i) {
    seeds.push_back(master.next());
    const std::size_t off = master.below(kStreamBytes / kElem) * kElem;
    streams.emplace_back(pool.data() + off, kStreamBytes);
  }
  std::vector<std::optional<Outcome>> first(kConnections);

  Phase ph;
  const std::uint64_t allocs0 = allocation_count();
  const std::uint64_t t0 = mono_ns();
  Windower windows(ph);
  const auto budget_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
  // Every connection runs at least once, so the simulated-time results
  // cover the same kConnections inputs on any host.
  for (std::size_t n = 0;
       n < kConnections || mono_ns() - t0 < budget_ns; ++n) {
    const std::size_t i = n % kConnections;
    const std::span<const std::uint8_t> stream = streams[i];
    if (SpanRecorder* r = active_spans()) r->set_flow(n + 1);
    ScopedSpan flow(span::kFlow);
    const std::uint64_t data0 = ph.data_datagrams;
    const std::uint64_t feedback0 = ph.feedback_datagrams;

    const std::uint64_t t_setup = mono_ns();
    std::unique_ptr<Rig> rig;
    {
      ScopedSpan s(span::kSessionSetup);
      rig = std::make_unique<Rig>(ph, seeds[i]);
    }
    ph.setup_s.add(static_cast<double>(mono_ns() - t_setup) / 1e9);

    const SimTime start = rig->sim.now();
    {
      ScopedSpan s(span::kSendStream);
      rig->sender->send_stream(stream);
    }
    std::uint64_t events = 0;
    {
      ScopedSpan s(span::kNetsimRun);
      events = rig->sim.run(kSimDeadline);
    }
    ph.netsim_events += events;

    const auto& ss = rig->sender->stats();
    const auto& rs = rig->receiver->stats();
    ph.tpdus_sent += ss.tpdus_sent;
    ph.retransmissions += ss.retransmissions;
    ph.gap_naks_honoured += ss.gap_naks_honoured;
    ph.rto_backoffs += ss.rto_backoffs;
    ph.flow_blocked += ss.flow_blocked;
    ph.tpdus_gave_up += ss.gave_up;
    ph.tx_bytes_copied += ss.tx_bytes_copied;
    ph.duplicate_chunks += rs.duplicate_chunks;
    ph.tpdus_rejected += rs.tpdus_rejected;
    ph.overlap_chunks += rs.overlap_chunks;
    ph.held_bytes_peak = std::max(ph.held_bytes_peak, rs.held_bytes_peak);
    ph.relay_splits += rig->relay_stats.splits;

    // Correctness: finished without give-ups, every TPDU bit-exact.
    const std::size_t tpdus = kStreamBytes / kTpduBytes;
    std::set<std::uint32_t> failed;
    for (const std::uint32_t id : rig->sender->gave_up_tpdus()) {
      failed.insert(id - 1);  // T.IDs start at first_tpdu_id = 1
    }
    const auto got = rig->receiver->app_data();
    std::uint64_t good = 0;
    for (std::size_t t = 0; t < tpdus; ++t) {
      const std::size_t off = t * kTpduBytes;
      if (got.size() >= off + kTpduBytes &&
          std::memcmp(got.data() + off, stream.data() + off, kTpduBytes) ==
              0) {
        good += kTpduBytes;
      } else {
        failed.insert(static_cast<std::uint32_t>(t));
        ph.mismatched_bytes += kTpduBytes;
        ph.first_bad_offset =
            std::min<std::uint64_t>(ph.first_bad_offset, off);
      }
    }
    const bool finished =
        rig->sender->finished() && rig->done_at != 0 && !rig->sim.pending();
    std::uint64_t nfailed = failed.size();
    if (nfailed == 0 && !finished) nfailed = 1;

    const Outcome out{rig->done_at, events, ph.data_datagrams - data0,
                      ph.feedback_datagrams - feedback0, ss.retransmissions};
    if (!first[i]) {
      first[i] = out;
      // Simulated-time results: one sample per distinct connection.
      const double dt = static_cast<double>(rig->done_at - start);
      ph.latency_us.add(dt / 1e3);
      ph.clock_goodput_Mbps.add(ratio(kStreamBytes * 8e3, dt));
    } else if (*first[i] != out) {
      ph.replay_mismatch = true;
      nfailed = std::max<std::uint64_t>(nfailed, 1);
    }
    ph.attempted += tpdus;
    ph.failed += nfailed;
    ph.app_bytes += good;
    ++ph.flows;
    windows.after_flow();
  }
  windows.finish();
  ph.allocations = allocation_count() - allocs0;
  return ph;
}

}  // namespace perfbench
