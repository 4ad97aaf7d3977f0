// E7 — §3.3: reassembly-buffer lock-up. IP-style physical reassembly
// needs a fragment pool; under disorder the pool can fill with pieces
// of many incomplete datagrams and deadlock ("the reassembly buffer is
// filled completely and yet no single PDU is complete"). Chunks are
// placed directly into application memory, so the receiver needs NO
// reassembly pool at all. Sweeps pool size × disorder severity.
// Tables are read back from the observability registry (src/obs):
// each run records into a MetricsRegistry and the rows come from its
// counters/gauges; stream completion stays ground truth.
#include <cinttypes>

#include "bench_util.hpp"
#include "src/baselines/ip_transport.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace chunknet::bench {
namespace {

constexpr std::size_t kStreamBytes = 128 * 1024;

struct IpRun {
  std::uint64_t lockups{0};
  std::uint64_t dropped{0};
  std::uint64_t retx{0};
  bool complete{false};
};

IpRun run_ip(std::size_t pool_bytes, int lanes, SimTime skew) {
  LinkConfig cfg;
  cfg.mtu = 576;
  cfg.rate_bps = 622e6;
  cfg.prop_delay = 1 * kMillisecond;
  cfg.lanes = lanes;
  cfg.lane_skew = skew;

  Simulator sim;
  Rng rng(7);
  // Declared before the endpoints: a registry outlives what binds to it.
  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};
  std::unique_ptr<IpFragTransportReceiver> receiver;
  std::unique_ptr<IpFragTransportSender> sender;
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;

  IpReceiverConfig rc;
  rc.app_buffer_bytes = kStreamBytes;
  rc.reassembly_pool_bytes = pool_bytes;
  rc.obs = &obs;
  rc.send_control = [&](std::vector<std::uint8_t> body) {
    SimPacket sp;
    sp.bytes = std::move(body);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    reverse->send(std::move(sp));
  };
  receiver = std::make_unique<IpFragTransportReceiver>(sim, std::move(rc));
  forward = std::make_unique<Link>(sim, cfg, *receiver, rng);

  IpSenderConfig sc;
  sc.tpdu_bytes = 8192;
  sc.mtu = cfg.mtu;
  sc.retransmit_timeout = 30 * kMillisecond;
  sc.max_retransmits = 6;
  sc.obs = &obs;
  sc.send_packet = [&](std::vector<std::uint8_t> bytes) {
    SimPacket sp;
    sp.bytes = std::move(bytes);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    forward->send(std::move(sp));
  };
  sender = std::make_unique<IpFragTransportSender>(sim, std::move(sc));
  LinkConfig rev;
  reverse = std::make_unique<Link>(sim, rev, *sender, rng);

  sender->send_stream(pattern_stream(kStreamBytes));
  sim.run(60 * kSecond);

  IpRun r;
  const Gauge* lockups = reg.find_gauge("ip_receiver.pool_lockups");
  const Gauge* dropped = reg.find_gauge("ip_receiver.pool_frags_dropped");
  const Counter* retx = reg.find_counter("ip_sender.retransmissions");
  r.lockups = lockups != nullptr
                  ? static_cast<std::uint64_t>(lockups->value())
                  : 0;
  r.dropped = dropped != nullptr
                  ? static_cast<std::uint64_t>(dropped->value())
                  : 0;
  r.retx = retx != nullptr ? retx->value() : 0;
  r.complete = receiver->bytes_delivered() == kStreamBytes;
  return r;
}

void pool_sweep() {
  print_heading("E7a", "IP reassembly pool size sweep under 8-lane skew "
                       "(8 KiB datagrams over 576-byte fragments)");
  TextTable t({"pool KiB", "lockup events", "frags dropped", "retx",
               "completed"});
  for (const std::size_t kib : {4, 8, 16, 32, 64, 256}) {
    const IpRun r = run_ip(kib * 1024, 8, 2 * kMillisecond);
    t.add_row({TextTable::num(static_cast<std::uint64_t>(kib)),
               TextTable::num(r.lockups), TextTable::num(r.dropped),
               TextTable::num(r.retx), r.complete ? "yes" : "NO"});
  }
  print_table(t);
  const IpRun tiny = run_ip(4 * 1024, 8, 2 * kMillisecond);
  const IpRun big = run_ip(256 * 1024, 8, 2 * kMillisecond);
  print_claim(tiny.lockups > 0,
              "undersized pools lock up under disorder ([KENT 87], §3.3)");
  print_claim(big.lockups == 0 && big.complete,
              "the baseline needs a large dedicated pool to avoid lock-up");
}

void chunk_counterpart() {
  print_heading("E7b", "chunk receiver under the same disorder — no "
                       "reassembly pool exists to lock up");
  LinkConfig cfg;
  cfg.mtu = 576;
  cfg.rate_bps = 622e6;
  cfg.prop_delay = 1 * kMillisecond;
  cfg.lanes = 8;
  cfg.lane_skew = 2 * kMillisecond;
  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};
  TransportHarness h(cfg, DeliveryMode::kImmediate, kStreamBytes, 7,
                     /*tpdu_elements=*/2048, 128, 64, &obs);
  h.sender->send_stream(pattern_stream(kStreamBytes));
  h.sim.run(60 * kSecond);

  const Gauge* peak = reg.find_gauge("receiver.immediate.held_bytes_peak");
  const std::uint64_t held_peak =
      peak != nullptr ? static_cast<std::uint64_t>(peak->value()) : 0;
  TextTable t({"metric", "value"});
  t.add_row({"bytes held in receive buffers (peak)",
             TextTable::num(held_peak)});
  t.add_row({"stream completed",
             h.receiver->stream_complete(kStreamBytes / 4) ? "yes" : "NO"});
  t.add_row({"virtual-reassembly state (TPDU trackers), bytes of data: ",
             "0 (tracks intervals only)"});
  print_table(t);
  print_claim(held_peak == 0 &&
                  h.receiver->stream_complete(kStreamBytes / 4),
              "immediate placement eliminates the reassembly buffer — and "
              "with it, lock-up — entirely (§3.3)");
}

}  // namespace
}  // namespace chunknet::bench

int main() {
  chunknet::bench::pool_sweep();
  chunknet::bench::chunk_counterpart();
  chunknet::bench::write_bench_json("e7");
  return 0;
}
