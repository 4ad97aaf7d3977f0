#include "src/baselines/ip_transport.hpp"

#include <algorithm>

#include "src/common/bytes.hpp"
#include "src/edc/crc32.hpp"

namespace chunknet {

std::vector<std::uint8_t> encode_ip_fragment(
    std::uint32_t dgram_id, std::uint32_t offset, std::uint32_t stream_base,
    bool more_fragments, std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(kIpFragHeaderBytes + body.size());
  ByteWriter w(out);
  w.u8(kIpFragMagic);
  w.u8(more_fragments ? 0x01 : 0x00);
  w.u32(dgram_id);
  w.u32(offset);
  w.u32(stream_base);
  w.u16(static_cast<std::uint16_t>(body.size()));
  w.bytes(body);
  return out;
}

DecodedIpFragment decode_ip_fragment(std::span<const std::uint8_t> bytes) {
  DecodedIpFragment f;
  ByteReader r(bytes);
  const std::uint8_t magic = r.u8();
  const std::uint8_t flags = r.u8();
  f.dgram_id = r.u32();
  f.offset = r.u32();
  f.stream_base = r.u32();
  const std::uint16_t len = r.u16();
  if (!r.ok() || magic != kIpFragMagic || r.remaining() != len) return f;
  f.more_fragments = (flags & 0x01) != 0;
  f.body = r.bytes(len);
  f.ok = true;
  return f;
}

RelayFn ip_fragment_relay(RelayStats* stats) {
  return [stats](PacketBytes bytes, std::size_t egress_mtu) {
    if (stats != nullptr) ++stats->packets_in;
    std::vector<PacketBytes> out;
    if (bytes.size() <= egress_mtu) {
      out.push_back(std::move(bytes));
      if (stats != nullptr) ++stats->packets_out;
      return out;
    }
    const DecodedIpFragment f = decode_ip_fragment(bytes);
    if (!f.ok) {
      if (stats != nullptr) ++stats->parse_failures;
      return out;  // not refragmentable: drop
    }
    const std::size_t body_per = egress_mtu - kIpFragHeaderBytes;
    std::size_t off = 0;
    while (off < f.body.size()) {
      const std::size_t n = std::min(body_per, f.body.size() - off);
      const bool last_piece = off + n == f.body.size();
      const bool mf = f.more_fragments || !last_piece;
      out.push_back(encode_ip_fragment(
          f.dgram_id, f.offset + static_cast<std::uint32_t>(off),
          f.stream_base, mf, f.body.subspan(off, n)));
      off += n;
      if (stats != nullptr) {
        ++stats->packets_out;
        if (!last_piece) ++stats->splits;
      }
    }
    return out;
  };
}

// --------------------------------------------------------------- sender

IpFragTransportSender::IpFragTransportSender(Simulator& sim,
                                             IpSenderConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      rto_(cfg_.rto, cfg_.retransmit_timeout) {
  stats_binding_.bind(metrics_of(cfg_.obs), "ip_sender.", stats_,
                      {{"datagrams_sent", &Stats::datagrams_sent},
                       {"retransmissions", &Stats::retransmissions},
                       {"gave_up", &Stats::gave_up},
                       {"packets_sent", &Stats::packets_sent},
                       {"bytes_sent", &Stats::bytes_sent}});
}

void IpFragTransportSender::send_stream(
    std::span<const std::uint8_t> stream) {
  started_ = true;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min(cfg_.tpdu_bytes, stream.size() - pos);
    Pending p;
    p.stream_base = static_cast<std::uint32_t>(pos);
    p.datagram.assign(stream.begin() + static_cast<std::ptrdiff_t>(pos),
                      stream.begin() + static_cast<std::ptrdiff_t>(pos + n));
    // CRC-32 over the ordered datagram, appended as a trailer. This is
    // the crux of the baseline: the check value is order-DEPENDENT, so
    // it cannot be verified until physical reassembly completes.
    const std::uint32_t crc = crc32(p.datagram);
    ByteWriter w(p.datagram);
    w.u32(crc);

    const std::uint32_t id = next_id_++;
    auto [it, inserted] = outstanding_.emplace(id, std::move(p));
    ++stats_.datagrams_sent;
    transmit(id, it->second);
    pos += n;
  }
}

void IpFragTransportSender::transmit(std::uint32_t id, Pending& p) {
  ++p.attempts;
  p.last_sent = sim_.now();
  if (p.attempts > 1) p.retransmitted = true;
  const std::size_t body_per = cfg_.mtu - kIpFragHeaderBytes;
  std::size_t off = 0;
  while (off < p.datagram.size()) {
    const std::size_t n = std::min(body_per, p.datagram.size() - off);
    const bool mf = off + n < p.datagram.size();
    auto pkt = encode_ip_fragment(
        id, static_cast<std::uint32_t>(off), p.stream_base, mf,
        std::span<const std::uint8_t>(p.datagram).subspan(off, n));
    stats_.bytes_sent += pkt.size();
    ++stats_.packets_sent;
    if (cfg_.send_packet) cfg_.send_packet(std::move(pkt));
    off += n;
  }
  arm_timer(id);
}

void IpFragTransportSender::arm_timer(std::uint32_t id) {
  const SimTime armed_at = sim_.now();
  const SimTime timeout =
      cfg_.rto.adaptive ? rto_.rto() : cfg_.retransmit_timeout;
  sim_.schedule_in(timeout, [this, id, armed_at] {
    auto it = outstanding_.find(id);
    if (it == outstanding_.end()) return;
    if (it->second.last_sent > armed_at) return;
    if (it->second.attempts > cfg_.max_retransmits) {
      ++stats_.gave_up;
      outstanding_.erase(it);
      return;
    }
    rto_.on_timeout();
    ++stats_.retransmissions;
    transmit(id, it->second);
  });
}

void IpFragTransportSender::on_packet(SimPacket pkt) {
  if (pkt.bytes.size() != 5) return;
  const std::uint8_t kind = pkt.bytes[0];
  ByteReader r(pkt.bytes);
  r.u8();
  const std::uint32_t id = r.u32();
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) return;
  if (kind == 'A') {
    rto_.on_sample(sim_.now() - it->second.last_sent,
                   it->second.retransmitted);
    ++stats_.datagrams_acked;
    outstanding_.erase(it);
  } else if (kind == 'N') {
    if (it->second.attempts > cfg_.max_retransmits) {
      ++stats_.gave_up;
      outstanding_.erase(it);
      return;
    }
    ++stats_.retransmissions;
    transmit(id, it->second);
  }
}

// ------------------------------------------------------------- receiver

IpFragTransportReceiver::IpFragTransportReceiver(Simulator& sim,
                                                 IpReceiverConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      pool_(cfg_.reassembly_pool_bytes),
      app_buffer_(cfg_.app_buffer_bytes, 0) {
  if (cfg_.obs != nullptr && cfg_.obs->metrics != nullptr) {
    MetricsRegistry& reg = *cfg_.obs->metrics;
    stats_binding_.bind(&reg, "ip_receiver.", stats_,
                        {{"fragments", &Stats::fragments},
                         {"malformed", &Stats::malformed},
                         {"datagrams_ok", &Stats::datagrams_ok},
                         {"datagrams_bad_crc", &Stats::datagrams_bad_crc},
                         {"bus_bytes", &Stats::bus_bytes}});
    stats_binding_.bind(&reg, "ip_receiver.bytes_delivered",
                        bytes_delivered_);
    m_.pool_lockups = &reg.gauge("ip_receiver.pool_lockups");
    m_.pool_frags_dropped = &reg.gauge("ip_receiver.pool_frags_dropped");
    m_.delivery_latency = &reg.histogram("ip_receiver.delivery_latency_ns");
  }
}

void IpFragTransportReceiver::on_packet(SimPacket pkt) {
  ++stats_.fragments;
  const DecodedIpFragment f = decode_ip_fragment(pkt.bytes);
  if (!f.ok) {
    ++stats_.malformed;
    return;
  }
  stream_base_.emplace(f.dgram_id, f.stream_base);
  auto [fit, _] = first_fragment_at_.emplace(f.dgram_id, pkt.created_at);
  fit->second = std::min(fit->second, pkt.created_at);

  IpFragment frag;
  frag.datagram_id = f.dgram_id;
  frag.offset = f.offset;
  frag.data.assign(f.body.begin(), f.body.end());
  frag.more_fragments = f.more_fragments;

  const IpReassemblyOutcome outcome = pool_.offer(frag);
  // Every buffered byte crosses the bus into the pool.
  if (outcome == IpReassemblyOutcome::kStored ||
      outcome == IpReassemblyOutcome::kCompleted) {
    stats_.bus_bytes += frag.data.size();
  }
  if (outcome != IpReassemblyOutcome::kCompleted) {
    if (pool_.stats().lockup_events > stats_.pool_lockups) {
      stats_.pool_lockups = pool_.stats().lockup_events;
    }
    obs_set(m_.pool_lockups,
            static_cast<std::int64_t>(pool_.stats().lockup_events));
    obs_set(m_.pool_frags_dropped,
            static_cast<std::int64_t>(
                pool_.stats().fragments_dropped_no_space));
    return;
  }

  auto datagram = pool_.take_completed(f.dgram_id);
  if (!datagram) return;
  // Datagram = payload + 4-byte CRC trailer.
  if (datagram->size() < 4) {
    ++stats_.datagrams_bad_crc;
    return;
  }
  const std::size_t payload_len = datagram->size() - 4;
  const std::span<const std::uint8_t> whole(*datagram);
  ByteReader tr(whole.subspan(payload_len));
  const std::uint32_t expect = tr.u32();
  const std::uint32_t actual = crc32(whole.subspan(0, payload_len));

  const std::uint32_t base = stream_base_[f.dgram_id];
  if (actual != expect) {
    ++stats_.datagrams_bad_crc;
    if (cfg_.send_control) {
      std::vector<std::uint8_t> nak;
      ByteWriter w(nak);
      w.u8('N');
      w.u32(f.dgram_id);
      cfg_.send_control(std::move(nak));
    }
    return;
  }

  // Placement: the second bus crossing for every byte.
  if (base + payload_len <= app_buffer_.size()) {
    std::copy(datagram->begin(),
              datagram->begin() + static_cast<std::ptrdiff_t>(payload_len),
              app_buffer_.begin() + base);
    stats_.bus_bytes += payload_len;
    bytes_delivered_ += payload_len;
  }
  ++stats_.datagrams_ok;
  const double latency =
      static_cast<double>(sim_.now() - first_fragment_at_[f.dgram_id]);
  // One latency sample per 4-byte element, comparable with the chunk
  // receiver's per-element samples.
  obs_observe(m_.delivery_latency, latency, payload_len / 4);
  for (std::size_t i = 0; i < payload_len / 4; ++i) {
    stats_.delivery_latency_ns.push_back(latency);
  }
  if (cfg_.send_control) {
    std::vector<std::uint8_t> ack;
    ByteWriter w(ack);
    w.u8('A');
    w.u32(f.dgram_id);
    cfg_.send_control(std::move(ack));
  }
}

}  // namespace chunknet
