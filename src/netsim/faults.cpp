#include "src/netsim/faults.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "src/chunk/codec.hpp"
#include "src/chunk/types.hpp"

namespace chunknet {

GilbertElliottConfig GilbertElliottConfig::with_mean_loss(
    double mean_loss, double mean_burst_packets) {
  GilbertElliottConfig cfg;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  if (mean_loss <= 0.0) {
    cfg.p_good_to_bad = 0.0;
    cfg.p_bad_to_good = 1.0;
    return cfg;
  }
  if (mean_burst_packets < 1.0) mean_burst_packets = 1.0;
  // pi_bad = p/(p+r) = mean_loss with r = 1/burst ⇒ p = r·L/(1−L).
  cfg.p_bad_to_good = 1.0 / mean_burst_packets;
  if (mean_loss >= 1.0) {
    cfg.p_good_to_bad = 1.0;
    cfg.p_bad_to_good = 0.0;
    return cfg;
  }
  cfg.p_good_to_bad = cfg.p_bad_to_good * mean_loss / (1.0 - mean_loss);
  return cfg;
}

bool GilbertElliott::lose() {
  if (bad_) {
    if (rng_->chance(cfg_.p_bad_to_good)) bad_ = false;
  } else if (rng_->chance(cfg_.p_good_to_bad)) {
    bad_ = true;
    ++bursts_;
  }
  return rng_->chance(bad_ ? cfg_.loss_bad : cfg_.loss_good);
}

FaultInjector::FaultInjector(Simulator& sim, FaultConfig cfg, PacketSink& sink,
                             Rng& rng)
    : sim_(sim),
      cfg_(cfg),
      sink_(sink),
      rng_(rng),
      ge_(cfg.gilbert_elliott, rng) {
  if (MetricsRegistry* reg = metrics_of(cfg_.obs)) {
    stats_binding_.bind(reg, "faults" + std::to_string(cfg_.obs_site) + ".",
                        stats_,
                        {{"offered", &Stats::offered},
                         {"delivered", &Stats::delivered},
                         {"dropped_loss", &Stats::dropped_loss},
                         {"dropped_blackout", &Stats::dropped_blackout},
                         {"payload_corrupted", &Stats::payload_corrupted},
                         {"header_corrupted", &Stats::header_corrupted}});
  }
}

bool FaultInjector::in_blackout() const {
  if (cfg_.blackout_interval == 0 || cfg_.blackout_duration == 0) return false;
  return sim_.now() % cfg_.blackout_interval < cfg_.blackout_duration;
}

void FaultInjector::on_packet(SimPacket pkt) {
  ++stats_.offered;
  if (in_blackout()) {
    ++stats_.dropped_blackout;
    return;
  }
  if (ge_.lose()) {
    stats_.loss_bursts = ge_.bursts();
    ++stats_.dropped_loss;
    return;
  }
  stats_.loss_bursts = ge_.bursts();
  const std::size_t header_end =
      std::min(cfg_.header_region_bytes, pkt.bytes.size());
  if (cfg_.header_flip_rate > 0 && header_end > 0 &&
      rng_.chance(cfg_.header_flip_rate)) {
    pkt.bytes[rng_.below(header_end)] ^= static_cast<std::uint8_t>(
        1u << rng_.below(8));
    ++stats_.header_corrupted;
  }
  if (cfg_.payload_flip_rate > 0 && pkt.bytes.size() > header_end &&
      rng_.chance(cfg_.payload_flip_rate)) {
    const std::size_t at =
        header_end + rng_.below(pkt.bytes.size() - header_end);
    pkt.bytes[at] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
    ++stats_.payload_corrupted;
  }
  ++stats_.delivered;
  sink_.on_packet(std::move(pkt));
}

const FaultInjector::Stats& FaultInjector::stats() const {
  stats_.loss_bursts = ge_.bursts();
  return stats_;
}

// ------------------------------------------------- misbehaving relay

const char* to_string(ChunkField f) {
  switch (f) {
    case ChunkField::kType: return "TYPE";
    case ChunkField::kSize: return "SIZE";
    case ChunkField::kLen: return "LEN";
    case ChunkField::kCid: return "C.ID";
    case ChunkField::kCsn: return "C.SN";
    case ChunkField::kCst: return "C.ST";
    case ChunkField::kTid: return "T.ID";
    case ChunkField::kTsn: return "T.SN";
    case ChunkField::kTst: return "T.ST";
    case ChunkField::kXid: return "X.ID";
    case ChunkField::kXsn: return "X.SN";
    case ChunkField::kXst: return "X.ST";
    case ChunkField::kPayload: return "Data";
  }
  return "?";
}

std::pair<std::size_t, std::uint8_t> chunk_field_fault(ChunkField f) {
  // Wire layout of an encoded chunk (codec.cpp): type(1) flags(1)
  // size(2) len(2) C.ID(4) C.SN(4) T.ID(4) T.SN(4) X.ID(4) X.SN(4)
  // spare(4) payload. SN/ID rewrites hit a HIGH-order byte: a relay
  // that rewrites a framing field rewrites the whole field, and the
  // misdirected value then lies far outside any placement window, so
  // detection (not silent misplacement) is what's under test.
  switch (f) {
    case ChunkField::kType: return {0, 0x03};
    case ChunkField::kCst: return {1, 0x01};
    case ChunkField::kTst: return {1, 0x02};
    case ChunkField::kXst: return {1, 0x04};
    case ChunkField::kSize: return {3, 0x06};
    case ChunkField::kLen: return {5, 0x05};
    case ChunkField::kCid: return {6, 0x10};
    case ChunkField::kCsn: return {10, 0x10};
    case ChunkField::kTid: return {14, 0x10};
    case ChunkField::kTsn: return {18, 0x10};
    case ChunkField::kXid: return {22, 0x10};
    case ChunkField::kXsn: return {26, 0x10};
    case ChunkField::kPayload: return {kChunkHeaderBytes, 0xFF};
  }
  return {0, 0};
}

namespace {

/// Byte offsets (within `bytes`) of each data chunk's first header byte.
std::vector<std::size_t> data_chunk_offsets(
    std::span<const std::uint8_t> bytes) {
  std::vector<std::size_t> offs;
  if (bytes.size() < kPacketHeaderBytes || bytes[0] != kPacketMagic) {
    return offs;
  }
  std::size_t at = kPacketHeaderBytes;
  while (at + kChunkHeaderBytes <= bytes.size()) {
    const std::uint8_t type = bytes[at];
    if (type == static_cast<std::uint8_t>(ChunkType::kTerminator)) break;
    if (type > static_cast<std::uint8_t>(ChunkType::kAck)) break;
    const std::size_t size =
        (static_cast<std::size_t>(bytes[at + 2]) << 8) | bytes[at + 3];
    const std::size_t len =
        (static_cast<std::size_t>(bytes[at + 4]) << 8) | bytes[at + 5];
    const std::size_t payload = size * len;
    if (at + kChunkHeaderBytes + payload > bytes.size()) break;
    if (type == static_cast<std::uint8_t>(ChunkType::kData)) {
      offs.push_back(at);
    }
    at += kChunkHeaderBytes + payload;
  }
  return offs;
}

}  // namespace

bool rewrite_chunk_field(std::span<std::uint8_t> bytes, ChunkField field,
                         Rng& rng) {
  const std::vector<std::size_t> offs = data_chunk_offsets(bytes);
  if (offs.empty()) return false;
  const std::size_t chunk_off = offs[rng.below(offs.size())];
  const auto [field_off, mask] = chunk_field_fault(field);
  const std::size_t at = chunk_off + field_off;
  if (at >= bytes.size()) return false;
  bytes[at] ^= mask;
  return true;
}

RelayFn header_rewriting_relay(HeaderRewriteConfig cfg, Rng& rng,
                               HeaderRewriteStats* stats) {
  return [cfg, &rng, stats](PacketBytes bytes, std::size_t /*egress_mtu*/) {
    if (stats != nullptr) {
      ++stats->packets_in;
      ++stats->packets_out;
    }
    if (cfg.rewrite_rate > 0 && rng.chance(cfg.rewrite_rate) &&
        rewrite_chunk_field(std::span<std::uint8_t>(bytes.data(),
                                                    bytes.size()),
                            cfg.field, rng)) {
      if (stats != nullptr) {
        ++stats->rewrites;
        ++stats->by_field[static_cast<std::size_t>(cfg.field)];
      }
    }
    std::vector<PacketBytes> out;
    out.push_back(std::move(bytes));
    return out;
  };
}

}  // namespace chunknet
