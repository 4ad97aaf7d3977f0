#include "src/transport/sender.hpp"

#include <algorithm>
#include <optional>

#include "src/chunk/codec.hpp"
#include "src/chunk/fragment.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {

ChunkTransportSender::ChunkTransportSender(Simulator& sim, SenderConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      rto_(cfg_.rto, cfg_.retransmit_timeout) {
  if (cfg_.obs != nullptr) spans_ = cfg_.obs->spans;
  MetricsRegistry* reg = metrics_of(cfg_.obs);
  stats_binding_.bind(
      reg, "sender.", stats_,
      {{"tpdus_sent", &Stats::tpdus_sent},
       {"tpdus_acked", &Stats::tpdus_acked},
       {"retransmissions", &Stats::retransmissions},
       {"naks", &Stats::naks},
       {"gave_up", &Stats::gave_up},
       {"packets_sent", &Stats::packets_sent},
       {"bytes_sent", &Stats::bytes_sent},
       {"gap_naks_honoured", &Stats::gap_naks_honoured},
       {"retx_payload_bytes", &Stats::retx_payload_bytes},
       {"tx_bytes_copied", &Stats::tx_bytes_copied},
       {"tx_gather_bytes", &Stats::tx_gather_bytes},
       {"rto_samples", &Stats::rto_samples},
       {"rto_discarded", &Stats::rto_discarded},
       {"rto_backoffs", &Stats::rto_backoffs}});
  if (cfg_.flow.enabled && reg != nullptr) {
    stats_binding_.bind(reg, "flow.", stats_,
                        {{"credit_grants", &Stats::credit_grants},
                         {"blocked", &Stats::flow_blocked},
                         {"zero_credit_probes", &Stats::zero_credit_probes},
                         {"backoffs", &Stats::flow_backoffs}});
    credit_window_ = &reg->gauge("flow.credit_window_bytes");
    inflight_tpdus_ = &reg->gauge("flow.inflight_tpdus");
  }
  if (cfg_.flow.enabled) {
    credit_limit_ = cfg_.flow.initial_credit_bytes;
    slots_ = std::max<std::uint16_t>(cfg_.flow.initial_tpdu_slots, 1);
    publish_flow_gauges();
  }
}

void ChunkTransportSender::publish_flow_gauges() {
  obs_set(credit_window_,
          static_cast<std::int64_t>(
              credit_limit_ > credit_consumed_ ? credit_limit_ - credit_consumed_
                                               : 0));
  obs_set(inflight_tpdus_, static_cast<std::int64_t>(inflight_));
}

void ChunkTransportSender::trace_chunk(TraceEventKind kind,
                                       const ChunkHeader& h,
                                       std::uint64_t aux) const {
  if (cfg_.obs == nullptr || cfg_.obs->tracer == nullptr) return;
  TraceEvent e;
  e.t = sim_.now();
  e.kind = kind;
  e.site = cfg_.obs_site;
  e.tpdu_id = h.tpdu.id;
  e.conn_sn = h.conn.sn;
  e.len = h.len;
  e.aux = aux;
  cfg_.obs->tracer->record(e);
}

void ChunkTransportSender::span(SpanEventKind kind, std::uint32_t tpdu_id,
                                std::uint64_t aux) const {
  if (spans_ == nullptr) return;
  SpanEvent e;
  e.t = sim_.now();
  e.kind = kind;
  e.connection_id = cfg_.framer.connection_id;
  e.tpdu_id = tpdu_id;
  e.aux = aux;
  spans_->record(e);
}

void ChunkTransportSender::send_stream(std::span<const std::uint8_t> stream) {
  started_ = true;
  stream_.assign(stream.begin(), stream.end());
  framer_ = StreamFramer(stream_, cfg_.framer);
  pump_admissions();
}

bool ChunkTransportSender::admit_next() {
  const std::uint32_t tpdu_id = framer_.next_tpdu_id();
  PendingTpdu pending;
  framer_.next_tpdu(pending.chunks);
  const std::uint32_t conn_sn = pending.chunks.front().h.conn.sn;

  // Transmitter-side invariant: absorb the pristine chunks once.
  TpduInvariant inv(cfg_.invariant);
  bool ok = true;
  for (const Chunk& c : pending.chunks) {
    ok = inv.absorb(c) && ok;
    pending.payload_bytes += c.payload.size();
  }
  if (!ok) return false;  // stream too large for the invariant layout

  pending.chunks.push_back(make_ed_chunk(cfg_.framer.connection_id, tpdu_id,
                                         conn_sn, inv.value()));
  for (const Chunk& c : pending.chunks) {
    trace_chunk(TraceEventKind::kChunkBuilt, c.h);
  }
  auto [it, inserted] = outstanding_.emplace(tpdu_id, std::move(pending));
  PendingTpdu& p = it->second;
  ++stats_.tpdus_sent;
  span(SpanEventKind::kTpduFramed, tpdu_id, p.payload_bytes);
  if (cfg_.flow.enabled) {
    credit_consumed_ += p.payload_bytes;
    ++inflight_;
    ++admit_epoch_;
    span(SpanEventKind::kTpduAdmitted, tpdu_id, p.payload_bytes);
  }
  transmit_tpdu(tpdu_id, p);
  return true;
}

void ChunkTransportSender::pump_admissions() {
  while (!framer_.done()) {
    if (cfg_.flow.enabled &&
        (inflight_ >= slots_ ||
         credit_consumed_ + framer_.next_tpdu_bytes() > credit_limit_)) {
      break;
    }
    admit_next();
  }
  if (!cfg_.flow.enabled) return;
  const bool now_blocked = !framer_.done();
  if (now_blocked && !blocked_) {
    ++stats_.flow_blocked;
  }
  blocked_ = now_blocked;
  if (now_blocked) arm_probe();
  publish_flow_gauges();
}

void ChunkTransportSender::schedule_after(SimTime delay,
                                          std::function<void()> cb) {
  if (cfg_.timers != nullptr) {
    cfg_.timers->arm_in(delay, std::move(cb));
  } else {
    sim_.schedule_in(delay, std::move(cb));
  }
}

void ChunkTransportSender::arm_probe() {
  if (probe_armed_) return;
  probe_armed_ = true;
  const std::uint64_t epoch = admit_epoch_;
  schedule_after(cfg_.flow.probe_timeout, [this, epoch] {
    probe_armed_ = false;
    if (framer_.done()) return;
    if (admit_epoch_ != epoch) {
      // Progress happened since arming; still blocked, so keep watch.
      arm_probe();
      return;
    }
    // Genuinely stalled: every grant since the last one we applied was
    // lost, or the receiver went quiet. Decay the slot estimate
    // (conservative restart) and force ONE TPDU through as a probe —
    // its ACK or the grant it provokes re-opens the window.
    slots_ = std::max<std::uint16_t>(slots_ / 2, 1);
    ++stats_.zero_credit_probes;
    while (!framer_.done() && !admit_next()) {
    }
    if (!framer_.done()) arm_probe();
    publish_flow_gauges();
  });
}

void ChunkTransportSender::on_tpdu_retired() {
  if (cfg_.flow.enabled && inflight_ > 0) --inflight_;
}

void ChunkTransportSender::handle_credit_grant(const Chunk& signal) {
  const auto grant = parse_credit_grant(signal);
  if (!grant || grant->connection_id != cfg_.framer.connection_id) return;
  // Wrap-safe ordering: apply only grants newer than the last applied.
  if (any_grant_ &&
      static_cast<std::int32_t>(grant->grant_seq - grant_seq_seen_) <= 0) {
    return;
  }
  any_grant_ = true;
  grant_seq_seen_ = grant->grant_seq;
  ++stats_.credit_grants;
  span(SpanEventKind::kCreditGrant, 0, grant->credit_limit_bytes);

  const std::uint64_t old_window =
      credit_limit_ > credit_consumed_ ? credit_limit_ - credit_consumed_ : 0;
  const std::uint64_t new_window = grant->credit_limit_bytes > credit_consumed_
                                       ? grant->credit_limit_bytes - credit_consumed_
                                       : 0;
  const std::uint16_t offered_slots =
      std::max<std::uint16_t>(grant->tpdu_slots, 1);
  if (new_window < old_window || offered_slots < slots_) {
    // The receiver is under pressure: back off multiplicatively rather
    // than sliding gently to the offered window.
    slots_ = std::max<std::uint16_t>(std::min(offered_slots,
                                              static_cast<std::uint16_t>(
                                                  slots_ / 2)),
                                     1);
    ++stats_.flow_backoffs;
  } else {
    slots_ = offered_slots;
  }
  credit_limit_ = grant->credit_limit_bytes;
  pump_admissions();
}

void ChunkTransportSender::transmit_tpdu(std::uint32_t tpdu_id,
                                         PendingTpdu& p) {
  ++p.attempts;
  if (p.attempts > 1) {
    p.retransmitted = true;
    for (const Chunk& c : p.chunks) {
      if (c.h.type == ChunkType::kData) {
        stats_.retx_payload_bytes += c.payload.size();
      }
    }
  }
  if (use_gather()) {
    // Zero-copy: packets borrow the pending chunks' payload bytes, so
    // a retransmission re-references the same bytes it sent last time.
    std::vector<ChunkView> views;
    views.reserve(p.chunks.size());
    for (const Chunk& c : p.chunks) views.push_back(as_view(c));
    send_chunk_views(views);
  } else {
    send_chunks(p.chunks);  // copies: the originals stay for retransmission
  }
  // Stamped once queued: a real-time runtime may move the clock while
  // the datagrams go out, and the RTO runs from when they left.
  p.last_sent = sim_.now();
  arm_timer(tpdu_id);
}

std::size_t ChunkTransportSender::abandon_outstanding() {
  std::size_t n = 0;
  auto give_up = [&](std::uint32_t tpdu_id) {
    ++stats_.gave_up;
    span(SpanEventKind::kTpduGaveUp, tpdu_id);
    gave_up_ids_.push_back(tpdu_id);
    ++n;
  };
  while (!outstanding_.empty()) {
    auto it = outstanding_.begin();
    give_up(it->first);
    on_tpdu_retired();
    outstanding_.erase(it);
  }
  // TPDUs still waiting for credit were never framed; account them by
  // id and move the framer past them so no timer admits a ghost.
  while (!framer_.done()) {
    give_up(framer_.next_tpdu_id());
    framer_.skip_tpdu();
  }
  if (cfg_.flow.enabled) publish_flow_gauges();
  return n;
}

void ChunkTransportSender::arm_timer(std::uint32_t tpdu_id) {
  const SimTime armed_at = sim_.now();
  const SimTime timeout =
      cfg_.rto.adaptive ? rto_.rto() : cfg_.retransmit_timeout;
  schedule_after(timeout, [this, tpdu_id, armed_at] {
    auto it = outstanding_.find(tpdu_id);
    if (it == outstanding_.end()) return;          // acked meanwhile
    if (it->second.last_sent > armed_at) return;   // newer timer pending
    if (it->second.attempts > cfg_.max_retransmits) {
      ++stats_.gave_up;
      span(SpanEventKind::kTpduGaveUp, tpdu_id);
      gave_up_ids_.push_back(tpdu_id);
      on_tpdu_retired();
      outstanding_.erase(it);
      if (cfg_.flow.enabled) pump_admissions();
      return;
    }
    rto_.on_timeout();
    ++stats_.rto_backoffs;
    ++stats_.retransmissions;
    transmit_tpdu(tpdu_id, it->second);
  });
}

namespace {

/// Cuts the piece of `v` covering elements [lo, hi) in T.SN space, or
/// nullopt if they don't intersect. Appendix-C splits keep every header
/// field (SNs, ST bits) exact, so the receiver accepts the piece as if
/// it had been fragmented in the network. Views make the cut pure
/// header math — the payload halves are subspans of the original.
std::optional<ChunkView> slice_view(const ChunkView& v, std::uint64_t lo,
                                    std::uint64_t hi) {
  const std::uint64_t s = v.h.tpdu.sn;
  const std::uint64_t e = s + v.h.len;
  const std::uint64_t a = std::max(lo, s);
  const std::uint64_t b = std::min(hi, e);
  if (a >= b) return std::nullopt;
  ChunkView piece = v;
  if (a > s) {
    piece = split_view(piece, static_cast<std::uint16_t>(a - s)).second;
  }
  if (b < e) {
    piece = split_view(piece, static_cast<std::uint16_t>(b - a)).first;
  }
  return piece;
}

}  // namespace

void ChunkTransportSender::send_chunk_views(std::span<const ChunkView> views) {
  PacketizerOptions opts;
  opts.mtu = cfg_.mtu;
  opts.policy = cfg_.pack_policy;
  GatherResult packed = gather_packetize(views, opts);
  for (const GatherPacket& gp : packed.packets) {
    stats_.bytes_sent += gp.wire_size;
    ++stats_.packets_sent;
    stats_.tx_gather_bytes += gp.borrowed_payload_bytes;
    if (cfg_.obs != nullptr && cfg_.obs->tracer != nullptr) {
      TraceEvent e;
      e.t = sim_.now();
      e.kind = TraceEventKind::kPacketized;
      e.site = cfg_.obs_site;
      e.aux = gp.wire_size;
      cfg_.obs->tracer->record(e);
    }
    // Linearization is the scatter-gather DMA analogue at the network
    // handoff — the sender itself copied no payload bytes.
    if (cfg_.send_packet) cfg_.send_packet(gp.linearize());
  }
}

void ChunkTransportSender::send_chunks(std::vector<Chunk> chunks) {
  PacketizerOptions opts;
  opts.mtu = cfg_.mtu;
  opts.policy = cfg_.pack_policy;
  PacketizeResult packed = packetize(std::move(chunks), opts);
  // Materializing assembly copies every (deliverable) payload byte
  // into the flat packet buffers.
  stats_.tx_bytes_copied += packed.payload_bytes;
  for (auto& pkt : packed.packets) {
    if (cfg_.compress_wire) {
      // Re-encode the packet in the compact negotiated syntax; the
      // compressed form is never larger, and unrepresentable chunks
      // fall back to the canonical envelope (both parse at the peer).
      const ParsedPacket parsed = decode_packet(pkt);
      auto compact = compress_packet(parsed.chunks, *cfg_.compress_wire,
                                     cfg_.mtu);
      if (!compact.empty()) pkt = std::move(compact);
    }
    stats_.bytes_sent += pkt.size();
    ++stats_.packets_sent;
    if (cfg_.obs != nullptr && cfg_.obs->tracer != nullptr) {
      TraceEvent e;
      e.t = sim_.now();
      e.kind = TraceEventKind::kPacketized;
      e.site = cfg_.obs_site;
      e.aux = pkt.size();
      cfg_.obs->tracer->record(e);
    }
    if (cfg_.send_packet) cfg_.send_packet(std::move(pkt));
  }
}

void ChunkTransportSender::handle_gap_nak(const Chunk& signal) {
  const auto nak = parse_gap_nak(signal);
  if (!nak) return;
  const auto it = outstanding_.find(nak->tpdu_id);
  if (it == outstanding_.end()) return;  // already acked or abandoned
  // An honoured gap NAK consumes a retransmit attempt. Without this the
  // retry budget never trips on the selective path (each honoured NAK
  // also quiets the whole-TPDU backstop below), and a receiver that
  // keeps shedding held state under memory pressure re-arms its NAK
  // budget with every recreated TPDU context — an unbounded
  // NAK → slice → evict livelock. Over budget, give up truthfully
  // exactly like the whole-TPDU retransmission path.
  if (it->second.attempts > cfg_.max_retransmits) {
    ++stats_.gave_up;
    span(SpanEventKind::kTpduGaveUp, nak->tpdu_id);
    gave_up_ids_.push_back(nak->tpdu_id);
    on_tpdu_retired();
    outstanding_.erase(it);
    if (cfg_.flow.enabled) pump_admissions();
    return;
  }
  ++it->second.attempts;
  ++stats_.gap_naks_honoured;

  // Slices are views over the pending chunks: the cut is header math
  // plus a payload subspan, so building the resend list copies nothing.
  std::vector<ChunkView> resend;
  for (const Chunk& c : it->second.chunks) {
    if (c.h.type == ChunkType::kErrorDetection) {
      if (nak->need_ed_chunk) resend.push_back(as_view(c));
      continue;
    }
    if (c.h.type != ChunkType::kData) continue;
    const ChunkView v = as_view(c);
    bool taken = false;
    for (const GapRange& g : nak->gaps) {
      if (auto piece = slice_view(v, g.first_sn,
                                  static_cast<std::uint64_t>(g.first_sn) +
                                      g.length)) {
        stats_.selective_retx_elements += piece->h.len;
        stats_.retx_payload_bytes += piece->payload.size();
        trace_chunk(TraceEventKind::kChunkBuilt, piece->h, 1);
        resend.push_back(*piece);
        taken = true;
      }
    }
    if (!taken && nak->need_tail) {
      if (auto piece = slice_view(v, nak->tail_from, ~std::uint64_t{0})) {
        stats_.selective_retx_elements += piece->h.len;
        stats_.retx_payload_bytes += piece->payload.size();
        trace_chunk(TraceEventKind::kChunkBuilt, piece->h, 1);
        resend.push_back(*piece);
      }
    }
  }
  if (resend.empty()) return;
  it->second.retransmitted = true;  // Karn: later ACK is ambiguous
  if (use_gather()) {
    send_chunk_views(resend);
  } else {
    std::vector<Chunk> owned;
    owned.reserve(resend.size());
    for (const ChunkView& piece : resend) owned.push_back(piece.to_chunk());
    send_chunks(std::move(owned));
  }
  it->second.last_sent = sim_.now();  // quiet the whole-TPDU backstop
  arm_timer(nak->tpdu_id);
}

void ChunkTransportSender::on_packet(SimPacket pkt) {
  ParsedPacket parsed = decode_packet(pkt.bytes);
  if (!parsed.ok) return;
  for (const Chunk& c : parsed.chunks) {
    if (c.h.type == ChunkType::kSignal) {
      if (cfg_.flow.enabled && signal_kind(c) == SignalKind::kCreditGrant) {
        handle_credit_grant(c);
      } else if (cfg_.selective_retransmit) {
        handle_gap_nak(c);
      }
      continue;
    }
    if (c.h.type != ChunkType::kAck) continue;
    const AckInfo ack = parse_ack_chunk(c);
    auto it = outstanding_.find(ack.tpdu_id);
    if (it == outstanding_.end()) continue;
    if (ack.positive) {
      rto_.on_sample(sim_.now() - it->second.last_sent,
                     it->second.retransmitted);
      // Karn's rule: an ACK for a retransmitted TPDU is ambiguous, so
      // the estimator discarded that sample.
      if (it->second.retransmitted) {
        ++stats_.rto_discarded;
      } else {
        ++stats_.rto_samples;
      }
      ++stats_.tpdus_acked;
      span(SpanEventKind::kTpduAcked, ack.tpdu_id);
      on_tpdu_retired();
      outstanding_.erase(it);
      if (cfg_.flow.enabled) pump_admissions();
    } else {
      // NAK: retransmit immediately with the same identifiers.
      ++stats_.naks;
      if (it->second.attempts > cfg_.max_retransmits) {
        ++stats_.gave_up;
        span(SpanEventKind::kTpduGaveUp, ack.tpdu_id);
        gave_up_ids_.push_back(ack.tpdu_id);
        on_tpdu_retired();
        outstanding_.erase(it);
        if (cfg_.flow.enabled) pump_admissions();
        continue;
      }
      ++stats_.retransmissions;
      transmit_tpdu(ack.tpdu_id, it->second);
    }
  }
}

}  // namespace chunknet
