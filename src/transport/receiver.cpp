#include "src/transport/receiver.hpp"

#include <algorithm>

#include "src/chunk/codec.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {

const char* to_string(DeliveryMode m) {
  switch (m) {
    case DeliveryMode::kImmediate: return "immediate";
    case DeliveryMode::kReorder: return "reorder";
    case DeliveryMode::kReassemble: return "reassemble";
  }
  return "?";
}

const char* to_string(TpduVerdict v) {
  switch (v) {
    case TpduVerdict::kAccepted: return "accepted";
    case TpduVerdict::kCodeMismatch: return "code-mismatch";
    case TpduVerdict::kConsistencyFailure: return "consistency-failure";
    case TpduVerdict::kReassemblyError: return "reassembly-error";
  }
  return "?";
}

ChunkTransportReceiver::ChunkTransportReceiver(Simulator& sim,
                                               ReceiverConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      app_buffer_(cfg_.app_buffer_bytes, 0) {
  if (cfg_.obs != nullptr) spans_ = cfg_.obs->spans;
  if (MetricsRegistry* reg = metrics_of(cfg_.obs)) {
    const std::string p =
        std::string("receiver.") + to_string(cfg_.mode) + ".";
    stats_binding_.bind(
        reg, p, stats_,
        {{"packets", &Stats::packets},
         {"malformed_packets", &Stats::malformed_packets},
         {"data_chunks", &Stats::data_chunks},
         {"ed_chunks", &Stats::ed_chunks},
         {"foreign_chunks", &Stats::foreign_chunks},
         {"duplicate_chunks", &Stats::duplicate_chunks},
         {"overlap_chunks", &Stats::overlap_chunks},
         {"framing_error_chunks", &Stats::framing_error_chunks},
         {"tpdus_accepted", &Stats::tpdus_accepted},
         {"tpdus_rejected", &Stats::tpdus_rejected},
         {"acks_resent", &Stats::acks_resent},
         {"chunks_placed", &Stats::chunks_placed},
         {"oob_chunks", &Stats::oob_chunks},
         {"dropped_unplaced_chunks", &Stats::dropped_unplaced_chunks},
         {"dropped_unplaced_bytes", &Stats::dropped_unplaced_bytes},
         {"bus_bytes", &Stats::bus_bytes},
         {"bytes_placed", &Stats::bytes_placed},
         {"tpdus_evicted", &Stats::tpdus_evicted},
         {"held_chunks_evicted", &Stats::held_chunks_evicted},
         {"held_bytes_evicted", &Stats::held_bytes_evicted}});
    if (cfg_.governor != nullptr) {
      stats_binding_.bind(reg, p + "governor_refusals",
                          stats_.governor_refusals);
    }
    if (cfg_.grant_credit) {
      stats_binding_.bind(reg, "flow.grants_sent", stats_.credit_grants_sent);
    }
    m_.held_bytes = &reg->gauge(p + "held_bytes");
    m_.held_bytes_peak = &reg->gauge(p + "held_bytes_peak");
    m_.delivery_latency = &reg->histogram(p + "delivery_latency_ns");
  }
  if (cfg_.governor != nullptr) {
    cfg_.governor->bind_client(cfg_.connection_id, cfg_.shed_priority,
                               [this] { return shed_held(); });
  }
}

ChunkTransportReceiver::~ChunkTransportReceiver() {
  if (cfg_.governor != nullptr) {
    cfg_.governor->unbind_client(cfg_.connection_id);
  }
}

std::uint64_t ChunkTransportReceiver::shed_held() {
  const std::uint64_t before = stats_.held_bytes_now;
  switch (cfg_.mode) {
    case DeliveryMode::kImmediate:
      return 0;  // holds nothing — the paper's point
    case DeliveryMode::kReorder:
      if (reorder_queue_.empty()) return 0;
      flush_reorder_queue();
      break;
    case DeliveryMode::kReassemble:
      if (!evict_oldest_holder()) return 0;
      break;
  }
  return before - stats_.held_bytes_now;
}

void ChunkTransportReceiver::abort_for_governor(std::uint32_t tpdu_id,
                                                std::size_t incoming_bytes) {
  ++stats_.governor_refusals;
  if (TpduState* st = tpdus_.find(tpdu_id)) {
    for (const HeldChunk& hc : st->held) {
      drop_unplaced(hc.chunk.payload.size(), /*was_held=*/true);
      ++stats_.held_chunks_evicted;
      stats_.held_bytes_evicted += hc.chunk.payload.size();
    }
    ++stats_.tpdus_evicted;
    erase_tpdu_entry(tpdu_id, *st);
  }
  span(SpanEventKind::kTpduEvicted, tpdu_id, 1);
  drop_unplaced(incoming_bytes, /*was_held=*/false);
}

void ChunkTransportReceiver::maybe_send_grant() {
  if (!cfg_.grant_credit || !cfg_.send_control) return;
  CreditGrant grant;
  grant.connection_id = cfg_.connection_id;
  grant.grant_seq = ++grant_seq_;
  std::uint64_t window = cfg_.credit_window_bytes;
  std::uint16_t slots = cfg_.credit_tpdu_slots;
  if (cfg_.governor != nullptr) {
    window = std::min(window, cfg_.governor->grant_hint(cfg_.connection_id));
    if (cfg_.governor->over_soft()) {
      slots = std::max<std::uint16_t>(slots / 2, 1);
    }
  }
  grant.credit_limit_bytes = credited_bytes_ + window;
  grant.tpdu_slots = slots;
  ++stats_.credit_grants_sent;
  span(SpanEventKind::kCreditGrant, 0, grant.credit_limit_bytes);
  cfg_.send_control(make_signal_chunk(grant));
}

void ChunkTransportReceiver::trace_chunk(TraceEventKind kind,
                                         const ChunkHeader& h,
                                         std::uint64_t packet_id,
                                         std::uint64_t aux) const {
  if (cfg_.obs == nullptr || cfg_.obs->tracer == nullptr) return;
  TraceEvent e;
  e.t = sim_.now();
  e.kind = kind;
  e.site = cfg_.obs_site;
  e.packet_id = packet_id;
  e.tpdu_id = h.tpdu.id;
  e.conn_sn = h.conn.sn;
  e.len = h.len;
  e.aux = aux;
  cfg_.obs->tracer->record(e);
}

void ChunkTransportReceiver::trace_packet(TraceEventKind kind,
                                          std::uint64_t packet_id) const {
  if (cfg_.obs == nullptr || cfg_.obs->tracer == nullptr) return;
  TraceEvent e;
  e.t = sim_.now();
  e.kind = kind;
  e.site = cfg_.obs_site;
  e.packet_id = packet_id;
  cfg_.obs->tracer->record(e);
}

void ChunkTransportReceiver::span(SpanEventKind kind, std::uint32_t tpdu_id,
                                  std::uint64_t aux) const {
  if (spans_ == nullptr) return;
  SpanEvent e;
  e.t = sim_.now();
  e.kind = kind;
  e.connection_id = cfg_.connection_id;
  e.tpdu_id = tpdu_id;
  e.aux = aux;
  spans_->record(e);
}

void ChunkTransportReceiver::on_packet(SimPacket pkt) {
  ++stats_.packets;
  trace_packet(TraceEventKind::kPacketReceived, pkt.id);
  if (cfg_.compression && !pkt.bytes.empty() &&
      pkt.bytes[0] == kCompressedPacketMagic) {
    // Compact-syntax packets are re-materialized by the decompressor,
    // so they keep the owning path.
    DecompressedPacket parsed =
        decompress_packet(pkt.bytes, *cfg_.compression);
    if (!parsed.ok) {
      ++stats_.malformed_packets;
      trace_packet(TraceEventKind::kMalformedPacket, pkt.id);
    } else {
      for (Chunk& c : parsed.chunks) {
        on_chunk(std::move(c), pkt.created_at, pkt.id);
      }
    }
  } else if (!decode_packet_views(pkt.bytes, view_scratch_)) {
    ++stats_.malformed_packets;
    trace_packet(TraceEventKind::kMalformedPacket, pkt.id);
  } else {
    // Zero-copy path: every view aliases pkt.bytes, which stays alive
    // and unmoved until this loop finishes.
    for (const ChunkView& v : view_scratch_) {
      on_chunk_view(v, pkt.created_at, pkt.id);
    }
    view_scratch_.clear();
  }
  if (cfg_.pool != nullptr) cfg_.pool->release(std::move(pkt.bytes));
}

void ChunkTransportReceiver::on_chunk(Chunk c, SimTime packet_created_at,
                                      std::uint64_t packet_id) {
  on_chunk_view(as_view(c), packet_created_at, packet_id);
}

void ChunkTransportReceiver::on_chunk_view(const ChunkView& v,
                                           SimTime packet_created_at,
                                           std::uint64_t packet_id) {
  if (v.h.conn.id != cfg_.connection_id) {
    ++stats_.foreign_chunks;
    return;
  }
  switch (v.h.type) {
    case ChunkType::kData:
      handle_data_chunk(v, packet_created_at, packet_id);
      break;
    case ChunkType::kErrorDetection:
      handle_ed_chunk(v);
      break;
    default:
      break;  // signalling/ack chunks are not for the data receiver
  }
}

void ChunkTransportReceiver::hold_bytes(std::uint64_t n) {
  stats_.held_bytes_now += n;
  stats_.held_bytes_peak =
      std::max(stats_.held_bytes_peak, stats_.held_bytes_now);
  obs_add(m_.held_bytes, static_cast<std::int64_t>(n));
  obs_raise(m_.held_bytes_peak,
            static_cast<std::int64_t>(stats_.held_bytes_peak));
  if (cfg_.governor != nullptr) {
    cfg_.governor->charge(cfg_.connection_id, ResourceClass::kHeld, n);
  }
}

void ChunkTransportReceiver::unhold_bytes(std::uint64_t n) {
  stats_.held_bytes_now -= n;
  obs_add(m_.held_bytes, -static_cast<std::int64_t>(n));
  if (cfg_.governor != nullptr) {
    cfg_.governor->release(cfg_.connection_id, ResourceClass::kHeld, n);
  }
}

void ChunkTransportReceiver::drop_unplaced(std::size_t payload_bytes,
                                           bool was_held) {
  if (was_held) unhold_bytes(payload_bytes);
  ++stats_.dropped_unplaced_chunks;
  stats_.dropped_unplaced_bytes += payload_bytes;
}

void ChunkTransportReceiver::handle_data_chunk(const ChunkView& v,
                                               SimTime packet_created_at,
                                               std::uint64_t packet_id) {
  ++stats_.data_chunks;
  if (v.h.size != cfg_.element_size || !v.structurally_valid()) {
    ++stats_.framing_error_chunks;
    trace_chunk(TraceEventKind::kFramingRejected, v.h, packet_id);
    return;
  }

  if (cfg_.max_open_tpdus > 0 && tpdus_.size() >= cfg_.max_open_tpdus &&
      tpdus_.find(v.h.tpdu.id) == nullptr) {
    evict_for_open_cap();
  }
  const auto [stp, inserted] = tpdus_.try_emplace(v.h.tpdu.id);
  TpduState& st = *stp;
  if (inserted) st.order_node = active_.push_back(v.h.tpdu.id);
  if (st.elements == 0 && st.first_chunk_at == 0) {
    st.first_chunk_at = sim_.now();
    span(SpanEventKind::kTpduFirstChunk, v.h.tpdu.id);
  }
  arm_gap_nak_timer(v.h.tpdu.id, st);

  // --- virtual reassembly first: duplicates must never reach the
  // incremental code or overwrite placed data (§3.3).
  switch (st.tracker.add(v.h.tpdu.sn, v.h.len, v.h.tpdu.st)) {
    case PieceVerdict::kAccept:
      break;
    case PieceVerdict::kDuplicate:
      ++stats_.duplicate_chunks;
      trace_chunk(TraceEventKind::kDuplicateRejected, v.h, packet_id);
      return;
    case PieceVerdict::kOverlap:
      // Two conflicting framings of the same elements: one of them is
      // corrupt (e.g. a rewritten LEN shrank an accepted piece, and
      // this is the honest copy that can now never fit). Without the
      // framing_error flag the TPDU wedges open forever — the tracker
      // can't complete, every canonical retransmission re-overlaps,
      // and no verdict ever fires. Flagging it routes the TPDU through
      // the ReassemblyError reject → erase → clean-retransmission
      // recovery path, same as the other framing corruptions.
      ++stats_.overlap_chunks;
      trace_chunk(TraceEventKind::kOverlapRejected, v.h, packet_id);
      st.framing_error = true;
      try_finish(v.h.tpdu.id, st);
      return;
    case PieceVerdict::kAfterStop:
    case PieceVerdict::kStopConflict:
      ++stats_.framing_error_chunks;
      trace_chunk(TraceEventKind::kFramingRejected, v.h, packet_id);
      st.framing_error = true;
      // If the ED chunk already landed, resolve now rather than waiting
      // for the next (possibly never-arriving) chunk to trigger it.
      try_finish(v.h.tpdu.id, st);
      return;
  }
  st.elements += v.h.len;

  // --- incremental protocol processing on the disordered chunk,
  // reading the payload in place (still inside the packet buffer).
  const bool absorbed_ok = st.invariant.absorb(v);
  if (!absorbed_ok) st.layout_error = true;
  trace_chunk(TraceEventKind::kInvariantAbsorbed, v.h, packet_id,
              absorbed_ok ? 1 : 0);
  st.consistency.check(v);

  const std::uint32_t tpdu_id = v.h.tpdu.id;

  // --- data placement, by delivery mode. Immediate placement copies
  // straight from the view — the payload's ONLY copy. The holding modes
  // materialize an owning Chunk (to_chunk); that copy is the extra bus
  // crossing the accounting charges held bytes for.
  switch (cfg_.mode) {
    case DeliveryMode::kImmediate:
      place_chunk(v.h, v.payload, packet_created_at, /*was_held=*/false,
                  packet_id);
      break;
    case DeliveryMode::kReorder: {
      // All ordering decisions happen in stream-offset space (wrapping
      // distance from first_conn_sn), never on raw C.SN: a connection
      // whose SNs cross the 2^32 boundary mid-stream would otherwise
      // see post-wrap chunks compare "before" the release point and be
      // re-placed out of turn (wraparound audit).
      const std::uint64_t off = stream_offset(v.h.conn.sn);
      if (off < next_release_off_) {
        // Retransmission of stream range already released (the original
        // TPDU was rejected): re-place directly, it cannot be queued.
        place_chunk(v.h, v.payload, packet_created_at, /*was_held=*/false,
                    packet_id);
      } else if (off == next_release_off_) {
        place_chunk(v.h, v.payload, packet_created_at, /*was_held=*/false,
                    packet_id);
        next_release_off_ += v.h.len;
        release_in_order();
      } else if ((cfg_.max_held_bytes > 0 &&
                  stats_.held_bytes_now + v.payload.size() >
                      cfg_.max_held_bytes) ||
                 (cfg_.governor != nullptr &&
                  !cfg_.governor->fits(v.payload.size()) &&
                  !cfg_.governor->make_room(v.payload.size(),
                                            cfg_.connection_id))) {
        // Cap pressure: force-place the whole queue (placement is
        // position-keyed by C.SN, so out-of-order release keeps the
        // application bytes exact) and this chunk with it, rather than
        // let a loss burst grow the queue without bound.
        flush_reorder_queue();
        place_chunk(v.h, v.payload, packet_created_at, /*was_held=*/false,
                    packet_id);
        next_release_off_ = std::max(next_release_off_, off + v.h.len);
      } else {
        // Overwrite any stale entry at this offset (a retransmission
        // after rejection must supersede the queued original, which may
        // be the corrupted copy that caused the rejection). The
        // superseded copy is dropped unplaced — and its bytes un-held —
        // so both hold accounting and the conservation balance close.
        trace_chunk(TraceEventKind::kChunkHeld, v.h, packet_id);
        if (HeldChunk* hc = reorder_queue_.find(off)) {
          drop_unplaced(hc->chunk.payload.size(), /*was_held=*/true);
          *hc = HeldChunk{v.to_chunk(), packet_created_at, packet_id};
          hold_bytes(hc->chunk.payload.size());
        } else {
          const auto [ins, _] = reorder_queue_.insert_or_assign(
              off, HeldChunk{v.to_chunk(), packet_created_at, packet_id});
          hold_bytes(ins->chunk.payload.size());
          reorder_heap_.push_back(off);
          std::push_heap(reorder_heap_.begin(), reorder_heap_.end(),
                         std::greater<>{});
        }
      }
      break;
    }
    case DeliveryMode::kReassemble:
      if (cfg_.max_held_bytes > 0) {
        while (stats_.held_bytes_now + v.payload.size() >
               cfg_.max_held_bytes) {
          const auto evicted = evict_oldest_holder();
          if (!evicted) break;  // nothing held: cap below one chunk
          // The incoming chunk's own TPDU was the oldest holder: its
          // state (this chunk included) is gone; the sender's
          // retransmission will start it clean. The chunk itself was
          // triaged-accepted above, so account its disposition.
          if (*evicted == tpdu_id) {
            drop_unplaced(v.payload.size(), /*was_held=*/false);
            return;
          }
        }
      }
      if (cfg_.governor != nullptr) {
        // Hard-watermark gate: evict our own oldest holders first, then
        // let the governor shed other clients under its policy. If no
        // room can be made, abort THIS TPDU — the hard bound is never
        // crossed, and the retransmission starts clean once the
        // sender's credit recovers.
        while (!cfg_.governor->fits(v.payload.size())) {
          const auto evicted = evict_oldest_holder();
          if (!evicted) break;
          if (*evicted == tpdu_id) {
            drop_unplaced(v.payload.size(), /*was_held=*/false);
            return;
          }
        }
        if (!cfg_.governor->fits(v.payload.size()) &&
            !cfg_.governor->make_room(v.payload.size(),
                                      cfg_.connection_id)) {
          abort_for_governor(tpdu_id, v.payload.size());
          return;
        }
      }
      {
        // The eviction/shedding paths above may have erased entries
        // (including, via the governor's shed hooks, this very TPDU) and
        // the flat table moves entries on erase — re-resolve the state
        // before appending the hold.
        TpduState* hst = tpdus_.find(tpdu_id);
        if (hst == nullptr) {
          drop_unplaced(v.payload.size(), /*was_held=*/false);
          return;
        }
        hold_bytes(v.payload.size());
        trace_chunk(TraceEventKind::kChunkHeld, v.h, packet_id);
        if (hst->held.empty()) {
          hst->holder_node = holders_.push_back(tpdu_id);
        }
        hst->held.push_back(HeldChunk{v.to_chunk(), packet_created_at,
                                      packet_id});
      }
      break;
  }

  if (TpduState* fst = tpdus_.find(tpdu_id)) try_finish(tpdu_id, *fst);
}

void ChunkTransportReceiver::prune_reorder_heap() {
  while (!reorder_heap_.empty() &&
         reorder_queue_.find(reorder_heap_.front()) == nullptr) {
    std::pop_heap(reorder_heap_.begin(), reorder_heap_.end(),
                  std::greater<>{});
    reorder_heap_.pop_back();
  }
}

void ChunkTransportReceiver::release_in_order() {
  // The queue's flat table is unordered; the min-heap supplies offset
  // order. Offsets erased behind the heap's back (abort purges, full
  // flushes) surface as stale heap tops and are skipped by the prune.
  for (prune_reorder_heap(); !reorder_heap_.empty(); prune_reorder_heap()) {
    const std::uint64_t off = reorder_heap_.front();
    HeldChunk* hc = reorder_queue_.find(off);
    const std::uint64_t end = off + hc->chunk.h.len;
    if (end <= next_release_off_) {
      // Fully covered by data already placed: a larger retransmitted
      // chunk (or a direct re-placement) advanced the release point
      // past this entry, e.g. a GapNak slice queued alongside the
      // original. Without this branch the entry sits below the release
      // point forever — a held-state leak.
      drop_unplaced(hc->chunk.payload.size(), /*was_held=*/true);
      reorder_queue_.erase(off);
      continue;
    }
    if (off > next_release_off_) break;
    // off ≤ next_release_off_ < end: due (a partial overlap re-writes
    // the already-placed prefix with identical bytes — placement is
    // position-keyed).
    unhold_bytes(hc->chunk.payload.size());
    place_chunk(hc->chunk.h, hc->chunk.payload, hc->packet_created_at,
                /*was_held=*/true, hc->packet_id);
    next_release_off_ = end;
    reorder_queue_.erase(off);
  }
}

void ChunkTransportReceiver::place_chunk(
    const ChunkHeader& h, std::span<const std::uint8_t> payload,
    SimTime packet_created_at, bool was_held, std::uint64_t packet_id) {
  const std::uint64_t element_off = stream_offset(h.conn.sn);
  const std::uint64_t byte_off = element_off * cfg_.element_size;
  if (byte_off + payload.size() > app_buffer_.size()) {
    ++stats_.oob_chunks;
    return;
  }
  ++stats_.chunks_placed;
  stats_.bytes_placed += payload.size();

  std::copy(payload.begin(), payload.end(),
            app_buffer_.begin() + static_cast<std::ptrdiff_t>(byte_off));
  app_coverage_.add(element_off, element_off + h.len);

  // Bus accounting: a held byte crossed once into the hold buffer and
  // once more now; an immediate byte crosses once.
  const std::uint64_t crossings = payload.size() * (was_held ? 2 : 1);
  stats_.bus_bytes += crossings;
  trace_chunk(TraceEventKind::kChunkPlaced, h, packet_id,
              was_held ? 1 : 0);
  const double latency =
      static_cast<double>(sim_.now() - packet_created_at);
  obs_observe(m_.delivery_latency, latency, h.len);
  if (cfg_.record_latency_samples) {
    for (std::uint32_t i = 0; i < h.len; ++i) {
      stats_.delivery_latency_ns.push_back(latency);
    }
  }
}

void ChunkTransportReceiver::handle_ed_chunk(const ChunkView& v) {
  ++stats_.ed_chunks;
  if (cfg_.max_open_tpdus > 0 && tpdus_.size() >= cfg_.max_open_tpdus &&
      tpdus_.find(v.h.tpdu.id) == nullptr) {
    evict_for_open_cap();
  }
  const auto [stp, inserted] = tpdus_.try_emplace(v.h.tpdu.id);
  TpduState& st = *stp;
  if (inserted) st.order_node = active_.push_back(v.h.tpdu.id);
  if (st.finished) {
    // Finished tombstones exist only for ACCEPTED TPDUs (rejected state
    // is erased). A re-arriving ED chunk means our positive ACK was
    // lost: the sender is still retransmitting a TPDU we delivered.
    // Re-ACK so it stops — otherwise it retries to give-up and the
    // delivery report turns falsely negative (chaos oracle 1/4).
    if (cfg_.send_control) {
      ++stats_.acks_resent;
      cfg_.send_control(
          make_ack_chunk(cfg_.connection_id, v.h.tpdu.id, /*accepted=*/true));
      // The grants sent with the original finish may be lost too —
      // re-advertise so the sender's window re-opens.
      maybe_send_grant();
    }
    return;
  }
  if (st.first_chunk_at == 0) {
    st.first_chunk_at = sim_.now();
    span(SpanEventKind::kTpduFirstChunk, v.h.tpdu.id);
  }
  st.received_code = parse_ed_chunk(v);
  arm_gap_nak_timer(v.h.tpdu.id, st);
  try_finish(v.h.tpdu.id, st);
}

void ChunkTransportReceiver::try_finish(std::uint32_t tpdu_id, TpduState& st) {
  if (st.finished || !st.received_code) return;
  if (!st.tracker.complete() && !st.framing_error) return;

  TpduVerdict verdict = TpduVerdict::kAccepted;
  if (st.framing_error || st.layout_error) {
    verdict = TpduVerdict::kReassemblyError;
  } else if (!st.consistency.consistent()) {
    verdict = TpduVerdict::kConsistencyFailure;
  } else if (!(st.invariant.value() == *st.received_code)) {
    verdict = TpduVerdict::kCodeMismatch;
  }

  // In reassemble mode the TPDU's data is physically released only if
  // it passes. A rejected TPDU's held chunks may be misframed (e.g. a
  // rewritten LEN inflating a chunk past its own TPDU's range) and
  // would scribble over neighbours that already passed; the
  // retransmission re-delivers the dropped bytes.
  if (cfg_.mode == DeliveryMode::kReassemble) {
    for (const HeldChunk& hc : st.held) {
      if (verdict == TpduVerdict::kAccepted) {
        unhold_bytes(hc.chunk.payload.size());
        place_chunk(hc.chunk.h, hc.chunk.payload, hc.packet_created_at,
                    /*was_held=*/true, hc.packet_id);
      } else {
        drop_unplaced(hc.chunk.payload.size(), /*was_held=*/true);
      }
    }
    st.held.clear();
  }

  st.finished = true;
  // Queue upkeep: finished TPDUs hold nothing, and only ACCEPTED ones
  // keep a tombstone (in finish order); rejected state is erased below,
  // so its creation-order node is simply unlinked.
  if (st.holder_node != PickQueue::kNil) {
    holders_.remove(st.holder_node);
    st.holder_node = PickQueue::kNil;
  }
  if (st.order_node != PickQueue::kNil) active_.remove(st.order_node);
  st.order_node = verdict == TpduVerdict::kAccepted
                      ? tombstones_.push_back(tpdu_id)
                      : PickQueue::kNil;
  if (verdict == TpduVerdict::kAccepted) {
    ++stats_.tpdus_accepted;
    span(SpanEventKind::kTpduDelivered, tpdu_id,
         static_cast<std::uint64_t>(verdict));
  } else {
    ++stats_.tpdus_rejected;
    span(SpanEventKind::kTpduRejected, tpdu_id,
         static_cast<std::uint64_t>(verdict));
  }
  if (cfg_.obs != nullptr && cfg_.obs->tracer != nullptr) {
    TraceEvent e;
    e.t = sim_.now();
    e.kind = verdict == TpduVerdict::kAccepted
                 ? TraceEventKind::kTpduAccepted
                 : TraceEventKind::kTpduRejected;
    e.site = cfg_.obs_site;
    e.tpdu_id = tpdu_id;
    e.len = static_cast<std::uint32_t>(st.elements);
    e.aux = static_cast<std::uint64_t>(verdict);
    cfg_.obs->tracer->record(e);
  }

  if (cfg_.on_tpdu) {
    TpduOutcome outcome;
    outcome.tpdu_id = tpdu_id;
    outcome.verdict = verdict;
    outcome.first_chunk_at = st.first_chunk_at;
    outcome.completed_at = sim_.now();
    outcome.elements = st.elements;
    cfg_.on_tpdu(outcome);
  }
  if (cfg_.send_control) {
    cfg_.send_control(make_ack_chunk(cfg_.connection_id, tpdu_id,
                                     verdict == TpduVerdict::kAccepted));
  }
  // Flow control: a finished TPDU's bytes leave the in-flight window
  // (whatever the verdict — a rejected TPDU's retransmission reuses its
  // already-consumed credit), so advance the cumulative base and
  // advertise the fresh window.
  credited_bytes_ += st.elements * cfg_.element_size;
  maybe_send_grant();
  if (verdict != TpduVerdict::kAccepted) {
    // Drop poisoned state so a retransmission with the same identifiers
    // (§3.3) starts clean.
    tpdus_.erase(tpdu_id);
  }
}

void ChunkTransportReceiver::arm_gap_nak_timer(std::uint32_t tpdu_id,
                                               TpduState& st) {
  if (cfg_.gap_nak_delay == 0 || !cfg_.send_control || st.nak_timer_armed ||
      st.finished || st.gap_naks_sent >= cfg_.max_gap_naks) {
    return;
  }
  st.nak_timer_armed = true;
  if (cfg_.timers != nullptr) {
    // Shared-wheel path: O(1) arm, one pump event for the whole
    // endpoint instead of one simulator heap node per pending NAK.
    cfg_.timers->arm_in(cfg_.gap_nak_delay,
                        [this, tpdu_id] { fire_gap_nak(tpdu_id); });
  } else {
    sim_.schedule_in(cfg_.gap_nak_delay,
                     [this, tpdu_id] { fire_gap_nak(tpdu_id); });
  }
}

void ChunkTransportReceiver::fire_gap_nak(std::uint32_t tpdu_id) {
  TpduState* stp = tpdus_.find(tpdu_id);
  if (stp == nullptr) return;  // rejected & erased meanwhile
  TpduState& st = *stp;
  st.nak_timer_armed = false;
  if (st.finished) return;

  // Ask for exactly what virtual reassembly says is missing.
  GapNak nak;
  nak.connection_id = cfg_.connection_id;
  nak.tpdu_id = tpdu_id;
  nak.need_ed_chunk = !st.received_code.has_value();
  if (!st.tracker.stop_element()) {
    nak.need_tail = true;
    nak.tail_from = static_cast<std::uint32_t>(st.tracker.max_seen());
  }
  for (const auto& [lo, hi] : st.tracker.missing_runs()) {
    nak.gaps.push_back({static_cast<std::uint32_t>(lo),
                        static_cast<std::uint32_t>(hi - lo)});
  }
  ++st.gap_naks_sent;
  cfg_.send_control(make_signal_chunk(nak));
  arm_gap_nak_timer(tpdu_id, st);
}

void ChunkTransportReceiver::flush_reorder_queue() {
  // Placement is position-keyed, so the flat table's unordered walk is
  // fine here: every queued chunk force-places to its own offset.
  for (auto& e : reorder_queue_) {
    HeldChunk& hc = e.value;
    unhold_bytes(hc.chunk.payload.size());
    ++stats_.held_chunks_evicted;
    stats_.held_bytes_evicted += hc.chunk.payload.size();
    trace_chunk(TraceEventKind::kChunkEvicted, hc.chunk.h, hc.packet_id, 1);
    place_chunk(hc.chunk.h, hc.chunk.payload, hc.packet_created_at,
                /*was_held=*/true, hc.packet_id);
    next_release_off_ =
        std::max(next_release_off_, e.key + hc.chunk.h.len);
  }
  reorder_queue_.clear();
  reorder_heap_.clear();
}

std::optional<std::uint32_t> ChunkTransportReceiver::evict_oldest_holder() {
  // holders_ is first-hold order, and a TPDU's first hold happens at
  // its first chunk (reassemble mode holds every accepted chunk), so
  // the queue head IS the oldest holder: O(1), no table scan.
  if (holders_.empty()) return std::nullopt;
  ++stats_.evict_scan_steps;
  const std::uint32_t id = holders_.value(holders_.front());
  TpduState& st = *tpdus_.find(id);
  for (const HeldChunk& hc : st.held) {
    drop_unplaced(hc.chunk.payload.size(), /*was_held=*/true);
    ++stats_.held_chunks_evicted;
    stats_.held_bytes_evicted += hc.chunk.payload.size();
    trace_chunk(TraceEventKind::kChunkEvicted, hc.chunk.h, hc.packet_id, 0);
  }
  ++stats_.tpdus_evicted;
  span(SpanEventKind::kTpduEvicted, id, 0);
  erase_tpdu_entry(id, st);
  return id;
}

void ChunkTransportReceiver::evict_for_open_cap() {
  // Finished tombstones go first (they hold no data and exist only to
  // absorb late duplicates), then INCOMPLETE unfinished TPDUs; a
  // complete-but-not-yet-delivered TPDU (all data arrived, ED chunk
  // still in flight) is the worst possible victim — evicting it throws
  // away a full retransmission's worth of progress — so it goes last.
  // Among equals, oldest first chunk. Tombstones pop from their queue
  // head in O(1); otherwise the creation-order walk (== first-chunk
  // order; sim time is monotonic) stops at the FIRST incomplete TPDU,
  // so under a TPDU flood — where the oldest entries are incomplete —
  // shedding is O(evicted), not O(live table).
  std::uint32_t victim_id = 0;
  if (!tombstones_.empty()) {
    ++stats_.evict_scan_steps;
    victim_id = tombstones_.value(tombstones_.front());
  } else {
    std::int32_t complete_fallback = PickQueue::kNil;
    std::int32_t chosen = PickQueue::kNil;
    for (std::int32_t n = active_.front(); n != PickQueue::kNil;
         n = active_.next(n)) {
      ++stats_.evict_scan_steps;
      const TpduState& st = *tpdus_.find(active_.value(n));
      if (!st.tracker.complete()) {
        chosen = n;
        break;
      }
      if (complete_fallback == PickQueue::kNil) complete_fallback = n;
    }
    if (chosen == PickQueue::kNil) chosen = complete_fallback;
    if (chosen == PickQueue::kNil) return;
    victim_id = active_.value(chosen);
  }
  TpduState& st = *tpdus_.find(victim_id);
  for (const HeldChunk& hc : st.held) {
    drop_unplaced(hc.chunk.payload.size(), /*was_held=*/true);
    ++stats_.held_chunks_evicted;
    stats_.held_bytes_evicted += hc.chunk.payload.size();
    trace_chunk(TraceEventKind::kChunkEvicted, hc.chunk.h, hc.packet_id, 0);
  }
  ++stats_.tpdus_evicted;
  span(SpanEventKind::kTpduEvicted, victim_id, 0);
  erase_tpdu_entry(victim_id, st);
}

void ChunkTransportReceiver::erase_tpdu_entry(std::uint32_t tpdu_id,
                                              TpduState& st) {
  if (st.holder_node != PickQueue::kNil) holders_.remove(st.holder_node);
  if (st.order_node != PickQueue::kNil) {
    (st.finished ? tombstones_ : active_).remove(st.order_node);
  }
  tpdus_.erase(tpdu_id);
}

void ChunkTransportReceiver::abort_tpdu(std::uint32_t tpdu_id) {
  // No early-out on a missing context entry: a rejected-then-abandoned
  // TPDU was already erased by try_finish, but its chunks may still sit
  // in the reorder queue below.
  if (TpduState* st = tpdus_.find(tpdu_id)) {
    for (const HeldChunk& hc : st->held) {
      drop_unplaced(hc.chunk.payload.size(), /*was_held=*/true);
    }
    erase_tpdu_entry(tpdu_id, *st);
  }
  if (cfg_.mode != DeliveryMode::kReorder) return;
  // Purge the aborted TPDU's queued chunks (they can never be released
  // in order now), then skip the permanent hole the abort leaves: the
  // sender will not resend this stream range, so anything queued behind
  // it would otherwise wait forever (held-state leak). Placement is
  // position-keyed, so releasing past the hole keeps bytes exact — the
  // same ordering-degradation contract as flush_reorder_queue().
  // Collect first: FlatMap::erase backward-shifts entries, which would
  // derail an in-place iteration.
  std::vector<std::uint64_t> purge;
  for (const auto& e : reorder_queue_) {
    if (e.value.chunk.h.tpdu.id == tpdu_id) purge.push_back(e.key);
  }
  for (const std::uint64_t off : purge) {
    HeldChunk* hc = reorder_queue_.find(off);
    drop_unplaced(hc->chunk.payload.size(), /*was_held=*/true);
    reorder_queue_.erase(off);
  }
  prune_reorder_heap();  // the purged offsets may include the heap top
  if (!reorder_heap_.empty() && next_release_off_ < reorder_heap_.front()) {
    next_release_off_ = reorder_heap_.front();
    release_in_order();
  }
}

std::size_t ChunkTransportReceiver::unfinished_tpdus() const {
  return active_.size();
}

std::vector<std::uint32_t> ChunkTransportReceiver::unfinished_tpdu_ids()
    const {
  std::vector<std::uint32_t> ids;
  ids.reserve(active_.size());
  for (std::int32_t n = active_.front(); n != PickQueue::kNil;
       n = active_.next(n)) {
    ids.push_back(active_.value(n));
  }
  return ids;
}

std::size_t ChunkTransportReceiver::state_bytes() const {
  return tpdus_.memory_bytes() + reorder_queue_.memory_bytes() +
         reorder_heap_.capacity() * sizeof(std::uint64_t) +
         active_.memory_bytes() + tombstones_.memory_bytes() +
         holders_.memory_bytes();
}

}  // namespace chunknet
