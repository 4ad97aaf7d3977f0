#include "src/reassembly/virtual_reassembly.hpp"

namespace chunknet {

PieceVerdict PduTracker::add(std::uint32_t sn, std::uint32_t len, bool stop) {
  if (len == 0) return PieceVerdict::kDuplicate;
  // 64-bit: a hostile piece at sn near 2^32 must not wrap `last` back
  // below the stop position and dodge the after-stop check.
  const std::uint64_t last = static_cast<std::uint64_t>(sn) + len - 1;
  // SNs are 32-bit on the wire: a piece whose final element would sit
  // past 2^32−1 cannot have been framed by any sender — misframing.
  if (last > 0xFFFFFFFFull) return PieceVerdict::kAfterStop;

  if (stop_) {
    if (last > *stop_) return PieceVerdict::kAfterStop;
    if (stop && last != *stop_) return PieceVerdict::kStopConflict;
  }
  if (stop && !stop_) {
    // A stop at `last` means no element beyond `last` exists; anything
    // already seen past it is a framing inconsistency.
    if (seen_.intersects(static_cast<std::uint64_t>(last) + 1,
                         ~std::uint64_t{0})) {
      return PieceVerdict::kStopConflict;
    }
    stop_ = static_cast<std::uint32_t>(last);  // ≤ 2^32−1, checked above
  }

  // merge_on_overlap=false: an overlapping piece is rejected whole (it
  // cannot be partially absorbed into the incremental code), so coverage
  // must not claim its novel portion — a retransmitted slice will fill
  // the gap as kNew later.
  switch (seen_.add(sn, static_cast<std::uint64_t>(sn) + len,
                    /*merge_on_overlap=*/false)) {
    case IntervalSet::AddResult::kDuplicate:
      ++duplicates_;
      return PieceVerdict::kDuplicate;
    case IntervalSet::AddResult::kOverlap:
      ++overlaps_;
      return PieceVerdict::kOverlap;
    case IntervalSet::AddResult::kNew:
      break;
  }
  return PieceVerdict::kAccept;
}

std::uint64_t PduTracker::max_seen() const { return seen_.max_covered(); }

std::vector<std::pair<std::uint64_t, std::uint64_t>> PduTracker::missing_runs()
    const {
  const std::uint64_t hi =
      stop_ ? static_cast<std::uint64_t>(*stop_) + 1 : seen_.max_covered();
  return seen_.gaps_within(0, hi);
}

bool PduTracker::complete() const {
  return stop_ && seen_.covers(0, static_cast<std::uint64_t>(*stop_) + 1);
}

void VirtualReassembler::set_obs(ObsContext* obs, std::uint16_t site) {
  obs_ = obs;
  obs_site_ = site;
  stats_binding_.bind(metrics_of(obs_), "vreass.", stats_,
                      {{"pieces_accepted", &Stats::pieces_accepted},
                       {"duplicates_rejected", &Stats::duplicates_rejected},
                       {"overlaps_rejected", &Stats::overlaps_rejected},
                       {"framing_errors", &Stats::framing_errors}});
}

PieceVerdict VirtualReassembler::add(const PduKey& key, std::uint32_t sn,
                                     std::uint32_t len, bool stop) {
  const PieceVerdict v = trackers_[key].add(sn, len, stop);
  TraceEventKind kind = TraceEventKind::kInvariantAbsorbed;
  bool traced = false;
  switch (v) {
    case PieceVerdict::kAccept:
      ++stats_.pieces_accepted;
      break;
    case PieceVerdict::kDuplicate:
      ++stats_.duplicates_rejected;
      kind = TraceEventKind::kDuplicateRejected;
      traced = true;
      break;
    case PieceVerdict::kOverlap:
      ++stats_.overlaps_rejected;
      kind = TraceEventKind::kOverlapRejected;
      traced = true;
      break;
    case PieceVerdict::kAfterStop:
    case PieceVerdict::kStopConflict:
      ++stats_.framing_errors;
      kind = TraceEventKind::kFramingRejected;
      traced = true;
      break;
  }
  if (traced && obs_ != nullptr && obs_->tracer != nullptr) {
    TraceEvent e;  // t stays 0: the reassembler has no clock
    e.kind = kind;
    e.site = obs_site_;
    e.tpdu_id = key.pdu_id;
    e.conn_sn = sn;
    e.len = len;
    obs_->tracer->record(e);
  }
  return v;
}

bool VirtualReassembler::complete(const PduKey& key) const {
  const auto it = trackers_.find(key);
  return it != trackers_.end() && it->second.complete();
}

const PduTracker* VirtualReassembler::find(const PduKey& key) const {
  const auto it = trackers_.find(key);
  return it != trackers_.end() ? &it->second : nullptr;
}

}  // namespace chunknet
