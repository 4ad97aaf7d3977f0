#include "src/chunk/builder.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/bytes.hpp"

namespace chunknet {

StreamFramer::StreamFramer(std::span<const std::uint8_t> stream,
                           FramerOptions opts)
    : stream_(stream), opts_(std::move(opts)) {
  assert(opts_.element_size > 0);
  assert(stream_.size() % opts_.element_size == 0);
  assert(opts_.tpdu_elements > 0);
  total_ = static_cast<std::uint32_t>(stream_.size() / opts_.element_size);
  conn_sn_ = opts_.first_conn_sn;
  tpdu_id_ = opts_.first_tpdu_id;
  xpdu_id_ = opts_.first_xpdu_id;
  if (opts_.implicit_ids) {
    // Figure 7: choose IDs so that id == C.SN − PDU.SN. The difference
    // is then constant across the PDU and can replace the explicit ID.
    tpdu_id_ = conn_sn_;
    xpdu_id_ = conn_sn_;
  }
}

std::uint32_t StreamFramer::xpdu_len() const {
  if (opts_.xpdu_boundaries.empty()) return opts_.xpdu_elements;
  return opts_.xpdu_boundaries[xpdu_boundary_idx_ %
                               opts_.xpdu_boundaries.size()];
}

std::uint64_t StreamFramer::next_tpdu_bytes() const {
  const std::uint32_t left = total_ - element_;
  const std::uint32_t tpdu_left = opts_.tpdu_elements - tpdu_sn_;
  return static_cast<std::uint64_t>(std::min(left, tpdu_left)) *
         opts_.element_size;
}

std::size_t StreamFramer::tpdus_left() const {
  const std::uint64_t left = total_ - element_;
  return static_cast<std::size_t>((left + opts_.tpdu_elements - 1) /
                                  opts_.tpdu_elements);
}

void StreamFramer::frame_tpdu(std::vector<Chunk>* out) {
  bool tpdu_open = !done();
  while (tpdu_open) {
    // Length of the current run: up to the nearest framing boundary.
    const std::uint32_t tpdu_left = opts_.tpdu_elements - tpdu_sn_;
    const std::uint32_t xpdu_left = xpdu_len() - xpdu_sn_;
    std::uint32_t run = std::min(tpdu_left, xpdu_left);
    run = std::min(run, total_ - element_);
    if (opts_.max_chunk_elements > 0) {
      run = std::min<std::uint32_t>(run, opts_.max_chunk_elements);
    }
    run = std::min<std::uint32_t>(run, 0xFFFFu);  // LEN is a 16-bit field

    Chunk c;
    c.h.type = ChunkType::kData;
    c.h.size = opts_.element_size;
    c.h.len = static_cast<std::uint16_t>(run);
    c.h.conn = {opts_.connection_id, conn_sn_, false};
    c.h.tpdu = {tpdu_id_, tpdu_sn_, false};
    c.h.xpdu = {xpdu_id_, xpdu_sn_, false};
    if (out != nullptr) {
      const std::size_t size = opts_.element_size;
      const auto bytes = stream_.subspan(std::size_t{element_} * size,
                                         std::size_t{run} * size);
      c.payload.assign(bytes.begin(), bytes.end());
    }

    element_ += run;
    conn_sn_ += run;
    tpdu_sn_ += run;
    xpdu_sn_ += run;

    // Stop bits land on the chunk containing the final element of the
    // respective PDU (and only that chunk).
    if (xpdu_sn_ == xpdu_len()) {
      c.h.xpdu.st = true;
      xpdu_sn_ = 0;
      ++xpdu_boundary_idx_;
      xpdu_id_ = opts_.implicit_ids ? conn_sn_ : xpdu_id_ + 1;
    }
    if (tpdu_sn_ == opts_.tpdu_elements) {
      c.h.tpdu.st = true;
      tpdu_sn_ = 0;
      tpdu_id_ = opts_.implicit_ids ? conn_sn_ : tpdu_id_ + 1;
      tpdu_open = false;
    }
    if (done()) {
      if (opts_.final_element_ends_connection) c.h.conn.st = true;
      // A stream that ends mid-PDU still terminates those PDUs: the
      // sender closes open framing at end of stream.
      c.h.tpdu.st = true;
      c.h.xpdu.st = true;
      tpdu_open = false;
    }
    if (out != nullptr) out->push_back(std::move(c));
  }
}

std::vector<Chunk> frame_stream(std::span<const std::uint8_t> stream,
                                const FramerOptions& opts) {
  StreamFramer framer(stream, opts);
  std::vector<Chunk> out;
  while (!framer.done()) framer.next_tpdu(out);
  return out;
}

Chunk make_ed_chunk(std::uint32_t connection_id, std::uint32_t tpdu_id,
                    std::uint32_t conn_sn_of_tpdu, const Wsc2Code& code) {
  Chunk c;
  c.h.type = ChunkType::kErrorDetection;
  c.h.size = 8;
  c.h.len = 1;
  c.h.conn = {connection_id, conn_sn_of_tpdu, false};
  c.h.tpdu = {tpdu_id, 0, false};
  c.h.xpdu = {0, 0, false};
  c.payload.reserve(8);
  ByteWriter w(c.payload);
  w.u32(code.p0);
  w.u32(code.p1);
  return c;
}

Wsc2Code parse_ed_chunk(std::span<const std::uint8_t> payload) {
  Wsc2Code code;
  if (payload.size() != 8) return code;
  ByteReader r(payload);
  code.p0 = r.u32();
  code.p1 = r.u32();
  return code;
}

Chunk make_ack_chunk(std::uint32_t connection_id, std::uint32_t tpdu_id,
                     bool positive) {
  Chunk c;
  c.h.type = ChunkType::kAck;
  c.h.size = 5;
  c.h.len = 1;
  c.h.conn = {connection_id, 0, false};
  c.h.tpdu = {tpdu_id, 0, false};
  c.payload.reserve(5);
  ByteWriter w(c.payload);
  w.u32(tpdu_id);
  w.u8(positive ? 1 : 0);
  return c;
}

AckInfo parse_ack_chunk(const Chunk& ack) {
  AckInfo info;
  if (ack.payload.size() != 5) return info;
  ByteReader r(ack.payload);
  info.tpdu_id = r.u32();
  info.positive = r.u8() != 0;
  return info;
}

}  // namespace chunknet
