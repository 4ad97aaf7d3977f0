// Building chunks from an application data stream (paper §2, Figures
// 1 and 2): one stream, three simultaneous framings.
//
// The connection is "a single, large PDU" whose SN counts every data
// element since connection establishment. The stream is additionally
// divided into transport PDUs (the unit of error control) and into
// external PDUs (Application Layer Frames) — *independently*: as in
// Figure 1, a single element can sit in the middle of one framing and
// at the boundary of another. The framer emits a new chunk whenever any
// framing ID changes, and caps chunk length so benches can explore the
// chunk-size / header-overhead trade-off.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/chunk/types.hpp"
#include "src/edc/wsc2.hpp"

namespace chunknet {

struct FramerOptions {
  std::uint32_t connection_id{1};
  std::uint16_t element_size{4};      ///< SIZE: bytes per atomic element
  std::uint32_t tpdu_elements{2048};  ///< elements per transport PDU
  std::uint32_t xpdu_elements{512};   ///< elements per external PDU (used
                                      ///< when xpdu_boundaries is empty)
  std::vector<std::uint32_t> xpdu_boundaries;  ///< explicit X-PDU lengths
                                               ///< (elements), cycled
  std::uint16_t max_chunk_elements{0};  ///< 0 = unlimited (chunk per framing run)
  std::uint32_t first_conn_sn{0};     ///< C.SN of the first element
  std::uint32_t first_tpdu_id{1};
  std::uint32_t first_xpdu_id{1};
  /// Assign T.ID = C.SN − T.SN so the implicit-ID transform of
  /// Appendix A / Figure 7 applies. X.IDs are assigned the same way.
  bool implicit_ids{false};
  bool final_element_ends_connection{true};  ///< set C.ST on last element
};

/// The three-level framer as a cursor over one stream: it holds the
/// framing state and emits the next TPDU's data chunks on demand, so a
/// sender can frame each TPDU when it is about to transmit it (the
/// framings are independent of when the chunks are produced). The
/// stream length must be a multiple of element_size, and the bytes must
/// outlive the framer.
class StreamFramer {
 public:
  StreamFramer() = default;
  StreamFramer(std::span<const std::uint8_t> stream, FramerOptions opts);

  bool done() const { return element_ == total_; }
  /// T.ID the next TPDU carries.
  std::uint32_t next_tpdu_id() const { return tpdu_id_; }
  /// Payload bytes of the next TPDU (0 when done).
  std::uint64_t next_tpdu_bytes() const;
  /// TPDUs not yet framed.
  std::size_t tpdus_left() const;

  /// Appends the next TPDU's data chunks to `out` (nothing when done).
  void next_tpdu(std::vector<Chunk>& out) { frame_tpdu(&out); }
  /// Moves past the next TPDU without building its chunks.
  void skip_tpdu() { frame_tpdu(nullptr); }

 private:
  void frame_tpdu(std::vector<Chunk>* out);
  std::uint32_t xpdu_len() const;

  std::span<const std::uint8_t> stream_;
  FramerOptions opts_;
  std::uint32_t total_{0};    ///< elements in the stream
  std::uint32_t element_{0};  ///< next element to frame
  std::uint32_t conn_sn_{0};
  std::uint32_t tpdu_id_{0};
  std::uint32_t tpdu_sn_{0};
  std::uint32_t xpdu_id_{0};
  std::uint32_t xpdu_sn_{0};
  std::size_t xpdu_boundary_idx_{0};
};

/// Splits a byte stream into data chunks under the three-level framing
/// (a StreamFramer run to the end). The stream length must be a
/// multiple of element_size.
std::vector<Chunk> frame_stream(std::span<const std::uint8_t> stream,
                                const FramerOptions& opts);

/// Builds the TPDU error-detection control chunk (TYPE = ED, Figure 3):
/// payload is the 8-byte WSC-2 code (P0 ‖ P1). The chunk inherits the
/// connection/TPDU identity of the TPDU it covers.
Chunk make_ed_chunk(std::uint32_t connection_id, std::uint32_t tpdu_id,
                    std::uint32_t conn_sn_of_tpdu, const Wsc2Code& code);

/// Extracts the WSC-2 code from an ED chunk payload (8 bytes; anything
/// else yields the zero code). The span form reads in place, so the
/// zero-copy receive path can parse straight from the packet buffer.
Wsc2Code parse_ed_chunk(std::span<const std::uint8_t> payload);
inline Wsc2Code parse_ed_chunk(const Chunk& ed) {
  return parse_ed_chunk(std::span<const std::uint8_t>{ed.payload});
}
inline Wsc2Code parse_ed_chunk(const ChunkView& ed) {
  return parse_ed_chunk(ed.payload);
}

/// Builds a per-TPDU acknowledgement control chunk (TYPE = ACK).
/// `positive` false means NAK (retransmission request).
Chunk make_ack_chunk(std::uint32_t connection_id, std::uint32_t tpdu_id,
                     bool positive);

struct AckInfo {
  std::uint32_t tpdu_id{0};
  bool positive{true};
};
AckInfo parse_ack_chunk(const Chunk& ack);

}  // namespace chunknet
