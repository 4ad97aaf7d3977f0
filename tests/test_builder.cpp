// Tests for the stream framer (Figures 1–2): three simultaneous
// framings over one stream, stop-bit placement, implicit-ID assignment
// (Figure 7), and the control-chunk constructors.
#include "src/chunk/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.hpp"
#include "src/transport/invariant.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> stream_of(std::size_t bytes) {
  std::vector<std::uint8_t> v(bytes);
  for (std::size_t i = 0; i < bytes; ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

TEST(FrameStream, EmptyStreamYieldsNoChunks) {
  FramerOptions fo;
  EXPECT_TRUE(frame_stream({}, fo).empty());
}

TEST(FrameStream, SingleChunkWhenNoBoundariesCrossed) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 100;
  fo.xpdu_elements = 100;
  const auto chunks = frame_stream(stream_of(40), fo);  // 10 elements
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].h.len, 10);
  EXPECT_EQ(chunks[0].h.conn.sn, 0u);
  EXPECT_EQ(chunks[0].h.tpdu.sn, 0u);
  EXPECT_EQ(chunks[0].h.xpdu.sn, 0u);
  // Stream end closes every framing level.
  EXPECT_TRUE(chunks[0].h.conn.st);
  EXPECT_TRUE(chunks[0].h.tpdu.st);
  EXPECT_TRUE(chunks[0].h.xpdu.st);
}

TEST(FrameStream, ChunksBreakAtEveryFramingBoundary) {
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 6;
  fo.xpdu_elements = 4;  // boundaries at 4, 8, 12… and 6, 12…
  const auto chunks = frame_stream(stream_of(12), fo);
  // Runs: [0,4) [4,6) [6,8) [8,12) — chunk breaks at 4, 6, 8, 12.
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].h.len, 4);
  EXPECT_EQ(chunks[1].h.len, 2);
  EXPECT_EQ(chunks[2].h.len, 2);
  EXPECT_EQ(chunks[3].h.len, 4);

  EXPECT_TRUE(chunks[0].h.xpdu.st);   // ends X-PDU 1
  EXPECT_FALSE(chunks[0].h.tpdu.st);
  EXPECT_TRUE(chunks[1].h.tpdu.st);   // ends TPDU 1
  EXPECT_FALSE(chunks[1].h.xpdu.st);
  EXPECT_TRUE(chunks[2].h.xpdu.st);   // ends X-PDU 2
  EXPECT_TRUE(chunks[3].h.tpdu.st);   // stream end
  EXPECT_TRUE(chunks[3].h.xpdu.st);
  EXPECT_TRUE(chunks[3].h.conn.st);
}

TEST(FrameStream, SequenceNumbersAdvanceInLockStep) {
  FramerOptions fo;
  fo.element_size = 2;
  fo.tpdu_elements = 8;
  fo.xpdu_elements = 4;
  fo.first_conn_sn = 1000;
  const auto chunks = frame_stream(stream_of(64), fo);  // 32 elements
  std::uint32_t expected_csn = 1000;
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.h.conn.sn, expected_csn);
    // C.SN − T.SN constant within a TPDU; verify per-chunk arithmetic.
    EXPECT_EQ(c.h.conn.sn - c.h.tpdu.sn,
              1000 + (expected_csn - 1000) / 8 * 8);
    expected_csn += c.h.len;
  }
}

TEST(FrameStream, TpduIdsIncrement) {
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 4;
  fo.xpdu_elements = 4;
  fo.first_tpdu_id = 10;
  const auto chunks = frame_stream(stream_of(12), fo);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].h.tpdu.id, 10u);
  EXPECT_EQ(chunks[1].h.tpdu.id, 11u);
  EXPECT_EQ(chunks[2].h.tpdu.id, 12u);
}

TEST(FrameStream, ExplicitXpduBoundariesCycle) {
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 100;
  fo.xpdu_boundaries = {3, 5};  // ALF frames of 3 then 5 elements, cycling
  const auto chunks = frame_stream(stream_of(16), fo);
  // X-PDUs: [0,3) [3,8) [8,11) [11,16)
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].h.len, 3);
  EXPECT_EQ(chunks[1].h.len, 5);
  EXPECT_EQ(chunks[2].h.len, 3);
  EXPECT_EQ(chunks[3].h.len, 5);
  for (const Chunk& c : chunks) EXPECT_TRUE(c.h.xpdu.st);
}

TEST(FrameStream, MaxChunkElementsCapsRuns) {
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 100;
  fo.xpdu_elements = 100;
  fo.max_chunk_elements = 7;
  const auto chunks = frame_stream(stream_of(20), fo);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].h.len, 7);
  EXPECT_EQ(chunks[1].h.len, 7);
  EXPECT_EQ(chunks[2].h.len, 6);
  EXPECT_FALSE(chunks[0].h.xpdu.st);  // mid-PDU chunks carry no stops
  EXPECT_TRUE(chunks[2].h.conn.st);
}

TEST(FrameStream, PayloadBytesPartitionStream) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 5;
  fo.xpdu_elements = 3;
  const auto stream = stream_of(120);
  const auto chunks = frame_stream(stream, fo);
  std::vector<std::uint8_t> joined;
  for (const Chunk& c : chunks) {
    joined.insert(joined.end(), c.payload.begin(), c.payload.end());
  }
  EXPECT_EQ(joined, stream);
}

TEST(FrameStream, ImplicitIdAssignment) {
  // Figure 7: T.ID == C.SN − T.SN for every chunk (same for X).
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 6;
  fo.xpdu_elements = 4;
  fo.first_conn_sn = 35;
  fo.implicit_ids = true;
  const auto chunks = frame_stream(stream_of(24), fo);
  ASSERT_GT(chunks.size(), 2u);
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.h.tpdu.id, c.h.conn.sn - c.h.tpdu.sn);
    EXPECT_EQ(c.h.xpdu.id, c.h.conn.sn - c.h.xpdu.sn);
  }
}

TEST(FrameStream, NoConnStopWhenDisabled) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.final_element_ends_connection = false;
  const auto chunks = frame_stream(stream_of(16), fo);
  EXPECT_FALSE(chunks.back().h.conn.st);
  EXPECT_TRUE(chunks.back().h.tpdu.st);
}

TEST(StreamFramer, EmitsOneTpduPerCallInOrder) {
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 4;
  fo.xpdu_elements = 2;
  const auto stream = stream_of(12);
  StreamFramer framer(stream, fo);
  EXPECT_EQ(framer.tpdus_left(), 3u);
  std::uint32_t expected_id = fo.first_tpdu_id;
  while (!framer.done()) {
    EXPECT_EQ(framer.next_tpdu_id(), expected_id);
    EXPECT_EQ(framer.next_tpdu_bytes(), 4u);
    std::vector<Chunk> tpdu;
    framer.next_tpdu(tpdu);
    std::uint32_t elements = 0;
    for (const Chunk& c : tpdu) {
      EXPECT_EQ(c.h.tpdu.id, expected_id);
      elements += c.h.len;
    }
    EXPECT_EQ(elements, 4u);
    EXPECT_TRUE(tpdu.back().h.tpdu.st);
    ++expected_id;
  }
  EXPECT_EQ(framer.tpdus_left(), 0u);
  EXPECT_EQ(framer.next_tpdu_bytes(), 0u);
}

TEST(StreamFramer, SkipMovesPastATpduLikeFramingIt) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 6;
  fo.xpdu_boundaries = {5, 9};
  fo.implicit_ids = true;
  const auto stream = stream_of(4 * 40);
  StreamFramer framed(stream, fo);
  StreamFramer skipped(stream, fo);
  std::vector<Chunk> discard;
  framed.next_tpdu(discard);
  framed.next_tpdu(discard);
  skipped.skip_tpdu();
  skipped.skip_tpdu();
  EXPECT_EQ(skipped.next_tpdu_id(), framed.next_tpdu_id());
  EXPECT_EQ(skipped.tpdus_left(), framed.tpdus_left());
  std::vector<Chunk> a, b;
  framed.next_tpdu(a);
  skipped.next_tpdu(b);
  EXPECT_EQ(a, b);
}

/// The whole-stream framer the sender used before framing became
/// incremental: one pass over every element, then a grouping of the
/// chunks by T.ID. Kept here as the differential oracle.
std::vector<std::vector<Chunk>> oracle_tpdus(
    std::span<const std::uint8_t> stream, const FramerOptions& opts) {
  const auto total =
      static_cast<std::uint32_t>(stream.size() / opts.element_size);
  std::vector<Chunk> chunks;
  std::uint32_t conn_sn = opts.first_conn_sn;
  std::uint32_t tpdu_id = opts.first_tpdu_id;
  std::uint32_t tpdu_sn = 0;
  std::uint32_t xpdu_id = opts.first_xpdu_id;
  std::uint32_t xpdu_sn = 0;
  std::size_t xpdu_boundary_idx = 0;
  auto xpdu_len = [&]() -> std::uint32_t {
    if (opts.xpdu_boundaries.empty()) return opts.xpdu_elements;
    return opts.xpdu_boundaries[xpdu_boundary_idx %
                                opts.xpdu_boundaries.size()];
  };
  if (opts.implicit_ids) {
    tpdu_id = conn_sn;
    xpdu_id = conn_sn;
  }
  std::uint32_t element = 0;
  while (element < total) {
    std::uint32_t run = std::min(opts.tpdu_elements - tpdu_sn,
                                 xpdu_len() - xpdu_sn);
    run = std::min(run, total - element);
    if (opts.max_chunk_elements > 0) {
      run = std::min<std::uint32_t>(run, opts.max_chunk_elements);
    }
    run = std::min<std::uint32_t>(run, 0xFFFFu);
    Chunk c;
    c.h.type = ChunkType::kData;
    c.h.size = opts.element_size;
    c.h.len = static_cast<std::uint16_t>(run);
    c.h.conn = {opts.connection_id, conn_sn, false};
    c.h.tpdu = {tpdu_id, tpdu_sn, false};
    c.h.xpdu = {xpdu_id, xpdu_sn, false};
    const auto bytes = stream.subspan(
        static_cast<std::size_t>(element) * opts.element_size,
        static_cast<std::size_t>(run) * opts.element_size);
    c.payload.assign(bytes.begin(), bytes.end());
    element += run;
    conn_sn += run;
    tpdu_sn += run;
    xpdu_sn += run;
    if (xpdu_sn == xpdu_len()) {
      c.h.xpdu.st = true;
      xpdu_sn = 0;
      ++xpdu_boundary_idx;
      xpdu_id = opts.implicit_ids ? conn_sn : xpdu_id + 1;
    }
    if (tpdu_sn == opts.tpdu_elements) {
      c.h.tpdu.st = true;
      tpdu_sn = 0;
      tpdu_id = opts.implicit_ids ? conn_sn : tpdu_id + 1;
    }
    if (element == total) {
      if (opts.final_element_ends_connection) c.h.conn.st = true;
      c.h.tpdu.st = true;
      c.h.xpdu.st = true;
    }
    chunks.push_back(std::move(c));
  }
  // Group by T.ID in first-seen order (one pass: a stream's TPDUs are
  // contiguous, so a new T.ID always opens a new group).
  std::vector<std::vector<Chunk>> groups;
  for (Chunk& c : chunks) {
    if (groups.empty() || groups.back().back().h.tpdu.id != c.h.tpdu.id) {
      groups.emplace_back();
    }
    groups.back().push_back(std::move(c));
  }
  return groups;
}

Wsc2Code ed_code(const std::vector<Chunk>& tpdu) {
  TpduInvariant inv;
  for (const Chunk& c : tpdu) EXPECT_TRUE(inv.absorb(c));
  return inv.value();
}

TEST(StreamFramer, MatchesWholeStreamOracleOnRandomOptions) {
  Rng rng(0xF7A3E5);
  for (int trial = 0; trial < 200; ++trial) {
    FramerOptions fo;
    fo.connection_id = static_cast<std::uint32_t>(rng.range(1, 1000));
    fo.element_size = static_cast<std::uint16_t>(1u << rng.below(5));
    fo.tpdu_elements = static_cast<std::uint32_t>(rng.range(1, 64));
    fo.xpdu_elements = static_cast<std::uint32_t>(rng.range(1, 64));
    if (rng.below(2) == 0) {
      // Cycled X-PDU lengths that do not line up with TPDUs.
      const auto n = rng.range(1, 4);
      for (std::uint64_t i = 0; i < n; ++i) {
        fo.xpdu_boundaries.push_back(
            static_cast<std::uint32_t>(rng.range(1, 50)));
      }
    }
    fo.max_chunk_elements = static_cast<std::uint16_t>(rng.below(20));
    fo.first_conn_sn = rng.below(2) == 0
                           ? 0xFFFFFFFFu - static_cast<std::uint32_t>(
                                               rng.below(300))
                           : static_cast<std::uint32_t>(rng.below(1000));
    fo.first_tpdu_id = static_cast<std::uint32_t>(rng.range(1, 100));
    fo.first_xpdu_id = static_cast<std::uint32_t>(rng.range(1, 100));
    fo.implicit_ids = rng.below(2) == 0;
    fo.final_element_ends_connection = rng.below(2) == 0;
    // Often not a whole number of TPDUs: the last one is partial.
    const auto elements = rng.range(1, 400);
    std::vector<std::uint8_t> stream(elements * fo.element_size);
    for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());

    const auto want = oracle_tpdus(stream, fo);
    StreamFramer framer(stream, fo);
    EXPECT_EQ(framer.tpdus_left(), want.size()) << "trial " << trial;
    std::size_t i = 0;
    while (!framer.done()) {
      ASSERT_LT(i, want.size()) << "trial " << trial;
      const std::uint64_t bytes = framer.next_tpdu_bytes();
      std::vector<Chunk> got;
      framer.next_tpdu(got);
      ASSERT_EQ(got, want[i]) << "trial " << trial << " tpdu " << i;
      std::uint64_t payload = 0;
      for (const Chunk& c : got) payload += c.payload.size();
      EXPECT_EQ(bytes, payload);
      if (fo.element_size % 4 == 0) {  // WSC-2 codes 32-bit symbols
        EXPECT_EQ(ed_code(got), ed_code(want[i]));
      }
      ++i;
    }
    EXPECT_EQ(i, want.size()) << "trial " << trial;
  }
}

TEST(EdChunk, RoundTrip) {
  const Wsc2Code code{0xAABBCCDD, 0x11223344};
  const Chunk ed = make_ed_chunk(7, 42, 1000, code);
  EXPECT_EQ(ed.h.type, ChunkType::kErrorDetection);
  EXPECT_EQ(ed.h.conn.id, 7u);
  EXPECT_EQ(ed.h.tpdu.id, 42u);
  EXPECT_EQ(ed.h.conn.sn, 1000u);
  EXPECT_TRUE(ed.structurally_valid());
  EXPECT_EQ(parse_ed_chunk(ed), code);
}

TEST(EdChunk, ParseRejectsWrongSize) {
  Chunk bogus = make_ed_chunk(1, 2, 3, {4, 5});
  bogus.payload.pop_back();
  EXPECT_EQ(parse_ed_chunk(bogus), (Wsc2Code{0, 0}));
}

TEST(AckChunk, RoundTrip) {
  const Chunk ack = make_ack_chunk(7, 42, true);
  EXPECT_EQ(ack.h.type, ChunkType::kAck);
  EXPECT_TRUE(ack.structurally_valid());
  const AckInfo info = parse_ack_chunk(ack);
  EXPECT_EQ(info.tpdu_id, 42u);
  EXPECT_TRUE(info.positive);

  const AckInfo nak = parse_ack_chunk(make_ack_chunk(7, 43, false));
  EXPECT_EQ(nak.tpdu_id, 43u);
  EXPECT_FALSE(nak.positive);
}

}  // namespace
}  // namespace chunknet
