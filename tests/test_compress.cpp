// Tests for the Appendix-A header-compression transforms: losslessness
// across profiles, size accounting, and the control-chunk escape.
#include "src/chunk/compress.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "src/chunk/builder.hpp"
#include "src/chunk/codec.hpp"
#include "src/common/rng.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> stream_of(std::size_t bytes) {
  std::vector<std::uint8_t> v(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  return v;
}

std::vector<Chunk> implicit_id_chunks(std::size_t bytes,
                                      std::uint16_t max_elements = 0) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 16;
  fo.xpdu_elements = 8;
  fo.max_chunk_elements = max_elements;
  fo.implicit_ids = true;
  return frame_stream(stream_of(bytes), fo);
}

struct ProfileCase {
  const char* name;
  CompressionProfile profile;
};

// gtest would otherwise print the raw bytes, pointer included, into the
// test name; print the case name so the name is the same in every build.
void PrintTo(const ProfileCase& c, std::ostream* os) { *os << c.name; }

class CompressRoundTrip : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(CompressRoundTrip, LosslessForDataChunks) {
  const auto& profile = GetParam().profile;
  const auto chunks = implicit_id_chunks(512, 4);
  const auto pkt = compress_packet(chunks, profile, 65535);
  ASSERT_FALSE(pkt.empty());
  const auto out = decompress_packet(pkt, profile);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.chunks.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(out.chunks[i], chunks[i]) << "chunk " << i;
  }
}

TEST_P(CompressRoundTrip, LosslessWithControlChunks) {
  const auto& profile = GetParam().profile;
  auto chunks = implicit_id_chunks(256, 4);
  chunks.push_back(make_ed_chunk(1, chunks.front().h.tpdu.id, 1234,
                                 {0xDEADBEEF, 0xFEEDFACE}));
  chunks.push_back(make_ack_chunk(1, 99, false));
  const auto pkt = compress_packet(chunks, profile, 65535);
  ASSERT_FALSE(pkt.empty());
  const auto out = decompress_packet(pkt, profile);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.chunks.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(out.chunks[i], chunks[i]) << "chunk " << i;
  }
}

CompressionProfile full_profile() { return CompressionProfile{}; }
CompressionProfile no_transforms() { return CompressionProfile::none(); }
CompressionProfile size_only() {
  auto p = CompressionProfile::none();
  p.elide_size = true;
  return p;
}
CompressionProfile ids_only() {
  auto p = CompressionProfile::none();
  p.implicit_tid = true;
  p.implicit_xid = true;
  return p;
}
CompressionProfile cont_only() {
  auto p = CompressionProfile::none();
  p.intra_packet_continuation = true;
  return p;
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, CompressRoundTrip,
    ::testing::Values(ProfileCase{"all", full_profile()},
                      ProfileCase{"none", no_transforms()},
                      ProfileCase{"size", size_only()},
                      ProfileCase{"ids", ids_only()},
                      ProfileCase{"cont", cont_only()}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(Compress, ContinuationHeadersAreSmaller) {
  const CompressionProfile p;  // all transforms on
  // Contiguous chunks in one packet: first full, rest continuations.
  const auto chunks = implicit_id_chunks(512, 4);
  const auto pkt = compress_packet(chunks, p, 65535);
  ASSERT_FALSE(pkt.empty());

  std::size_t payload = 0;
  for (const Chunk& c : chunks) payload += c.payload.size();
  const std::size_t header_bytes = pkt.size() - payload - kPacketHeaderBytes;
  // Canonical headers would cost 34 bytes per chunk.
  EXPECT_LT(header_bytes, chunks.size() * kChunkHeaderBytes / 2);
  // And continuation headers specifically cost 3 bytes.
  const std::size_t expected =
      compressed_header_size(p, false) +
      (chunks.size() - 1) * compressed_header_size(p, true);
  EXPECT_EQ(header_bytes, expected);
}

TEST(Compress, HeaderSizeAccounting) {
  const CompressionProfile all;  // elide_size + implicit ids
  EXPECT_EQ(compressed_header_size(all, true), 3u);
  EXPECT_EQ(compressed_header_size(all, false), 19u);
  const auto none = CompressionProfile::none();
  EXPECT_EQ(compressed_header_size(none, false), 19u + 2u + 8u);
}

TEST(Compress, CapacityRespected) {
  const CompressionProfile p;
  const auto chunks = implicit_id_chunks(4096, 4);
  EXPECT_TRUE(compress_packet(chunks, p, 64).empty());
  EXPECT_FALSE(compress_packet(chunks, p, 65535).empty());
}

TEST(Compress, NonNegotiatedSizeUnrepresentableUnderElision) {
  CompressionProfile p;
  auto chunks = implicit_id_chunks(64, 4);
  chunks[0].h.size = 2;  // profile negotiated 4 for DATA
  chunks[0].payload.resize(static_cast<std::size_t>(chunks[0].h.len) * 2);
  EXPECT_TRUE(compress_packet(chunks, p, 65535).empty());
}

TEST(Compress, NonImplicitIdsUseExplicitEscape) {
  // Chunks built WITHOUT implicit ids must still compress losslessly
  // under an implicit-id profile (via the explicit-IDs tag bit).
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 16;
  fo.xpdu_elements = 8;
  fo.first_tpdu_id = 777;  // deliberately not C.SN-derived
  const auto chunks = frame_stream(stream_of(128), fo);
  const CompressionProfile p;
  const auto pkt = compress_packet(chunks, p, 65535);
  ASSERT_FALSE(pkt.empty());
  const auto out = decompress_packet(pkt, p);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.chunks.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(out.chunks[i], chunks[i]);
  }
}

TEST(Decompress, RejectsWrongMagic) {
  const CompressionProfile p;
  auto pkt = compress_packet(implicit_id_chunks(64, 4), p, 65535);
  pkt[0] = 0x00;
  EXPECT_FALSE(decompress_packet(pkt, p).ok);
}

TEST(Decompress, RejectsContinuationWithoutPredecessor) {
  const CompressionProfile p;
  // Hand-craft: valid envelope, then a CONT tag as the first chunk.
  std::vector<std::uint8_t> pkt{kCompressedPacketMagic, kPacketVersion, 0, 3,
                                /*tag: DATA, cont*/ 0x08, 0, 1};
  EXPECT_FALSE(decompress_packet(pkt, p).ok);
}

TEST(Decompress, FuzzNeverCrashes) {
  const CompressionProfile p;
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(120));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)decompress_packet(junk, p);
  }
  auto pkt = compress_packet(implicit_id_chunks(256, 4), p, 65535);
  for (int trial = 0; trial < 2000; ++trial) {
    auto dirty = pkt;
    dirty[rng.below(dirty.size())] ^= static_cast<std::uint8_t>(rng.next());
    (void)decompress_packet(dirty, p);
  }
}

TEST(Compress, MixedProfilesInterchangeCanonicalForm) {
  // "chunk headers can have different formats in different parts of the
  // network": compress with profile A, decompress, re-compress with
  // profile B, decompress — canonical chunks survive unchanged.
  const auto chunks = implicit_id_chunks(256, 4);
  const CompressionProfile a;  // everything on
  const auto na = CompressionProfile::none();
  const auto pkt_a = compress_packet(chunks, a, 65535);
  const auto mid = decompress_packet(pkt_a, a);
  ASSERT_TRUE(mid.ok);
  const auto pkt_b = compress_packet(mid.chunks, na, 65535);
  const auto out = decompress_packet(pkt_b, na);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.chunks.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(out.chunks[i], chunks[i]);
  }
}

}  // namespace
}  // namespace chunknet
