// Tests for the TPDU error-detection invariant (paper §4, Figures 5–6):
// the central correctness claim that the WSC-2 value is unchanged by
// any sequence of chunk fragmentation / reassembly / reordering, and
// the Table-1 mapping from corrupted fields to detection mechanisms.
#include "src/transport/invariant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <ostream>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/chunk/fragment.hpp"
#include "src/chunk/reassemble.hpp"
#include "src/common/rng.hpp"

namespace chunknet {
namespace {

std::vector<Chunk> make_tpdu_chunks(Rng& rng, std::uint32_t tpdu_elements = 32,
                                    std::uint32_t xpdu_elements = 10) {
  FramerOptions fo;
  fo.connection_id = 0xC0FFEE;
  fo.element_size = 4;
  fo.tpdu_elements = tpdu_elements;
  fo.xpdu_elements = xpdu_elements;
  fo.first_conn_sn = 480;  // a TPDU from the middle of a connection
  fo.first_tpdu_id = 16;
  fo.first_xpdu_id = 49;
  fo.max_chunk_elements = 5;  // X-PDUs span multiple chunks
  std::vector<std::uint8_t> stream(tpdu_elements * 4);
  for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());
  auto chunks = frame_stream(stream, fo);
  // Keep only the first TPDU (frame_stream closes at stream end anyway).
  return chunks;
}

Wsc2Code invariant_of(const std::vector<Chunk>& chunks) {
  TpduInvariant inv;
  for (const Chunk& c : chunks) {
    EXPECT_TRUE(inv.absorb(c));
  }
  return inv.value();
}

/// Applies `rounds` of random splitting and shuffling — a model of
/// repeated in-network fragmentation over multiple hops.
std::vector<Chunk> shatter(std::vector<Chunk> chunks, Rng& rng, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    std::vector<Chunk> next;
    for (Chunk& c : chunks) {
      if (c.h.len > 1 && rng.chance(0.6)) {
        const auto cut = static_cast<std::uint16_t>(rng.range(1, c.h.len - 1));
        auto [a, b] = split_chunk(c, cut);
        next.push_back(std::move(a));
        next.push_back(std::move(b));
      } else {
        next.push_back(std::move(c));
      }
    }
    chunks = std::move(next);
    for (std::size_t i = chunks.size() - 1; i > 0; --i) {
      std::swap(chunks[i], chunks[rng.below(i + 1)]);
    }
  }
  return chunks;
}

class InvariantProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantProperty, UnchangedByFragmentationAndReordering) {
  Rng rng(GetParam());
  const auto original = make_tpdu_chunks(rng);
  const Wsc2Code clean = invariant_of(original);

  for (int trial = 0; trial < 10; ++trial) {
    auto mangled = shatter(original, rng, static_cast<int>(rng.range(1, 5)));
    ASSERT_EQ(invariant_of(mangled), clean);
  }
}

TEST_P(InvariantProperty, UnchangedByReassembly) {
  Rng rng(GetParam());
  const auto original = make_tpdu_chunks(rng);
  const Wsc2Code clean = invariant_of(original);

  auto mangled = shatter(original, rng, 3);
  auto merged = coalesce(std::move(mangled));  // routers may also merge
  EXPECT_LE(merged.size(), original.size() + 2);
  EXPECT_EQ(invariant_of(merged), clean);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 1993));

TEST(Invariant, MatchesBetweenTransmitterAndReceiverViews) {
  // Transmitter absorbs pristine chunks; receiver absorbs network-
  // mangled chunks; codes agree. (This is the end-to-end handshake.)
  Rng rng(77);
  const auto tx = make_tpdu_chunks(rng);
  const Wsc2Code tx_code = invariant_of(tx);
  auto rx = shatter(tx, rng, 4);
  EXPECT_EQ(invariant_of(rx), tx_code);
}

// ----- Table 1: corruption of each field and how it is detected -----

enum class Victim {
  kFirst,     ///< an ordinary mid-PDU chunk
  kLast,      ///< the chunk carrying the TPDU/connection stop bits
  kXstChunk,  ///< a chunk ending an external PDU inside the TPDU
};

struct CorruptionCase {
  const char* field;
  void (*mutate)(Chunk&);
  Victim victim;
  bool detected_by_code;         // EDC mismatch expected
  bool detected_by_consistency;  // SN consistency check expected
};

// gtest would otherwise print the raw bytes, pointers included, into the
// test name; print the field so the name is the same in every build.
void PrintTo(const CorruptionCase& c, std::ostream* os) { *os << c.field; }

void corrupt_cid(Chunk& c) { c.h.conn.id ^= 0x1000; }
void corrupt_tid(Chunk& c) { c.h.tpdu.id ^= 0x1000; }
void corrupt_xid(Chunk& c) { c.h.xpdu.id ^= 0x1000; }
void corrupt_csn(Chunk& c) { c.h.conn.sn += 5; }
void corrupt_xsn(Chunk& c) { c.h.xpdu.sn += 5; }
void corrupt_data(Chunk& c) { c.payload[0] ^= 0xFF; }
void corrupt_cst(Chunk& c) { c.h.conn.st = !c.h.conn.st; }
void corrupt_xst(Chunk& c) { c.h.xpdu.st = !c.h.xpdu.st; }

class Table1Case : public ::testing::TestWithParam<CorruptionCase> {};

TEST_P(Table1Case, DetectionMechanismMatchesPaper) {
  const auto& tc = GetParam();
  Rng rng(4242);
  const auto original = make_tpdu_chunks(rng);
  const Wsc2Code clean = invariant_of(original);

  // Corrupt the field in ONE chunk, chosen per case: stop-bit fields
  // live on boundary chunks; X.ID is encoded where X.ST (or T.ST) is
  // set (the Figure 6 rule); SN fields need a chunk whose PDU spans
  // several chunks so the delta comparison has two samples.
  auto dirty = original;
  Chunk* victim = nullptr;
  switch (tc.victim) {
    case Victim::kFirst:
      victim = &dirty.front();
      break;
    case Victim::kLast:
      victim = &dirty.back();
      break;
    case Victim::kXstChunk: {
      const auto it =
          std::find_if(dirty.begin(), dirty.end(), [](const Chunk& c) {
            return c.h.xpdu.st && !c.h.tpdu.st;
          });
      ASSERT_NE(it, dirty.end());
      victim = &*it;
      break;
    }
  }
  tc.mutate(*victim);

  TpduInvariant inv;
  SnConsistencyChecker consistency;
  for (const Chunk& c : dirty) {
    inv.absorb(c);
    consistency.check(c);
  }
  if (tc.detected_by_code) {
    EXPECT_NE(inv.value(), clean) << tc.field << " must change the code";
  }
  if (tc.detected_by_consistency) {
    EXPECT_FALSE(consistency.consistent())
        << tc.field << " must trip the consistency check";
  } else {
    EXPECT_TRUE(consistency.consistent());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, Table1Case,
    ::testing::Values(
        CorruptionCase{"C.ID", corrupt_cid, Victim::kFirst, true, false},
        CorruptionCase{"T.ID", corrupt_tid, Victim::kFirst, true, false},
        CorruptionCase{"X.ID", corrupt_xid, Victim::kXstChunk, true, false},
        CorruptionCase{"C.SN", corrupt_csn, Victim::kFirst, false, true},
        CorruptionCase{"X.SN", corrupt_xsn, Victim::kFirst, false, true},
        CorruptionCase{"Data", corrupt_data, Victim::kFirst, true, false},
        CorruptionCase{"C.ST", corrupt_cst, Victim::kLast, true, false},
        CorruptionCase{"X.ST", corrupt_xst, Victim::kLast, true, false}),
    [](const auto& param_info) {
      std::string n(param_info.param.field);
      for (char& ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n;
    });

TEST(Invariant, CorruptedXidMidTpduChangesCode) {
  // X.ID is encoded at each X.ST boundary; corrupt the X.ID of a chunk
  // carrying an X.ST somewhere inside the TPDU.
  Rng rng(55);
  auto chunks = make_tpdu_chunks(rng);
  const Wsc2Code clean = invariant_of(chunks);
  auto it = std::find_if(chunks.begin(), chunks.end(), [](const Chunk& c) {
    return c.h.xpdu.st && !c.h.tpdu.st;
  });
  ASSERT_NE(it, chunks.end());
  it->h.xpdu.id ^= 0xBEEF;
  EXPECT_NE(invariant_of(chunks), clean);
}

TEST(Invariant, TsnCorruptionIsALayoutOrReassemblyMatter) {
  // T.SN moves payload words to different positions → code mismatch,
  // and virtual reassembly would flag overlap/gap; both paths lead to
  // rejection ("Reassembly Error" in Table 1).
  Rng rng(56);
  auto chunks = make_tpdu_chunks(rng);
  const Wsc2Code clean = invariant_of(chunks);
  chunks.front().h.tpdu.sn += 1;
  EXPECT_NE(invariant_of(chunks), clean);
}

TEST(Invariant, RejectsNonWordSize) {
  TpduInvariant inv;
  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 3;  // not a multiple of 4
  c.h.len = 2;
  c.payload.assign(6, 1);
  EXPECT_FALSE(inv.absorb(c));
}

TEST(Invariant, RejectsDataBeyondRegion) {
  TpduInvariant inv(InvariantConfig{64});
  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 4;
  c.h.len = 10;
  c.h.tpdu.sn = 60;  // 60..70 > 64-symbol region
  c.payload.assign(40, 1);
  EXPECT_FALSE(inv.absorb(c));
}

TEST(Invariant, RejectsControlChunks) {
  TpduInvariant inv;
  EXPECT_FALSE(inv.absorb(make_ed_chunk(1, 2, 3, {4, 5})));
}

TEST(Invariant, DuplicateAbsorptionCorruptsCode) {
  // Why §3.3 insists on duplicate rejection: absorbing the same chunk
  // twice cancels its contribution in GF(2).
  Rng rng(57);
  const auto chunks = make_tpdu_chunks(rng);
  const Wsc2Code clean = invariant_of(chunks);
  TpduInvariant inv;
  for (const Chunk& c : chunks) inv.absorb(c);
  inv.absorb(chunks.front());  // duplicate slips through
  EXPECT_NE(inv.value(), clean);
}

TEST(SnConsistency, CleanTpduPasses) {
  Rng rng(58);
  const auto chunks = make_tpdu_chunks(rng);
  SnConsistencyChecker checker;
  for (const Chunk& c : chunks) EXPECT_TRUE(checker.check(c));
}

TEST(SnConsistency, SurvivesFragmentation) {
  // Fragmentation shifts C.SN, T.SN, X.SN together: deltas constant.
  Rng rng(59);
  auto chunks = shatter(make_tpdu_chunks(rng), rng, 4);
  SnConsistencyChecker checker;
  for (const Chunk& c : chunks) EXPECT_TRUE(checker.check(c));
}

TEST(SnConsistency, PerXpduDeltasTracked) {
  // Different X-PDUs legitimately have different (C.SN − X.SN); the
  // checker must not confuse them.
  Rng rng(60);
  const auto chunks = make_tpdu_chunks(rng, 32, 8);  // 4 X-PDUs
  SnConsistencyChecker checker;
  for (const Chunk& c : chunks) EXPECT_TRUE(checker.check(c));
  EXPECT_TRUE(checker.consistent());
}

}  // namespace
}  // namespace chunknet
