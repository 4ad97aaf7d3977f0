// Hostile-network fault injection.
//
// The plain Link models benign impairments (i.i.d. loss, jitter, lane
// skew); this module models the *hostile* regimes the paper's claims
// must survive to matter:
//
//   - Gilbert–Elliott bursty loss: a two-state Markov chain whose bad
//     state drops packets in runs, the classic model of fading and
//     congestion bursts (cf. "Sorting Reordered Packets with Interrupt
//     Coalescing" in PAPERS.md — reordering and loss arrive bursty in
//     real networks, exactly where labelled data should win);
//   - bit-flip corruption: per-packet payload or header byte flips, the
//     wire-level noise Table 1's detection matrix classifies;
//   - blackout windows: periodic total outages (route withdrawals,
//     partitions) during which every packet dies;
//   - a misbehaving relay that REWRITES chunk framing fields in flight
//     — the in-network header rewriting that only an end-to-end
//     invariant (WSC-2 over the fragmentation-invariant layout) can
//     catch, driving the Table 1 corruption matrix through the full
//     transport instead of only through unit-level classification.
//
// A FaultInjector is a PacketSink decorator: place it between a link
// and its sink (or between a sender and the link) and every packet
// runs the loss → blackout → corruption gauntlet before delivery.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/rng.hpp"
#include "src/netsim/router.hpp"
#include "src/netsim/simulator.hpp"
#include "src/obs/obs.hpp"

namespace chunknet {

/// Two-state Markov loss process. State transitions are evaluated once
/// per packet; the stationary bad-state probability is p/(p+r) and the
/// mean burst length 1/r packets, so e.g. {p=0.0125, r=0.25} gives 5%
/// average loss in bursts averaging 4 packets.
struct GilbertElliottConfig {
  double p_good_to_bad{0.0};  ///< per-packet P(good → bad)
  double p_bad_to_good{0.25};  ///< per-packet P(bad → good)
  double loss_good{0.0};       ///< drop probability in the good state
  double loss_bad{1.0};        ///< drop probability in the bad state

  /// Average long-run loss rate of the chain.
  double mean_loss() const {
    const double denom = p_good_to_bad + p_bad_to_good;
    if (denom <= 0.0) return loss_good;
    const double pi_bad = p_good_to_bad / denom;
    return pi_bad * loss_bad + (1.0 - pi_bad) * loss_good;
  }

  /// A chain with the given mean loss rate and mean burst length (in
  /// packets), losing everything while bad and nothing while good.
  static GilbertElliottConfig with_mean_loss(double mean_loss,
                                             double mean_burst_packets);
};

/// Standalone Gilbert–Elliott chain (also used by property tests).
class GilbertElliott {
 public:
  GilbertElliott(GilbertElliottConfig cfg, Rng& rng)
      : cfg_(cfg), rng_(&rng) {}

  /// Advances the chain one packet; returns true if that packet is lost.
  bool lose();

  bool bad() const { return bad_; }
  std::uint64_t bursts() const { return bursts_; }

 private:
  GilbertElliottConfig cfg_;
  Rng* rng_;
  bool bad_{false};
  std::uint64_t bursts_{0};  ///< good → bad transitions
};

struct FaultConfig {
  GilbertElliottConfig gilbert_elliott{};
  /// Per-packet probability of XOR-flipping one byte in the payload
  /// region (after envelope + first chunk header — deep corruption the
  /// end-to-end code must catch).
  double payload_flip_rate{0.0};
  /// Per-packet probability of XOR-flipping one byte in the header
  /// region (the first `header_region_bytes`).
  double header_flip_rate{0.0};
  /// Bytes at the front of the packet treated as "header" for
  /// header_flip_rate. Defaults to the chunk envelope + one canonical
  /// chunk header; set to the wire format's own header size for the
  /// baseline transports.
  std::size_t header_region_bytes{38};  // kPacketHeaderBytes + kChunkHeaderBytes
  /// Periodic total outage: every `blackout_interval` of simulated
  /// time, all packets die for the first `blackout_duration` of the
  /// cycle. 0 disables.
  SimTime blackout_interval{0};
  SimTime blackout_duration{0};
  /// Observability (optional): metric names carry `obs_site` so
  /// multiple injectors stay distinguishable.
  ObsContext* obs{nullptr};
  std::uint16_t obs_site{0};
};

/// PacketSink decorator applying the fault gauntlet before delivery.
class FaultInjector final : public PacketSink {
 public:
  FaultInjector(Simulator& sim, FaultConfig cfg, PacketSink& sink, Rng& rng);

  void on_packet(SimPacket pkt) override;

  struct Stats {
    std::uint64_t offered{0};
    std::uint64_t delivered{0};
    std::uint64_t dropped_loss{0};      ///< Gilbert–Elliott drops
    std::uint64_t dropped_blackout{0};
    std::uint64_t payload_corrupted{0};
    std::uint64_t header_corrupted{0};
    std::uint64_t loss_bursts{0};       ///< good → bad transitions
  };
  const Stats& stats() const;
  bool in_blackout() const;

 private:
  Simulator& sim_;
  FaultConfig cfg_;
  PacketSink& sink_;
  Rng& rng_;
  GilbertElliott ge_;
  mutable Stats stats_;
  StatsBinding stats_binding_;  ///< after stats_: publishes its fields
};

// ------------------------------------------------- misbehaving relay

/// The Table-1 fields of a canonical encoded chunk header (see
/// codec.cpp and bench_e3). The three ST entries address distinct bits
/// of the shared flags byte; kPayload addresses the first payload byte.
enum class ChunkField : std::uint8_t {
  kType,
  kSize,
  kLen,
  kCid,
  kCsn,
  kCst,
  kTid,
  kTsn,
  kTst,
  kXid,
  kXsn,
  kXst,
  kPayload,
};

inline constexpr std::size_t kChunkFieldCount = 13;

const char* to_string(ChunkField f);

/// (offset within the encoded chunk, XOR mask) of the byte a rewrite of
/// `f` flips. SN/ID fields flip a HIGH-order byte: the corruption is
/// large, which is the honest adversary model (a relay that rewrites a
/// framing field rewrites the whole field) and keeps the misdirected
/// value outside any plausible placement window.
std::pair<std::size_t, std::uint8_t> chunk_field_fault(ChunkField f);

struct HeaderRewriteConfig {
  /// Per-packet probability that the relay rewrites one chunk.
  double rewrite_rate{0.0};
  /// Which field the relay rewrites. The default, kPayload, models a
  /// relay that corrupts data; header fields model framing rewriting.
  ChunkField field{ChunkField::kPayload};
};

struct HeaderRewriteStats {
  std::uint64_t packets_in{0};
  std::uint64_t packets_out{0};
  std::uint64_t rewrites{0};
  std::array<std::uint64_t, kChunkFieldCount> by_field{};
};

/// Flips the configured field's byte in one randomly chosen chunk of
/// the canonical-syntax packet `bytes` (in place). Returns false if the
/// packet has no rewritable chunk (malformed, compressed syntax, or no
/// data chunk when a payload/ST rewrite needs one).
bool rewrite_chunk_field(std::span<std::uint8_t> bytes, ChunkField field,
                         Rng& rng);

/// A misbehaving router relay: forwards packets unchanged except that
/// with probability `cfg.rewrite_rate` it rewrites the configured
/// framing field of one chunk in flight. Compose with Router/
/// ChainTopology exactly like transparent_relay().
RelayFn header_rewriting_relay(HeaderRewriteConfig cfg, Rng& rng,
                               HeaderRewriteStats* stats = nullptr);

}  // namespace chunknet
