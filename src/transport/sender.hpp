// The chunk transport sender.
//
// Frames an application stream into chunks (three-level framing of
// Figure 1), computes each TPDU's WSC-2 invariant (Figure 5) and
// attaches it as an ED control chunk (Figure 3), packetizes to the
// first-hop MTU, and handles error control: per-TPDU ACK/NAK plus a
// retransmission timer. Retransmitted data reuses the ORIGINAL
// identifiers (§3.3: "retransmitted data should use the same
// identifiers as the originally transmitted data"), so late duplicates
// of the first transmission are recognized and rejected by the
// receiver's virtual reassembly.
//
// A TPDU is framed and coded only when it is admitted: when credit and
// slots allow it, or at once without flow control. Framing cost is
// spread over the transfer, and framed state never exceeds the
// admitted window.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include <optional>

#include "src/chunk/builder.hpp"
#include "src/chunk/compress.hpp"
#include "src/chunk/gather.hpp"
#include "src/chunk/packetizer.hpp"
#include "src/common/timer_wheel.hpp"
#include "src/netsim/simulator.hpp"
#include "src/obs/obs.hpp"
#include "src/transport/invariant.hpp"
#include "src/transport/rto.hpp"

namespace chunknet {

struct SenderConfig {
  FramerOptions framer{};
  std::size_t mtu{1500};
  RepackPolicy pack_policy{RepackPolicy::kRepack};
  InvariantConfig invariant{};
  SimTime retransmit_timeout{50 * kMillisecond};
  int max_retransmits{8};
  /// Adaptive RTO (Jacobson/Karn). When `rto.adaptive` is set the
  /// retransmission timer tracks measured RTT instead of the fixed
  /// `retransmit_timeout` (which then only seeds the estimator).
  RtoConfig rto{};
  /// When set, retransmission and zero-credit-probe deadlines are armed
  /// on this shared timer wheel instead of as individual simulator heap
  /// events — at million-flow scale one pump event replaces one heap
  /// node per armed deadline. The wheel must outlive the sender.
  SimTimerWheel* timers{nullptr};
  /// Selective retransmission (extension): honour GapNak signal chunks
  /// by resending ONLY the missing element runs (chunks are cut to the
  /// exact gap boundaries with the Appendix-C split, so the receiver's
  /// duplicate/overlap rejection never discards them). The whole-TPDU
  /// timer remains as a backstop.
  bool selective_retransmit{false};
  /// When set, packets leave in the compact Appendix-A syntax under
  /// this (signalled) profile instead of the canonical fixed-field
  /// syntax. Falls back to canonical per packet if a chunk is not
  /// representable under the profile.
  std::optional<CompressionProfile> compress_wire;
  /// Credit-based end-to-end flow control (docs/ROBUSTNESS.md,
  /// "Overload control"). When enabled, TPDUs wait unframed in the
  /// send stream until the receiver's advertised credit (cumulative
  /// payload bytes + open-TPDU slots, carried in CreditGrant signal
  /// chunks) admits them; overload becomes sender-side queueing
  /// instead of receiver-side eviction storms.
  struct FlowControlConfig {
    bool enabled{false};
    /// Credit assumed before the first grant arrives (bootstraps the
    /// connection; one or two TPDUs' worth is typical).
    std::uint64_t initial_credit_bytes{16 * 1024};
    std::uint16_t initial_tpdu_slots{2};
    /// Zero-credit probe: blocked this long with no admission progress,
    /// the sender forces ONE TPDU through and halves its slot estimate
    /// — the decay that keeps a connection live when every grant since
    /// the last one was lost. Armed only while blocked, so an idle
    /// sender schedules nothing.
    SimTime probe_timeout{200 * kMillisecond};
  };
  FlowControlConfig flow{};
  /// Gather-encode transmit path (src/chunk/gather.hpp): packets are
  /// assembled iovec-style, borrowing payload bytes from the pending
  /// TPDU store, so transmission — and in particular RETRANSMISSION —
  /// copies zero payload bytes on the sender (stats().tx_bytes_copied
  /// stays flat; linearization is the NIC DMA analogue and is not
  /// charged). Automatically falls back to the materializing path for
  /// kReassemble packing and compressed wire syntax, which both
  /// re-encode payload bytes by nature.
  bool gather_tx{true};
  /// Transmit a packet body into the network (first hop). Bodies are
  /// PacketBytes (64-byte aligned) so pooled/gathered packets travel
  /// without re-copying.
  std::function<void(PacketBytes)> send_packet;
  /// Observability (optional). Metric names are prefixed "sender.".
  ObsContext* obs{nullptr};
  std::uint16_t obs_site{0};
};

class ChunkTransportSender final : public PacketSink {
 public:
  ChunkTransportSender(Simulator& sim, SenderConfig cfg);

  /// Takes a copy of the stream (length must be a multiple of the
  /// framer element size) and frames and transmits each TPDU as it is
  /// admitted. May be called once per connection.
  void send_stream(std::span<const std::uint8_t> stream);

  /// Feedback channel: ACK/NAK chunks arrive here.
  void on_packet(SimPacket pkt) override;

  /// Every TPDU was positively acknowledged. A transfer that gave up
  /// on a TPDU also drains `outstanding_`, so this is NOT merely
  /// "nothing left to send" — see finished()/failed().
  bool all_acked() const { return finished() && !failed(); }
  /// The sender has no more work (every TPDU was acked OR abandoned).
  bool finished() const {
    return started_ && outstanding_.empty() && framer_.done();
  }
  /// At least one TPDU was abandoned after max_retransmits.
  bool failed() const { return stats_.gave_up > 0; }

  const RtoEstimator& rto() const { return rto_; }

  /// Gives up on EVERY still-outstanding TPDU right now, framed or
  /// not (drain path: the runtime is shutting down and will not wait
  /// out more RTO cycles). Each abandoned TPDU is accounted exactly
  /// like a max-retransmits give-up — stats().gave_up, the kTpduGaveUp
  /// span, gave_up_tpdus() — so delivery accounting stays truthful.
  /// Returns the number abandoned.
  std::size_t abandon_outstanding();

  /// TPDU ids abandoned after max_retransmits, in give-up order. The
  /// chaos conservation/leak oracles use this to tell the receiver to
  /// abort matching held state and to exclude these TPDUs from the
  /// truthful-delivery check.
  const std::vector<std::uint32_t>& gave_up_tpdus() const {
    return gave_up_ids_;
  }

  struct Stats {
    std::uint64_t tpdus_sent{0};
    std::uint64_t tpdus_acked{0};
    std::uint64_t retransmissions{0};
    std::uint64_t naks{0};
    std::uint64_t gave_up{0};
    std::uint64_t packets_sent{0};
    std::uint64_t bytes_sent{0};
    std::uint64_t gap_naks_honoured{0};
    std::uint64_t selective_retx_elements{0};
    std::uint64_t retx_payload_bytes{0};  ///< payload resent (any kind)
    /// Payload bytes COPIED during sender-side packet assembly (the
    /// materializing encode path). Zero on the gather path — the
    /// zero-copy proof the lossy-link retransmission test pins.
    std::uint64_t tx_bytes_copied{0};
    /// Payload bytes transmitted by reference through gather segments
    /// (the bytes that would have been copied without the gather path).
    std::uint64_t tx_gather_bytes{0};
    /// Adaptive-RTO bookkeeping: RTT samples fed to the estimator,
    /// samples discarded by Karn's rule, and timeout backoffs.
    std::uint64_t rto_samples{0};
    std::uint64_t rto_discarded{0};
    std::uint64_t rto_backoffs{0};
    /// Flow control: grants applied, blocked episodes, zero-credit
    /// probes fired, and multiplicative backoffs on shrinking grants.
    std::uint64_t credit_grants{0};
    std::uint64_t flow_blocked{0};
    std::uint64_t zero_credit_probes{0};
    std::uint64_t flow_backoffs{0};
  };
  const Stats& stats() const { return stats_; }

  /// Flow-control introspection (tests + benches).
  std::size_t flow_queued() const { return framer_.tpdus_left(); }
  std::size_t flow_inflight() const { return inflight_; }
  std::uint64_t credit_limit() const { return credit_limit_; }
  std::uint64_t credit_consumed() const { return credit_consumed_; }
  std::uint16_t flow_slots() const { return slots_; }

 private:
  struct PendingTpdu {
    std::vector<Chunk> chunks;  ///< data chunks + ED chunk, original IDs
    int attempts{0};
    SimTime last_sent{0};
    /// Any part of this TPDU was ever resent (timer or GapNak slice):
    /// an ACK can no longer be matched to one transmission, so Karn's
    /// rule discards its RTT sample.
    bool retransmitted{false};
    std::uint64_t payload_bytes{0};  ///< data payload (credit currency)
  };

  void transmit_tpdu(std::uint32_t tpdu_id, PendingTpdu& p);
  void arm_timer(std::uint32_t tpdu_id);
  /// Routes a deadline to the shared wheel when configured, else to the
  /// simulator's event heap.
  void schedule_after(SimTime delay, std::function<void()> cb);
  void handle_gap_nak(const Chunk& signal);
  void handle_credit_grant(const Chunk& signal);
  /// Admits unframed TPDUs while credit and slots allow (all of them
  /// without flow control); arms the zero-credit probe if the stream
  /// stays blocked.
  void pump_admissions();
  /// Frames the next TPDU, codes it and transmits it. False when the
  /// TPDU does not fit the invariant layout and was dropped unsent.
  bool admit_next();
  void arm_probe();
  /// A TPDU left outstanding_ (acked or abandoned).
  void on_tpdu_retired();
  void publish_flow_gauges();
  void send_chunks(std::vector<Chunk> chunks);
  /// The zero-copy transmit: gather-packetizes views over chunks owned
  /// by the pending store and hands linearized bodies to send_packet.
  void send_chunk_views(std::span<const ChunkView> views);
  /// True when this sender's configuration can use the gather path.
  bool use_gather() const {
    return cfg_.gather_tx && !cfg_.compress_wire &&
           gather_supported(cfg_.pack_policy);
  }
  void trace_chunk(TraceEventKind kind, const ChunkHeader& h,
                   std::uint64_t aux = 0) const;
  void span(SpanEventKind kind, std::uint32_t tpdu_id,
            std::uint64_t aux = 0) const;

  Simulator& sim_;
  SenderConfig cfg_;
  RtoEstimator rto_;
  Gauge* credit_window_{nullptr};
  Gauge* inflight_tpdus_{nullptr};
  SpanRecorder* spans_{nullptr};  ///< resolved once; hot path
  std::vector<std::uint8_t> stream_;  ///< the sender's copy of the stream
  StreamFramer framer_;               ///< over stream_: what is not yet sent
  std::map<std::uint32_t, PendingTpdu> outstanding_;
  std::vector<std::uint32_t> gave_up_ids_;
  bool started_{false};
  Stats stats_;
  StatsBinding stats_binding_;  ///< after stats_: publishes its fields

  // Flow-control state (only mutated when cfg_.flow.enabled).
  std::uint64_t credit_limit_{0};     ///< cumulative admit budget (bytes)
  std::uint64_t credit_consumed_{0};  ///< payload bytes admitted so far
  std::uint16_t slots_{0};            ///< open-TPDU window
  std::size_t inflight_{0};           ///< admitted and not yet retired
  std::uint32_t grant_seq_seen_{0};
  bool any_grant_{false};
  bool blocked_{false};
  std::uint64_t admit_epoch_{0};  ///< bumps on every admission
  bool probe_armed_{false};
};

}  // namespace chunknet
