// The chunk transport receiver.
//
// Implements the receive side the paper argues for: every arriving
// packet is opened, and each chunk is processed *immediately* — placed
// into application memory by its C.SN, absorbed into the TPDU's WSC-2
// invariant, checked for SN consistency, and tracked by virtual
// reassembly — with no reordering or reassembly buffering in the data
// path. For comparison (§3.3's three options), the receiver can also
// run in reorder-first or reassemble-first mode; those modes buffer
// data and therefore touch bytes twice, which the receiver accounts as
// bus crossings (the RISC-workstation bottleneck of §1).
//
// TPDU acceptance needs all three Table-1 mechanisms to pass:
//   1. virtual reassembly completes exactly (no stop conflicts, no
//      data past the stop, no layout violations);
//   2. the incremental WSC-2 invariant equals the ED chunk's code;
//   3. (C.SN − T.SN) and (C.SN − X.SN) stayed constant.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/chunk/compress.hpp"
#include "src/chunk/types.hpp"
#include "src/common/buffer_pool.hpp"
#include "src/common/flat_map.hpp"
#include "src/common/interval_set.hpp"
#include "src/common/pick_queue.hpp"
#include "src/common/resource_governor.hpp"
#include "src/common/timer_wheel.hpp"
#include "src/netsim/simulator.hpp"
#include "src/obs/obs.hpp"
#include "src/reassembly/virtual_reassembly.hpp"
#include "src/transport/invariant.hpp"

namespace chunknet {

enum class DeliveryMode : std::uint8_t {
  kImmediate,   ///< process-as-it-arrives (the paper's design point)
  kReorder,     ///< hold disordered data until in C.SN order
  kReassemble,  ///< hold each TPDU until physically complete
};

const char* to_string(DeliveryMode m);

/// Why a TPDU was accepted or rejected (Table 1's detection buckets).
enum class TpduVerdict : std::uint8_t {
  kAccepted,
  kCodeMismatch,        ///< "Error Detection Code"
  kConsistencyFailure,  ///< "Consistency Check"
  kReassemblyError,     ///< "Reassembly Error"
};

const char* to_string(TpduVerdict v);

struct TpduOutcome {
  std::uint32_t tpdu_id{0};
  TpduVerdict verdict{TpduVerdict::kAccepted};
  SimTime first_chunk_at{0};
  SimTime completed_at{0};
  std::uint64_t elements{0};
};

struct ReceiverConfig {
  std::uint32_t connection_id{1};
  std::uint16_t element_size{4};
  std::uint32_t first_conn_sn{0};
  std::size_t app_buffer_bytes{1 << 20};
  DeliveryMode mode{DeliveryMode::kImmediate};
  InvariantConfig invariant{};
  /// Called when a TPDU finishes verification.
  std::function<void(const TpduOutcome&)> on_tpdu;
  /// Called to send a control chunk (ACK/NAK) back to the sender;
  /// null = no feedback channel.
  std::function<void(Chunk)> send_control;
  /// Selective retransmission (extension; see signalling.hpp): when a
  /// TPDU is still incomplete this long after its first chunk, send a
  /// GapNak listing the exact missing runs from virtual reassembly.
  /// 0 disables (the sender's whole-TPDU timer is then the only
  /// recovery). Re-armed after each NAK, up to max_gap_naks times.
  SimTime gap_nak_delay{0};
  int max_gap_naks{6};
  /// When set, gap-NAK deadlines are armed on this shared timer wheel
  /// instead of as individual simulator events — at million-flow scale
  /// one pump event replaces one heap node per pending deadline. The
  /// wheel must outlive the receiver.
  SimTimerWheel* timers{nullptr};
  /// When set, packets in the compact Appendix-A syntax (magic 0xC5)
  /// are accepted under this (signalled) profile, alongside canonical
  /// ones — "chunk headers can have different formats in different
  /// parts of the network".
  std::optional<CompressionProfile> compression;
  /// Graceful-degradation cap on bytes held outside application memory
  /// (reorder queue / reassemble holds). 0 = unbounded. Under pressure
  /// the receiver EVICTS rather than grows: reorder mode force-places
  /// the queue out of order (data stays byte-exact, ordering guarantee
  /// degrades), reassemble mode aborts the oldest held TPDU (its
  /// retransmission starts clean). Immediate mode holds nothing and
  /// never evicts — the paper's point, stressed by bench E7/E11.
  std::size_t max_held_bytes{0};
  /// Cap on per-TPDU context entries (open + finished tombstones).
  /// 0 = unbounded. Eviction prefers finished tombstones, then
  /// incomplete TPDUs, and only then complete-but-undelivered ones
  /// (oldest first within a class); evicting an unfinished TPDU aborts
  /// it.
  std::size_t max_open_tpdus{0};
  /// Endpoint-wide overload control (docs/ROBUSTNESS.md, "Overload
  /// control"): held bytes are charged to this governor under
  /// `connection_id` (class kHeld), a chunk that would cross the hard
  /// watermark triggers shedding (self first, then governor-selected
  /// victims), and the receiver registers a shed hook so OTHER
  /// connections' pressure can reclaim this one's holdings. The
  /// governor must outlive the receiver.
  ResourceGovernor* governor{nullptr};
  /// Weight for the governor's priority-weighted shed policy
  /// (higher = more protected).
  int shed_priority{1};
  /// Credit-based flow control: advertise credit to the sender (via
  /// send_control) after every finished TPDU and re-ACK. The advertised
  /// window is `credit_window_bytes` capped by the governor's headroom
  /// share; slots halve while the governor is over its soft watermark.
  bool grant_credit{false};
  std::uint64_t credit_window_bytes{64 * 1024};
  std::uint16_t credit_tpdu_slots{4};
  /// Per-element delivery-latency samples are appended to
  /// stats().delivery_latency_ns when true. Benches that sweep very
  /// large flow counts turn this off: the histogram (obs) keeps
  /// recording, but per-element vectors would dominate memory.
  bool record_latency_samples{true};
  /// Observability (optional). Metric names are prefixed with
  /// "receiver.<mode>." so runs in different delivery modes stay
  /// distinguishable in one registry.
  ObsContext* obs{nullptr};
  std::uint16_t obs_site{0};
  /// When set, on_packet returns every packet's byte buffer to this
  /// pool once its chunks are processed, closing the recycle loop with
  /// a pool-acquiring driver (zero steady-state allocation; see
  /// docs/PERFORMANCE.md). The pool must outlive the receiver.
  PacketBufferPool* pool{nullptr};
};

class ChunkTransportReceiver final : public PacketSink {
 public:
  ChunkTransportReceiver(Simulator& sim, ReceiverConfig cfg);
  ~ChunkTransportReceiver() override;

  void on_packet(SimPacket pkt) override;

  /// Per-chunk entry point used by ChunkDemultiplexer (which has
  /// already opened the envelope): processes one chunk of THIS
  /// connection. `packet_created_at` is the carrying packet's creation
  /// time, for latency accounting; `packet_id` keys trace events to
  /// the carrying packet (0 = unknown).
  void on_chunk(Chunk c, SimTime packet_created_at,
                std::uint64_t packet_id = 0);

  /// Zero-copy per-chunk entry point: the view's payload aliases the
  /// caller's packet buffer, which must stay alive (and unmoved) for
  /// the duration of the call. Immediate mode places the payload
  /// straight from the view — one bus crossing, no intermediate Chunk;
  /// the holding modes materialize an owning copy (that copy IS the
  /// extra crossing the bus accounting charges them).
  void on_chunk_view(const ChunkView& v, SimTime packet_created_at,
                     std::uint64_t packet_id = 0);

  /// Application address space (spatially reassembled data).
  std::span<const std::uint8_t> app_data() const { return app_buffer_; }

  /// Elements of the connection stream delivered so far.
  std::uint64_t elements_delivered() const { return app_coverage_.covered(); }
  bool stream_complete(std::uint64_t total_elements) const {
    return app_coverage_.covers(0, total_elements);
  }

  struct Stats {
    std::uint64_t packets{0};
    std::uint64_t malformed_packets{0};
    std::uint64_t data_chunks{0};
    std::uint64_t ed_chunks{0};
    std::uint64_t foreign_chunks{0};     ///< wrong connection id
    std::uint64_t duplicate_chunks{0};
    std::uint64_t overlap_chunks{0};
    std::uint64_t framing_error_chunks{0};
    std::uint64_t tpdus_accepted{0};
    std::uint64_t tpdus_rejected{0};
    /// Positive ACKs re-sent for an already-finished TPDU whose ED
    /// chunk arrived again (the original ACK was lost in the network);
    /// without this the sender retransmits a delivered TPDU to death.
    std::uint64_t acks_resent{0};
    /// Chunk disposition (mutually exclusive, for conservation checks):
    /// every data chunk that passes framing/duplicate/overlap triage
    /// ends up placed, out-of-range, dropped unplaced, or still held.
    std::uint64_t chunks_placed{0};
    std::uint64_t bytes_placed{0};
    std::uint64_t oob_chunks{0};  ///< placement outside the app buffer
    /// Held/queued chunks dropped without ever being placed: a rejected
    /// TPDU's holds, reassemble-mode evictions, and aborts.
    std::uint64_t dropped_unplaced_chunks{0};
    std::uint64_t dropped_unplaced_bytes{0};
    /// Bytes moved across the memory bus in the data path. Immediate
    /// placement moves each byte once (interface → app memory); held
    /// bytes move twice (interface → hold buffer → app memory).
    std::uint64_t bus_bytes{0};
    std::uint64_t held_bytes_peak{0};
    std::uint64_t held_bytes_now{0};
    /// Graceful degradation (max_held_bytes / max_open_tpdus).
    std::uint64_t tpdus_evicted{0};
    std::uint64_t held_chunks_evicted{0};
    std::uint64_t held_bytes_evicted{0};
    /// Overload control: chunks whose TPDU was aborted because the
    /// governor's hard watermark left no room even after shedding, and
    /// credit grants advertised to the sender.
    std::uint64_t governor_refusals{0};
    std::uint64_t credit_grants_sent{0};
    /// Entries examined by eviction passes (holder eviction is queue-
    /// head pops, open-cap eviction walks the age order only until the
    /// first incomplete TPDU): the bounded-shed tests assert this stays
    /// O(evicted), never O(live table).
    std::uint64_t evict_scan_steps{0};
    /// Per-element delivery latency samples (ns), packet creation to
    /// placement in application memory.
    std::vector<double> delivery_latency_ns;
  };
  const Stats& stats() const { return stats_; }

  /// Drops state of TPDUs that can no longer complete (sender gave
  /// up). Used by long-running simulations to bound memory. Purges the
  /// TPDU's held chunks AND its reorder-queue entries; the dropped data
  /// is counted under dropped_unplaced_* so conservation still closes.
  void abort_tpdu(std::uint32_t tpdu_id);

  /// State-leak probes for post-quiescence checks (chaos oracles).
  std::size_t open_tpdus() const { return tpdus_.size(); }
  std::size_t unfinished_tpdus() const;
  std::vector<std::uint32_t> unfinished_tpdu_ids() const;
  std::size_t reorder_queue_chunks() const { return reorder_queue_.size(); }

  /// Structural bytes of the per-connection tables (TPDU contexts,
  /// reorder queue, eviction queues) — the footprint the flow-scale
  /// bench tracks per connection. Excludes the app buffer and the
  /// variable-size per-TPDU internals (held vectors, tracker runs).
  std::size_t state_bytes() const;

 private:
  struct HeldChunk {
    Chunk chunk;
    SimTime packet_created_at{0};
    std::uint64_t packet_id{0};
  };

  struct TpduState {
    TpduInvariant invariant;
    PduTracker tracker;
    SnConsistencyChecker consistency;
    std::optional<Wsc2Code> received_code;
    bool framing_error{false};
    bool layout_error{false};
    bool finished{false};
    SimTime first_chunk_at{0};
    std::uint64_t elements{0};
    int gap_naks_sent{0};
    bool nak_timer_armed{false};
    std::vector<HeldChunk> held;  ///< kReassemble mode only
    /// Intrusive handles into the eviction queues (PickQueue::kNil when
    /// not enqueued): creation-order node (active_ while unfinished,
    /// tombstones_ once accepted) and first-hold-order node (holders_,
    /// kReassemble mode while held is non-empty).
    std::int32_t order_node{PickQueue::kNil};
    std::int32_t holder_node{PickQueue::kNil};
  };

  void handle_data_chunk(const ChunkView& v, SimTime packet_created_at,
                         std::uint64_t packet_id);
  void handle_ed_chunk(const ChunkView& v);
  void arm_gap_nak_timer(std::uint32_t tpdu_id, TpduState& st);
  void fire_gap_nak(std::uint32_t tpdu_id);
  void place_chunk(const ChunkHeader& h,
                   std::span<const std::uint8_t> payload,
                   SimTime packet_created_at, bool was_held,
                   std::uint64_t packet_id);
  void release_in_order();
  void try_finish(std::uint32_t tpdu_id, TpduState& st);
  /// max_held_bytes pressure, reorder mode: force-places the whole
  /// queue out of order and advances next_release_off_ past it.
  void flush_reorder_queue();
  /// max_held_bytes pressure, reassemble mode: aborts the unfinished
  /// TPDU with the oldest first chunk that holds bytes. Returns its id,
  /// or nullopt when nothing is holding.
  std::optional<std::uint32_t> evict_oldest_holder();
  /// max_open_tpdus pressure: drops one context entry (finished
  /// tombstones first, oldest first; else the oldest unfinished TPDU).
  void evict_for_open_cap();
  /// Unlinks the TPDU's eviction-queue nodes and erases its table
  /// entry. Any TpduState pointers are invalid afterwards.
  void erase_tpdu_entry(std::uint32_t tpdu_id, TpduState& st);
  /// Drops stale (already-erased) offsets from the top of the reorder
  /// min-heap so front() is the smallest live queued offset.
  void prune_reorder_heap();
  void hold_bytes(std::uint64_t n);
  void unhold_bytes(std::uint64_t n);
  /// Governor shed hook: frees one round of holdings (reorder: flush
  /// the queue; reassemble: evict the oldest holder) and returns the
  /// bytes released.
  std::uint64_t shed_held();
  /// Aborts THIS TPDU under hard-watermark pressure (its holds and the
  /// incoming chunk are dropped; retransmission starts clean).
  void abort_for_governor(std::uint32_t tpdu_id, std::size_t incoming_bytes);
  /// Advertises a CreditGrant reflecting current governor headroom.
  void maybe_send_grant();
  /// Counts a triaged-accepted chunk discarded without ever being
  /// placed (rejection, eviction, abort, supersession); releases its
  /// hold accounting when it was held.
  void drop_unplaced(std::size_t payload_bytes, bool was_held);
  void trace_chunk(TraceEventKind kind, const ChunkHeader& h,
                   std::uint64_t packet_id, std::uint64_t aux = 0) const;
  void trace_packet(TraceEventKind kind, std::uint64_t packet_id) const;
  void span(SpanEventKind kind, std::uint32_t tpdu_id,
            std::uint64_t aux = 0) const;

  struct ObsHandles {
    Gauge* held_bytes{nullptr};
    Gauge* held_bytes_peak{nullptr};
    Histogram* delivery_latency{nullptr};
  };

  Simulator& sim_;
  ReceiverConfig cfg_;
  ObsHandles m_;
  SpanRecorder* spans_{nullptr};  ///< resolved once; hot path
  /// Reused across packets by on_packet so steady-state receive does
  /// no per-packet allocation (capacity sticks at the high-water mark).
  std::vector<ChunkView> view_scratch_;
  std::vector<std::uint8_t> app_buffer_;
  IntervalSet app_coverage_;  ///< element-granular, relative to first_conn_sn
  FlatMap<std::uint32_t, TpduState> tpdus_;
  /// Eviction bookkeeping over tpdus_, all O(1) per update: unfinished
  /// TPDUs in creation order (== first-chunk order; sim time is
  /// monotonic), accepted tombstones in finish order, and reassemble-
  /// mode holders in first-hold order. Eviction pops queue heads
  /// instead of scanning the table, so shedding a few entries from a
  /// 100k-flow table is O(evicted), not O(live).
  PickQueue active_;
  PickQueue tombstones_;
  PickQueue holders_;
  /// kReorder mode: chunks waiting for their turn, keyed by the
  /// chunk's stream offset — the wrapping 32-bit distance from
  /// first_conn_sn, widened to 64 bits. Ordering in offset space stays
  /// correct when C.SN wraps past 2^32 mid-connection; ordering in raw
  /// C.SN space does not. The flat map is unordered, so release order
  /// comes from a lazy-deletion min-heap of offsets: entries erased
  /// behind the heap's back (aborts) are skipped when they surface.
  FlatMap<std::uint64_t, HeldChunk> reorder_queue_;
  std::vector<std::uint64_t> reorder_heap_;
  std::uint64_t next_release_off_{0};
  /// Stream offset of a data chunk: wrapping distance from the
  /// connection's first C.SN.
  std::uint64_t stream_offset(std::uint32_t conn_sn) const {
    return static_cast<std::uint32_t>(conn_sn - cfg_.first_conn_sn);
  }
  Stats stats_;
  StatsBinding stats_binding_;  ///< after stats_: publishes its fields
  /// Flow control: cumulative finished-TPDU payload bytes (the base of
  /// every advertised credit limit) and the grant ordering sequence.
  std::uint64_t credited_bytes_{0};
  std::uint32_t grant_seq_{0};
};

}  // namespace chunknet
