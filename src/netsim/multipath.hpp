// Multipath resilience plane: N-way packet spraying with per-path
// health monitoring and automatic failover.
//
// §1 of the paper argues that labelled chunks shrug off the reordering
// that parallel lanes inflict ("obtaining gigabit rates on a SONET
// OC-3 ATM network requires using eight 155 Mbps ATM connections in
// parallel"). The Link's lane striping models skew WITHIN one route;
// this module models the path level above it: a MultipathScheduler
// sprays one connection's packets across 2–16 distinct Links with
// heterogeneous delay/jitter/loss, watches each path's delivery
// evidence, and routes around paths that blacken out.
//
//  - Spray modes: per-packet round-robin, smooth weighted round-robin
//    (deterministic credit counters, no RNG draw per packet), and
//    flowlet (sticky path, re-picked after an idle gap — the
//    reordering-averse mode an ordered transport would need).
//  - Health: every transmitted packet is tracked until its egress
//    delivery or a loss-evidence deadline (the simulator-side analogue
//    of ACK/NAK evidence: nothing came back in time). Loss and one-way
//    delay feed per-path EWMAs; a run of consecutive losses or a loss
//    EWMA above threshold marks the path down (failover).
//  - Failback is hysteresis-based: a down path receives one probe
//    packet per probe interval (real traffic — if the probe dies the
//    transport's retransmission recovers it), and only a run of
//    consecutive probe deliveries brings the path back.
//  - kill_path()/revive_path() model administrative path failure
//    (chaos mid-run kill): packets in flight on a killed path are
//    discarded at its egress and accounted as dead-path drops; a
//    revived path stays down until probes prove it.
//
// Conservation contract (chaos oracle 7): for every path,
// tx_packets == delivered + lost once inflight() drains to zero, so
// no packet is ever stranded on a dead path unaccounted.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/rng.hpp"
#include "src/netsim/faults.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/simulator.hpp"
#include "src/obs/obs.hpp"

namespace chunknet {

enum class SprayMode : std::uint8_t {
  kPerPacket = 0,           ///< byte-balanced spray over healthy paths
                            ///< (deficit round robin: least-bytes-sent
                            ///< first; round robin for equal sizes)
  kWeightedRoundRobin = 1,  ///< smooth WRR honouring per-path weights
  kFlowlet = 2,             ///< sticky path, re-picked after idle gap
};

const char* to_string(SprayMode m);

/// One path: its link personality plus scheduling weight and an
/// optional Gilbert–Elliott loss process private to this path (bursty
/// loss the health monitor must see through).
struct MultipathPathConfig {
  LinkConfig link;
  double weight{1.0};  ///< kWeightedRoundRobin share
  GilbertElliottConfig faults{};  ///< mean_loss() == 0 disables
};

struct MultipathConfig {
  SprayMode mode{SprayMode::kPerPacket};

  // ---- health monitor
  /// EWMA smoothing factor for per-path loss and delay estimates.
  double ewma_alpha{1.0 / 16.0};
  /// Loss EWMA above this marks the path down.
  double fail_loss_ewma{0.5};
  /// A run of this many consecutive loss evidences marks the path down
  /// (blackout detection — faster than waiting for the EWMA).
  int fail_consecutive_losses{4};
  /// A packet not delivered this long after transmission counts as
  /// loss evidence (the ACK/NAK-silence analogue). The effective
  /// deadline per path is max(this, 4 × delay EWMA) so slow-but-alive
  /// paths are not declared lossy.
  SimTime loss_evidence_timeout{50 * kMillisecond};

  // ---- hysteresis failback
  /// While a path is down (and not killed), one data packet per this
  /// interval is routed onto it as a probe.
  SimTime probe_interval{20 * kMillisecond};
  /// Consecutive probe deliveries required to bring a down path back.
  int failback_consecutive_successes{4};

  /// kFlowlet: idle gap after which the scheduler may switch paths.
  SimTime flowlet_gap{1 * kMillisecond};

  ObsContext* obs{nullptr};
  /// Per-path links get obs_site = obs_site_base + path index.
  std::uint16_t obs_site_base{100};
};

/// Sprays packets across N owned Links, each delivering into a private
/// egress that records health evidence before forwarding to the shared
/// `downstream` sink. Also usable as a PacketSink (on_packet == send).
class MultipathScheduler final : public PacketSink {
 public:
  MultipathScheduler(Simulator& sim, MultipathConfig cfg,
                     std::vector<MultipathPathConfig> paths,
                     PacketSink& downstream, Rng& rng);

  void send(SimPacket pkt);
  void on_packet(SimPacket pkt) override { send(std::move(pkt)); }

  /// Administrative path failure: the path is marked down immediately
  /// (one failover event), in-flight packets die at its egress, and no
  /// new traffic — not even probes — is routed onto it.
  void kill_path(std::size_t i);
  /// Clears the kill. The path stays down until hysteresis probes
  /// bring it back.
  void revive_path(std::size_t i);

  struct PathStats {
    std::uint64_t tx_packets{0};
    std::uint64_t tx_bytes{0};
    std::uint64_t delivered{0};  ///< egress arrivals matched in flight
    /// Loss evidence: deadline expiries plus dead-path drops. Closes
    /// conservation: tx_packets == delivered + lost at quiescence.
    std::uint64_t lost{0};
    std::uint64_t dead_drops{0};  ///< subset of `lost`: killed at egress
    std::uint64_t ge_drops{0};    ///< per-path Gilbert–Elliott drops
    std::uint64_t probes{0};      ///< packets routed as failback probes
    /// Egress arrivals already written off (late after the evidence
    /// deadline, or link-duplicated copies); forwarded but not counted
    /// delivered, so conservation still closes.
    std::uint64_t late{0};
    std::uint64_t failovers{0};
    std::uint64_t failbacks{0};
    double loss_ewma{0.0};
    double delay_ewma_ns{0.0};
    bool down{false};
    bool killed{false};
  };
  const PathStats& path_stats(std::size_t i) const {
    return paths_[i].st;
  }
  std::size_t path_count() const { return paths_.size(); }
  const Link& path_link(std::size_t i) const { return *paths_[i].link; }

  struct Stats {
    std::uint64_t sprayed{0};    ///< packets accepted by send()
    std::uint64_t forwarded{0};  ///< handed to downstream (incl. late)
    std::uint64_t failovers{0};
    std::uint64_t failbacks{0};
    std::uint64_t flowlet_switches{0};
    /// Sends with no healthy path available (best-effort pick).
    std::uint64_t no_healthy_sends{0};
    /// Sends routed to a killed path while a live one existed. Always
    /// zero by construction; chaos oracle 7 asserts it stayed so.
    std::uint64_t killed_path_sends{0};
  };
  const Stats& stats() const { return stats_; }
  /// Packets transmitted but not yet resolved as delivered or lost.
  std::size_t inflight() const { return inflight_.size(); }

 private:
  struct Egress final : public PacketSink {
    MultipathScheduler* owner{nullptr};
    std::size_t index{0};
    void on_packet(SimPacket pkt) override {
      owner->arrival(index, std::move(pkt));
    }
  };
  struct Path {
    double weight{1.0};
    std::unique_ptr<Egress> egress;
    std::unique_ptr<Link> link;
    std::unique_ptr<GilbertElliott> ge;
    PathStats st;
    int consec_losses{0};
    int consec_successes{0};
    SimTime last_probe{0};
    double wrr_credit{0.0};
    /// Bytes this path has been handed by the sprayer (including probes
    /// and best-effort sends). Per-packet mode balances on this, not on
    /// a packet count: equal-size packets degenerate to round robin,
    /// while mixed sizes (a full-MTU packet alternating with a TPDU
    /// tail) still split bytes evenly. Re-based on failback so a
    /// returning path is not handed the whole backlog it missed.
    std::uint64_t spray_bytes{0};
    Gauge* loss_ewma_ppm{nullptr};
    Gauge* rtt_ewma_ns{nullptr};
  };
  struct Inflight {
    std::uint32_t path{0};
    SimTime sent_at{0};
  };

  void arrival(std::size_t path, SimPacket pkt);
  void evidence_deadline(std::uint64_t packet_id);
  void loss_evidence(std::size_t i);
  void delivery_evidence(std::size_t i, SimTime one_way_ns);
  void mark_down(std::size_t i);
  void mark_up(std::size_t i);
  std::size_t pick_path();
  SimTime effective_deadline(const Path& p) const;
  void publish_health(Path& p);
  void trace(TraceEventKind kind, std::size_t path,
             std::uint64_t packet_id) const;

  Simulator& sim_;
  MultipathConfig cfg_;
  PacketSink& downstream_;
  std::vector<Path> paths_;
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  std::size_t rr_next_{0};
  std::size_t flowlet_path_{0};
  SimTime last_send_{0};
  bool sent_any_{false};
  Stats stats_;
  /// After paths_ and stats_: publishes their fields.
  StatsBinding stats_binding_;
};

}  // namespace chunknet
