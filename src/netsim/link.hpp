// Simulated links: serialization delay, propagation, loss, duplication,
// jitter, and the paper's two disordering mechanisms — multipath lane
// skew and route flaps (§1: "Skew among the routes can cause packets to
// leave the network in a different order than that in which they
// entered. Route changes … also can cause packet disordering").
#pragma once

#include <cstdint>

#include "src/common/rng.hpp"
#include "src/netsim/simulator.hpp"
#include "src/obs/obs.hpp"

namespace chunknet {

struct LinkConfig {
  double rate_bps{622e6};          ///< serialization rate
  SimTime prop_delay{1 * kMillisecond};
  std::size_t mtu{1500};           ///< enforced: larger packets dropped
  double loss_rate{0.0};           ///< i.i.d. packet loss probability
  double dup_rate{0.0};            ///< probability of duplicate delivery
  /// Drop-tail bound on the transmit queue (0 = unbounded). A packet
  /// arriving while more than this many bytes are already waiting to
  /// serialize is discarded — the finite router buffer that turns
  /// sustained overload into loss instead of unbounded delay.
  std::size_t queue_limit_bytes{0};
  SimTime jitter{0};               ///< uniform extra delay in [0, jitter]
  int lanes{1};                    ///< parallel physical lanes (striping)
  SimTime lane_skew{0};            ///< extra prop delay per lane index
  /// Mean interval between route flaps (0 = never). A flap re-rolls
  /// every lane's skew, so in-flight packets overtake later ones.
  SimTime route_flap_interval{0};
  SimTime route_flap_magnitude{2 * kMillisecond};
  /// Observability (optional): metric names and trace events carry
  /// `obs_site` so multi-hop topologies can attribute per-hop behaviour.
  ObsContext* obs{nullptr};
  std::uint16_t obs_site{0};
};

/// Unidirectional link delivering packets to a fixed sink.
class Link {
 public:
  Link(Simulator& sim, LinkConfig cfg, PacketSink& sink, Rng& rng);

  /// Queues a packet for transmission. Oversized packets are counted
  /// and dropped (the "never fragment — discard" failure of §3).
  void send(SimPacket pkt);

  struct Stats {
    std::uint64_t offered{0};
    std::uint64_t delivered{0};
    std::uint64_t lost{0};
    std::uint64_t duplicated{0};
    std::uint64_t oversize_dropped{0};
    std::uint64_t queue_dropped{0};
    std::uint64_t bytes_delivered{0};
  };
  const Stats& stats() const { return stats_; }
  const LinkConfig& config() const { return cfg_; }

 private:
  /// Time to clock `bytes` onto ONE lane: the aggregate rate is striped
  /// evenly, so each lane serializes at rate/lanes. This is the single
  /// serialization model — send() charges every transmitted copy
  /// (original or duplicate) through occupy_lane(), which uses it.
  SimTime serialize_time(std::size_t bytes) const {
    const double lane_rate =
        cfg_.rate_bps / static_cast<double>(cfg_.lanes > 1 ? cfg_.lanes : 1);
    return static_cast<SimTime>(static_cast<double>(bytes) * 8.0 /
                                lane_rate * 1e9);
  }
  struct LaneSlot {
    std::size_t lane;
    SimTime done;  ///< when the last bit leaves the lane
  };
  /// Claims the next round-robin lane and occupies it for the packet's
  /// serialization time; transmission starts when the lane is free.
  LaneSlot occupy_lane(std::size_t bytes);
  void deliver_copy(const SimPacket& pkt, SimTime at);
  void maybe_flap();
  void trace(TraceEventKind kind, const SimPacket& pkt,
             std::uint64_t aux = 0) const;

  /// Bytes still waiting to serialize across all lanes, derived from
  /// each lane's busy time (no per-packet queue state needed).
  std::size_t backlog_bytes() const;

  Simulator& sim_;
  LinkConfig cfg_;
  PacketSink& sink_;
  Rng& rng_;
  std::vector<SimTime> lane_free_at_;
  std::vector<SimTime> lane_extra_skew_;
  std::size_t next_lane_{0};
  SimTime next_flap_{0};
  Stats stats_;
  StatsBinding stats_binding_;  ///< after stats_: publishes its fields
};

}  // namespace chunknet
