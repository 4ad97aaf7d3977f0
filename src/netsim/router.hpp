// Routers and multi-hop topologies.
//
// A Router owns an egress link and a *relay function* that rewrites a
// packet for the egress MTU. Relays implement the internetworking
// options of §3/Figure 4:
//   - transparent_relay: forward unchanged (oversize → link drops it;
//     "never fragment — discard packets that are too large");
//   - chunk_relay: open the envelope, re-pack chunks to the egress MTU
//     (splitting per Appendix C, optionally merging per Appendix D) —
//     arbitrary combinations of intra-/inter-network fragmentation,
//     fully transparent to the receiver.
// The IP fragmentation relay lives in src/baselines (it rewrites IP
// fragments, not chunks).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/chunk/packetizer.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/simulator.hpp"

namespace chunknet {

/// Rewrites one arriving packet body into packet bodies for an egress
/// MTU. Returning an empty vector drops the packet. Bodies are
/// PacketBytes so a transparent relay forwards the arriving (aligned)
/// storage without copying it.
using RelayFn = std::function<std::vector<PacketBytes>(
    PacketBytes bytes, std::size_t egress_mtu)>;

/// Forward unchanged; the egress link enforces its MTU by dropping.
RelayFn transparent_relay();

/// Re-envelope chunks for the egress MTU under the given policy.
/// `stats` (optional) accumulates split/merge counts across calls.
struct RelayStats {
  std::uint64_t packets_in{0};
  std::uint64_t packets_out{0};
  std::uint64_t splits{0};
  std::uint64_t merges{0};
  std::uint64_t parse_failures{0};
};
RelayFn chunk_relay(RepackPolicy policy, RelayStats* stats = nullptr);

/// A store-and-forward router: applies the relay, then transmits the
/// results on its egress link.
class Router final : public PacketSink {
 public:
  Router(Simulator& sim, RelayFn relay, Link& egress,
         ObsContext* obs = nullptr, std::uint16_t obs_site = 0);

  void on_packet(SimPacket pkt) override;

  /// Published as router<site>.forwarded / router<site>.dropped.
  struct Stats {
    std::uint64_t forwarded{0};  ///< packets sent on the egress link
    std::uint64_t dropped{0};    ///< arrivals the relay discarded
  };
  const Stats& stats() const { return stats_; }

 private:
  Simulator& sim_;
  RelayFn relay_;
  Link& egress_;
  ObsContext* obs_;
  std::uint16_t obs_site_;
  Stats stats_;
  StatsBinding stats_binding_;  ///< after stats_: publishes its fields
};

/// A chunk-aware router that BATCHES: chunks from packets arriving
/// within `window` are re-enveloped together, so small-MTU arrivals can
/// be combined into large-MTU departures (Figure 4 methods 2 and 3
/// across packet boundaries, and §3.1's "packing unrelated chunks into
/// packets"). A stateless per-packet router can only split, never
/// combine; this is the store-and-forward counterpart.
class BatchingChunkRouter final : public PacketSink {
 public:
  BatchingChunkRouter(Simulator& sim, RepackPolicy policy, Link& egress,
                      SimTime window, RelayStats* stats = nullptr,
                      ObsContext* obs = nullptr, std::uint16_t obs_site = 0);

  void on_packet(SimPacket pkt) override;

 private:
  void flush();

  Simulator& sim_;
  RepackPolicy policy_;
  Link& egress_;
  SimTime window_;
  RelayStats* stats_;
  ObsContext* obs_;
  std::uint16_t obs_site_;
  Router::Stats counts_;
  StatsBinding counts_binding_;  ///< after counts_: publishes its fields
  std::vector<Chunk> pending_;
  SimTime oldest_created_at_{0};
  bool timer_armed_{false};
};

/// A linear internetwork: ingress → link₀ → router₁ → link₁ → … → sink.
/// Each hop has its own LinkConfig (different MTUs model the paper's
/// internetworking scenarios). Routers between hop i and i+1 use the
/// supplied relay factory.
class ChainTopology {
 public:
  /// When `obs` is given, hops that did not set their own ObsContext
  /// are auto-instrumented with obs_site = hop index, and router i
  /// (between hop i and i+1) records under site i.
  ChainTopology(Simulator& sim, Rng& rng, std::vector<LinkConfig> hops,
                PacketSink& receiver,
                const std::function<RelayFn()>& relay_factory,
                ObsContext* obs = nullptr);

  /// Sends application packet bytes into the first hop.
  void inject(PacketBytes bytes);

  const Link& hop(std::size_t i) const { return *links_[i]; }
  std::size_t hops() const { return links_.size(); }

 private:
  Simulator& sim_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Router>> routers_;
};

}  // namespace chunknet
