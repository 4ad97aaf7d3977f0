#include "src/netsim/router.hpp"

#include "src/chunk/codec.hpp"

namespace chunknet {

RelayFn transparent_relay() {
  return [](PacketBytes bytes, std::size_t /*egress_mtu*/) {
    std::vector<PacketBytes> out;
    out.push_back(std::move(bytes));
    return out;
  };
}

RelayFn chunk_relay(RepackPolicy policy, RelayStats* stats) {
  return [policy, stats](PacketBytes bytes, std::size_t egress_mtu) {
    if (stats != nullptr) ++stats->packets_in;
    ParsedPacket parsed = decode_packet(bytes);
    if (!parsed.ok) {
      if (stats != nullptr) ++stats->parse_failures;
      return std::vector<PacketBytes>{};
    }
    PacketizerOptions opts;
    opts.mtu = egress_mtu;
    opts.policy = policy;
    PacketizeResult repacked = packetize(std::move(parsed.chunks), opts);
    if (stats != nullptr) {
      stats->splits += repacked.splits;
      stats->merges += repacked.merges;
      stats->packets_out += repacked.packets.size();
    }
    // Re-enveloping materializes fresh packet bodies; the copy into
    // aligned storage is part of that cost.
    std::vector<PacketBytes> out;
    out.reserve(repacked.packets.size());
    for (auto& p : repacked.packets) out.emplace_back(std::move(p));
    return out;
  };
}

namespace {

void router_trace(ObsContext* obs, Simulator& sim, std::uint16_t site,
                  TraceEventKind kind, std::uint64_t packet_id,
                  std::uint64_t aux) {
  if (obs == nullptr || obs->tracer == nullptr) return;
  TraceEvent e;
  e.t = sim.now();
  e.kind = kind;
  e.site = site;
  e.packet_id = packet_id;
  e.aux = aux;
  obs->tracer->record(e);
}

}  // namespace

Router::Router(Simulator& sim, RelayFn relay, Link& egress, ObsContext* obs,
               std::uint16_t obs_site)
    : sim_(sim), relay_(std::move(relay)), egress_(egress), obs_(obs),
      obs_site_(obs_site) {
  if (MetricsRegistry* reg = metrics_of(obs_)) {
    stats_binding_.bind(reg, "router" + std::to_string(obs_site_) + ".",
                        stats_,
                        {{"forwarded", &Stats::forwarded},
                         {"dropped", &Stats::dropped}});
  }
}

void Router::on_packet(SimPacket pkt) {
  auto outputs = relay_(std::move(pkt.bytes), egress_.config().mtu);
  if (outputs.empty()) {
    ++stats_.dropped;
    router_trace(obs_, sim_, obs_site_, TraceEventKind::kRouterDropped,
                 pkt.id, 0);
    return;
  }
  for (auto& body : outputs) {
    SimPacket out;
    out.bytes = std::move(body);
    out.id = sim_.next_packet_id();
    out.created_at = pkt.created_at;  // preserve end-to-end timestamp
    out.hops = pkt.hops;
    ++stats_.forwarded;
    router_trace(obs_, sim_, obs_site_, TraceEventKind::kRouterRelayed,
                 out.id, pkt.id);
    egress_.send(std::move(out));
  }
}

BatchingChunkRouter::BatchingChunkRouter(Simulator& sim, RepackPolicy policy,
                                         Link& egress, SimTime window,
                                         RelayStats* stats, ObsContext* obs,
                                         std::uint16_t obs_site)
    : sim_(sim), policy_(policy), egress_(egress), window_(window),
      stats_(stats), obs_(obs), obs_site_(obs_site) {
  if (MetricsRegistry* reg = metrics_of(obs_)) {
    counts_binding_.bind(reg, "router" + std::to_string(obs_site_) + ".",
                         counts_,
                         {{"forwarded", &Router::Stats::forwarded},
                          {"dropped", &Router::Stats::dropped}});
  }
}

void BatchingChunkRouter::on_packet(SimPacket pkt) {
  if (stats_ != nullptr) ++stats_->packets_in;
  ParsedPacket parsed = decode_packet(pkt.bytes);
  if (!parsed.ok) {
    if (stats_ != nullptr) ++stats_->parse_failures;
    ++counts_.dropped;
    router_trace(obs_, sim_, obs_site_, TraceEventKind::kRouterDropped,
                 pkt.id, 0);
    return;
  }
  if (pending_.empty()) oldest_created_at_ = pkt.created_at;
  for (auto& c : parsed.chunks) pending_.push_back(std::move(c));
  if (!timer_armed_) {
    timer_armed_ = true;
    sim_.schedule_in(window_, [this] { flush(); });
  }
}

void BatchingChunkRouter::flush() {
  timer_armed_ = false;
  if (pending_.empty()) return;
  PacketizerOptions opts;
  opts.mtu = egress_.config().mtu;
  opts.policy = policy_;
  PacketizeResult repacked = packetize(std::move(pending_), opts);
  pending_.clear();
  if (stats_ != nullptr) {
    stats_->splits += repacked.splits;
    stats_->merges += repacked.merges;
    stats_->packets_out += repacked.packets.size();
  }
  for (auto& body : repacked.packets) {
    SimPacket out;
    out.bytes = std::move(body);
    out.id = sim_.next_packet_id();
    out.created_at = oldest_created_at_;
    ++counts_.forwarded;
    // Batched departures have no single ingress packet: aux = 0.
    router_trace(obs_, sim_, obs_site_, TraceEventKind::kRouterRelayed,
                 out.id, 0);
    egress_.send(std::move(out));
  }
}

ChainTopology::ChainTopology(Simulator& sim, Rng& rng,
                             std::vector<LinkConfig> hops,
                             PacketSink& receiver,
                             const std::function<RelayFn()>& relay_factory,
                             ObsContext* obs)
    : sim_(sim) {
  if (obs != nullptr) {
    for (std::size_t i = 0; i < hops.size(); ++i) {
      if (hops[i].obs == nullptr) {
        hops[i].obs = obs;
        hops[i].obs_site = static_cast<std::uint16_t>(i);
      }
    }
  }
  // Build back to front: the last link feeds the receiver; each earlier
  // link feeds a router that relays onto the next link.
  links_.resize(hops.size());
  routers_.resize(hops.size() > 0 ? hops.size() - 1 : 0);
  for (std::size_t i = hops.size(); i-- > 0;) {
    PacketSink* sink = nullptr;
    if (i + 1 == hops.size()) {
      sink = &receiver;
    } else {
      routers_[i] = std::make_unique<Router>(sim_, relay_factory(),
                                             *links_[i + 1], obs,
                                             static_cast<std::uint16_t>(i));
      sink = routers_[i].get();
    }
    links_[i] = std::make_unique<Link>(sim_, hops[i], *sink, rng);
  }
}

void ChainTopology::inject(PacketBytes bytes) {
  SimPacket pkt;
  pkt.bytes = std::move(bytes);
  pkt.id = sim_.next_packet_id();
  pkt.created_at = sim_.now();
  links_.front()->send(std::move(pkt));
}

}  // namespace chunknet
