#include "src/netsim/link.hpp"

#include <algorithm>

namespace chunknet {

Link::Link(Simulator& sim, LinkConfig cfg, PacketSink& sink, Rng& rng)
    : sim_(sim),
      cfg_(cfg),
      sink_(sink),
      rng_(rng),
      lane_free_at_(static_cast<std::size_t>(std::max(cfg.lanes, 1)), 0),
      lane_extra_skew_(static_cast<std::size_t>(std::max(cfg.lanes, 1)), 0) {
  if (cfg_.route_flap_interval > 0) {
    next_flap_ = cfg_.route_flap_interval;
  }
  if (MetricsRegistry* reg = metrics_of(cfg_.obs)) {
    stats_binding_.bind(reg, "link" + std::to_string(cfg_.obs_site) + ".",
                        stats_,
                        {{"offered", &Stats::offered},
                         {"delivered", &Stats::delivered},
                         {"lost", &Stats::lost},
                         {"duplicated", &Stats::duplicated},
                         {"oversize_dropped", &Stats::oversize_dropped},
                         {"queue_dropped", &Stats::queue_dropped},
                         {"bytes_delivered", &Stats::bytes_delivered}});
  }
}

void Link::trace(TraceEventKind kind, const SimPacket& pkt,
                 std::uint64_t aux) const {
  if (cfg_.obs == nullptr || cfg_.obs->tracer == nullptr) return;
  TraceEvent e;
  e.t = sim_.now();
  e.kind = kind;
  e.site = cfg_.obs_site;
  e.packet_id = pkt.id;
  e.aux = aux;
  cfg_.obs->tracer->record(e);
}

void Link::maybe_flap() {
  if (cfg_.route_flap_interval == 0 || sim_.now() < next_flap_) return;
  // A route change: each lane's path length changes abruptly, so
  // packets already "in flight" on the old path can arrive after
  // packets sent later on the new, shorter path.
  for (auto& skew : lane_extra_skew_) {
    skew = rng_.below(cfg_.route_flap_magnitude + 1);
  }
  next_flap_ = sim_.now() + cfg_.route_flap_interval;
}

void Link::send(SimPacket pkt) {
  ++stats_.offered;
  if (pkt.bytes.size() > cfg_.mtu) {
    ++stats_.oversize_dropped;
    trace(TraceEventKind::kOversizeDropped, pkt, pkt.bytes.size());
    return;
  }
  if (cfg_.queue_limit_bytes != 0) {
    const std::size_t backlog = backlog_bytes();
    if (backlog > cfg_.queue_limit_bytes) {
      ++stats_.queue_dropped;
      trace(TraceEventKind::kQueueDropped, pkt, backlog);
      return;
    }
  }
  maybe_flap();
  if (rng_.chance(cfg_.loss_rate)) {
    ++stats_.lost;
    trace(TraceEventKind::kLinkDropped, pkt);
    return;
  }

  // Stripe across lanes round-robin (how parallel 155 Mbps ATM
  // connections aggregate to higher rates). Each lane serializes at
  // rate/lanes and adds its skew — the reordering generator.
  const LaneSlot slot = occupy_lane(pkt.bytes.size());
  SimTime arrive = slot.done + cfg_.prop_delay +
                   static_cast<SimTime>(slot.lane) * cfg_.lane_skew +
                   lane_extra_skew_[slot.lane];
  if (cfg_.jitter > 0) arrive += rng_.below(cfg_.jitter + 1);

  trace(TraceEventKind::kLinkEnqueued, pkt, slot.lane);

  const bool dup = rng_.chance(cfg_.dup_rate);
  deliver_copy(pkt, arrive);
  if (dup) {
    ++stats_.duplicated;
    trace(TraceEventKind::kLinkDuplicated, pkt);
    // The duplicate is a real transmission: it occupies a lane for its
    // full serialization time (duplicated traffic consumes capacity),
    // then wanders in late via a longer path.
    const LaneSlot dup_slot = occupy_lane(pkt.bytes.size());
    const SimTime dup_arrive =
        dup_slot.done + cfg_.prop_delay +
        static_cast<SimTime>(dup_slot.lane) * cfg_.lane_skew +
        lane_extra_skew_[dup_slot.lane] + cfg_.prop_delay / 2 +
        rng_.below(kMillisecond);
    deliver_copy(pkt, dup_arrive);
  }
}

std::size_t Link::backlog_bytes() const {
  const SimTime now = sim_.now();
  SimTime busy = 0;
  for (const SimTime free_at : lane_free_at_) {
    if (free_at > now) busy += free_at - now;
  }
  const double lane_rate =
      cfg_.rate_bps / static_cast<double>(cfg_.lanes > 1 ? cfg_.lanes : 1);
  return static_cast<std::size_t>(static_cast<double>(busy) * lane_rate /
                                  8.0 / 1e9);
}

Link::LaneSlot Link::occupy_lane(std::size_t bytes) {
  const std::size_t lane = next_lane_;
  next_lane_ = (next_lane_ + 1) % lane_free_at_.size();
  const SimTime tx = serialize_time(bytes);
  const SimTime start = std::max(sim_.now(), lane_free_at_[lane]);
  lane_free_at_[lane] = start + tx;
  return {lane, start + tx};
}

void Link::deliver_copy(const SimPacket& pkt, SimTime at) {
  SimPacket copy = pkt;
  ++copy.hops;
  sim_.schedule_at(at, [this, p = std::move(copy)]() mutable {
    ++stats_.delivered;
    stats_.bytes_delivered += p.bytes.size();
    trace(TraceEventKind::kLinkDelivered, p);
    sink_.on_packet(std::move(p));
  });
}

}  // namespace chunknet
