#include "src/netsim/multipath.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace chunknet {

const char* to_string(SprayMode m) {
  switch (m) {
    case SprayMode::kPerPacket: return "per_packet";
    case SprayMode::kWeightedRoundRobin: return "weighted";
    case SprayMode::kFlowlet: return "flowlet";
  }
  return "?";
}

MultipathScheduler::MultipathScheduler(Simulator& sim, MultipathConfig cfg,
                                       std::vector<MultipathPathConfig> paths,
                                       PacketSink& downstream, Rng& rng)
    : sim_(sim), cfg_(cfg), downstream_(downstream) {
  assert(!paths.empty());
  paths_.reserve(paths.size());
  MetricsRegistry* reg = metrics_of(cfg_.obs);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    MultipathPathConfig& pc = paths[i];
    paths_.emplace_back();
    Path& p = paths_.back();
    p.weight = pc.weight > 0.0 ? pc.weight : 1.0;
    p.egress = std::make_unique<Egress>();
    p.egress->owner = this;
    p.egress->index = i;
    LinkConfig lc = pc.link;
    lc.obs = cfg_.obs;
    lc.obs_site = static_cast<std::uint16_t>(cfg_.obs_site_base + i);
    p.link = std::make_unique<Link>(sim_, lc, *p.egress, rng);
    if (pc.faults.mean_loss() > 0.0) {
      p.ge = std::make_unique<GilbertElliott>(pc.faults, rng);
    }
    if (reg != nullptr) {
      const std::string pre = "mpath.path" + std::to_string(i) + ".";
      stats_binding_.bind(reg, pre, p.st,
                          {{"tx_packets", &PathStats::tx_packets},
                           {"delivered", &PathStats::delivered},
                           {"lost", &PathStats::lost},
                           {"probes", &PathStats::probes},
                           {"dead_drops", &PathStats::dead_drops}});
      p.loss_ewma_ppm = &reg->gauge(pre + "loss_ewma_ppm");
      p.rtt_ewma_ns = &reg->gauge(pre + "rtt_ewma_ns");
    }
  }
  stats_binding_.bind(reg, "mpath.", stats_,
                      {{"failovers", &Stats::failovers},
                       {"failbacks", &Stats::failbacks}});
}

void MultipathScheduler::trace(TraceEventKind kind, std::size_t path,
                               std::uint64_t packet_id) const {
  if (cfg_.obs == nullptr || cfg_.obs->tracer == nullptr) return;
  TraceEvent e;
  e.t = sim_.now();
  e.packet_id = packet_id;
  e.aux = path;
  e.site = static_cast<std::uint16_t>(cfg_.obs_site_base + path);
  e.kind = kind;
  cfg_.obs->tracer->record(e);
}

SimTime MultipathScheduler::effective_deadline(const Path& p) const {
  SimTime t = cfg_.loss_evidence_timeout;
  const auto ewma4 = static_cast<SimTime>(4.0 * p.st.delay_ewma_ns);
  return std::max(t, ewma4);
}

void MultipathScheduler::publish_health(Path& p) {
  obs_set(p.loss_ewma_ppm, static_cast<std::int64_t>(p.st.loss_ewma * 1e6));
  obs_set(p.rtt_ewma_ns, static_cast<std::int64_t>(p.st.delay_ewma_ns));
}

void MultipathScheduler::send(SimPacket pkt) {
  ++stats_.sprayed;
  const std::size_t i = pick_path();
  Path& p = paths_[i];
  ++p.st.tx_packets;
  p.st.tx_bytes += pkt.bytes.size();
  p.spray_bytes += pkt.bytes.size();
  trace(TraceEventKind::kPathSelected, i, pkt.id);

  inflight_[pkt.id] = Inflight{static_cast<std::uint32_t>(i), sim_.now()};
  const std::uint64_t id = pkt.id;
  sim_.schedule_in(effective_deadline(p),
                   [this, id] { evidence_deadline(id); });

  // The path's private loss process eats the packet before the link
  // ever sees it; the evidence deadline turns the silence into loss.
  if (p.ge != nullptr && p.ge->lose()) {
    ++p.st.ge_drops;
    return;
  }
  p.link->send(std::move(pkt));
}

std::size_t MultipathScheduler::pick_path() {
  const SimTime now = sim_.now();
  const std::size_t n = paths_.size();

  // Failback probes first: a down (but not killed) path whose probe
  // interval elapsed gets this packet as its probe.
  for (std::size_t i = 0; i < n; ++i) {
    Path& p = paths_[i];
    if (p.st.down && !p.st.killed &&
        now - p.last_probe >= cfg_.probe_interval) {
      p.last_probe = now;
      ++p.st.probes;
      last_send_ = now;
      return i;
    }
  }

  std::size_t healthy = 0;
  bool any_alive = false;  // any non-killed path at all
  for (const Path& p : paths_) {
    if (!p.st.killed) any_alive = true;
    if (!p.st.down && !p.st.killed) ++healthy;
  }

  std::size_t pick = 0;
  if (healthy == 0) {
    // Graceful degradation with nothing healthy: best-effort onto the
    // least-lossy non-killed path (or any path when all are killed —
    // the transport's give-up machinery owns that endgame).
    ++stats_.no_healthy_sends;
    bool found = false;
    for (std::size_t i = 0; i < n; ++i) {
      const Path& p = paths_[i];
      if (p.st.killed && any_alive) continue;
      if (!found || p.st.loss_ewma < paths_[pick].st.loss_ewma) {
        pick = i;
        found = true;
      }
    }
  } else {
    switch (cfg_.mode) {
      case SprayMode::kPerPacket: {
        // Deficit round robin on bytes: the healthy path that has been
        // handed the fewest bytes gets the packet. Equal-size packets
        // reduce this to plain round robin (the rr_next_ scan order
        // breaks ties), but mixed sizes — e.g. a ~2 KiB TPDU encoding
        // as a full-MTU packet plus a short tail — still split bytes
        // evenly instead of parking all the big packets on one path.
        bool found = false;
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t i = (rr_next_ + k) % n;
          if (paths_[i].st.down || paths_[i].st.killed) continue;
          if (!found || paths_[i].spray_bytes < paths_[pick].spray_bytes) {
            pick = i;
            found = true;
          }
        }
        rr_next_ = (pick + 1) % n;
        break;
      }
      case SprayMode::kWeightedRoundRobin: {
        // Smooth WRR: every healthy path earns its weight, the richest
        // transmits and pays the total back. Deterministic — no RNG
        // draw per packet.
        double total = 0.0;
        bool found = false;
        for (std::size_t i = 0; i < n; ++i) {
          Path& p = paths_[i];
          if (p.st.down || p.st.killed) continue;
          p.wrr_credit += p.weight;
          total += p.weight;
          if (!found || p.wrr_credit > paths_[pick].wrr_credit) {
            pick = i;
            found = true;
          }
        }
        paths_[pick].wrr_credit -= total;
        break;
      }
      case SprayMode::kFlowlet: {
        const Path& cur = paths_[flowlet_path_];
        const bool cur_ok = !cur.st.down && !cur.st.killed;
        const bool in_flowlet =
            sent_any_ && cur_ok && now - last_send_ <= cfg_.flowlet_gap;
        if (in_flowlet) {
          pick = flowlet_path_;
        } else {
          // New flowlet: the healthy path with the best delay estimate
          // (an unprobed path's 0 estimate reads as "try me").
          bool found = false;
          for (std::size_t i = 0; i < n; ++i) {
            const Path& p = paths_[i];
            if (p.st.down || p.st.killed) continue;
            if (!found ||
                p.st.delay_ewma_ns < paths_[pick].st.delay_ewma_ns) {
              pick = i;
              found = true;
            }
          }
          if (sent_any_ && pick != flowlet_path_) ++stats_.flowlet_switches;
          flowlet_path_ = pick;
        }
        break;
      }
    }
  }

  if (paths_[pick].st.killed && any_alive) ++stats_.killed_path_sends;
  last_send_ = now;
  sent_any_ = true;
  return pick;
}

void MultipathScheduler::arrival(std::size_t path, SimPacket pkt) {
  Path& p = paths_[path];
  const auto it = inflight_.find(pkt.id);
  if (p.st.killed) {
    // Dead path: the packet dies here. If it was still tracked this is
    // its loss evidence; a copy already written off just vanishes.
    ++p.st.dead_drops;
    trace(TraceEventKind::kPathDeadDrop, path, pkt.id);
    if (it != inflight_.end()) {
      inflight_.erase(it);
      loss_evidence(path);
    }
    return;
  }
  if (it == inflight_.end()) {
    // Late (already counted lost) or a link-duplicated copy: forward —
    // the transport's dedup owns correctness — but keep it out of the
    // delivered tally so conservation still closes.
    ++p.st.late;
    ++stats_.forwarded;
    downstream_.on_packet(std::move(pkt));
    return;
  }
  const SimTime one_way = sim_.now() - it->second.sent_at;
  inflight_.erase(it);
  delivery_evidence(path, one_way);
  ++stats_.forwarded;
  downstream_.on_packet(std::move(pkt));
}

void MultipathScheduler::evidence_deadline(std::uint64_t packet_id) {
  const auto it = inflight_.find(packet_id);
  if (it == inflight_.end()) return;  // delivered in time
  const std::size_t path = it->second.path;
  inflight_.erase(it);
  loss_evidence(path);
}

void MultipathScheduler::loss_evidence(std::size_t i) {
  Path& p = paths_[i];
  ++p.st.lost;
  p.st.loss_ewma =
      (1.0 - cfg_.ewma_alpha) * p.st.loss_ewma + cfg_.ewma_alpha;
  ++p.consec_losses;
  p.consec_successes = 0;
  publish_health(p);
  if (!p.st.down && (p.consec_losses >= cfg_.fail_consecutive_losses ||
                     p.st.loss_ewma > cfg_.fail_loss_ewma)) {
    mark_down(i);
  }
}

void MultipathScheduler::delivery_evidence(std::size_t i,
                                           SimTime one_way_ns) {
  Path& p = paths_[i];
  ++p.st.delivered;
  p.st.loss_ewma *= 1.0 - cfg_.ewma_alpha;
  const auto sample = static_cast<double>(one_way_ns);
  p.st.delay_ewma_ns =
      p.st.delay_ewma_ns == 0.0
          ? sample
          : (1.0 - cfg_.ewma_alpha) * p.st.delay_ewma_ns +
                cfg_.ewma_alpha * sample;
  ++p.consec_successes;
  p.consec_losses = 0;
  publish_health(p);
  if (p.st.down && !p.st.killed &&
      p.consec_successes >= cfg_.failback_consecutive_successes) {
    mark_up(i);
  }
}

void MultipathScheduler::mark_down(std::size_t i) {
  Path& p = paths_[i];
  p.st.down = true;
  p.last_probe = sim_.now();  // first probe a full interval from now
  ++p.st.failovers;
  ++stats_.failovers;
  trace(TraceEventKind::kPathFailover, i, 0);
  if (cfg_.obs != nullptr && cfg_.obs->spans != nullptr) {
    SpanEvent e;
    e.t = sim_.now();
    e.aux = i;
    e.kind = SpanEventKind::kPathFailover;
    cfg_.obs->spans->record(e);
  }
}

void MultipathScheduler::mark_up(std::size_t i) {
  Path& p = paths_[i];
  p.st.down = false;
  // Re-base the spray deficit: while down, this path fell arbitrarily
  // far behind in bytes. Without this, deficit round robin would hand
  // it every packet until it caught up — dogpiling the path that just
  // recovered. It resumes from parity with its busiest peer instead.
  for (const Path& q : paths_) {
    if (q.spray_bytes > p.spray_bytes) p.spray_bytes = q.spray_bytes;
  }
  ++p.st.failbacks;
  ++stats_.failbacks;
  trace(TraceEventKind::kPathFailback, i, 0);
  if (cfg_.obs != nullptr && cfg_.obs->spans != nullptr) {
    SpanEvent e;
    e.t = sim_.now();
    e.aux = i;
    e.kind = SpanEventKind::kPathFailback;
    cfg_.obs->spans->record(e);
  }
}

void MultipathScheduler::kill_path(std::size_t i) {
  Path& p = paths_[i];
  if (p.st.killed) return;
  p.st.killed = true;
  p.consec_successes = 0;
  if (!p.st.down) mark_down(i);
}

void MultipathScheduler::revive_path(std::size_t i) {
  Path& p = paths_[i];
  if (!p.st.killed) return;
  p.st.killed = false;
  p.consec_losses = 0;
  p.consec_successes = 0;
  // Still down: hysteresis probes must prove the path before traffic
  // returns. Start probing a full interval from now.
  p.last_probe = sim_.now();
}

}  // namespace chunknet
