#include "src/io/ingress_guard.hpp"

#include <algorithm>

namespace chunknet {

IngressGuard::IngressGuard(IngressGuardConfig cfg) : cfg_(cfg) {
  overflow_ = Bucket{cfg_.burst, 0};
  stats_binding_.bind(metrics_of(cfg_.obs), "ingress.", stats_,
                      {{"accepted", &Stats::accepted},
                       {"rate_limited", &Stats::rate_limited},
                       {"earned_spent", &Stats::earned_spent},
                       {"malformed", &Stats::malformed},
                       {"refused_conn", &Stats::refused_conn}});
}

bool IngressGuard::take_token(Bucket& b, SimTime now) {
  if (b.earned >= 1.0) {
    b.earned -= 1.0;
    ++stats_.earned_spent;
    return true;
  }
  if (now > b.refilled_at) {
    const double dt =
        static_cast<double>(now - b.refilled_at) / static_cast<double>(kSecond);
    b.tokens = std::min(cfg_.burst, b.tokens + dt * cfg_.rate_per_sec);
    b.refilled_at = now;
  }
  if (b.tokens < 1.0) return false;
  b.tokens -= 1.0;
  return true;
}

IngressGuard::Verdict IngressGuard::screen(const PacketBytes& bytes,
                                           const UdpAddress& from,
                                           SimTime now,
                                           std::vector<ChunkView>& views) {
  views.clear();

  // Screen 1: rate limit, cheapest check first.
  Bucket* bucket = buckets_.find(from.key());
  if (bucket == nullptr) {
    if (buckets_.size() < cfg_.max_sources) {
      buckets_.insert_or_assign(from.key(), Bucket{cfg_.burst, now});
      bucket = buckets_.find(from.key());
    } else {
      ++stats_.untracked_sources;
      bucket = &overflow_;
    }
  }
  if (!take_token(*bucket, now)) {
    ++stats_.rate_limited;
    return Verdict::kRateLimited;
  }

  // Screen 2: strict envelope decode. Garbage, truncation, oversized
  // length fields, bad magic — all die here.
  if (!decode_packet_views(bytes, views)) {
    views.clear();
    ++stats_.malformed;
    return Verdict::kMalformed;
  }
  if (views.empty()) {
    ++stats_.empty;
    return Verdict::kEmpty;
  }

  // Screen 3: refusal memory. Only reject when EVERY chunk targets a
  // refused C.ID — a mixed packet still carries useful work.
  bool any_admissible = false;
  for (const ChunkView& v : views) {
    if (!is_refused(v.h.conn.id, now)) {
      any_admissible = true;
      break;
    }
  }
  if (!any_admissible) {
    views.clear();
    ++stats_.refused_conn;
    return Verdict::kRefusedConn;
  }

  ++stats_.accepted;
  return Verdict::kAccept;
}

void IngressGuard::earn(const UdpAddress& src, double tokens) {
  if (Bucket* b = buckets_.find(src.key()); b != nullptr) {
    b->earned = std::min(cfg_.burst, b->earned + tokens);
  }
}

void IngressGuard::remember_refusal(std::uint32_t conn, SimTime now) {
  if (refused_.size() >= cfg_.max_refused && refused_.find(conn) == nullptr) {
    // Bounded memory: evict the entry closest to expiry.
    std::uint32_t victim = 0;
    SimTime best = ~SimTime{0};
    for (const auto& e : refused_) {
      if (e.value.expires_at < best) {
        best = e.value.expires_at;
        victim = e.key;
      }
    }
    refused_.erase(victim);
    ++stats_.refusals_evicted;
  }
  refused_.insert_or_assign(conn, RefusedEntry{now + cfg_.refused_ttl});
  ++stats_.refusals_remembered;
}

void IngressGuard::forget_refusal(std::uint32_t conn) {
  refused_.erase(conn);
}

bool IngressGuard::is_refused(std::uint32_t conn, SimTime now) const {
  const RefusedEntry* e = refused_.find(conn);
  return e != nullptr && now < e->expires_at;
}

}  // namespace chunknet
