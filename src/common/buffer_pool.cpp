#include "src/common/buffer_pool.hpp"

#include <algorithm>

namespace chunknet {

void PacketBufferPool::attach_governor(ResourceGovernor* governor,
                                       std::uint32_t client) {
  governor_ = governor;
  governor_client_ = client;
  if (governor_ == nullptr) return;
  governor_->bind_client(client, /*priority=*/1, [this] {
    // Shed hook: drop half the freelist (at least one buffer).
    std::uint64_t dropped;
    {
      std::lock_guard<std::mutex> lk(mu_);
      dropped = drop_locked(std::max<std::size_t>(free_.size() / 2,
                                                  free_.empty() ? 0 : 1));
    }
    if (dropped > 0) {
      governor_->release(governor_client_, ResourceClass::kPool, dropped);
    }
    return dropped;
  });
  std::uint64_t retained;
  {
    std::lock_guard<std::mutex> lk(mu_);
    retained = retained_;
  }
  if (retained > 0) {
    governor_->charge(governor_client_, ResourceClass::kPool, retained);
  }
}

void PacketBufferPool::attach_obs(ObsContext* obs) {
  if (obs == nullptr || obs->metrics == nullptr) return;
  g_retained_ = &obs->metrics->gauge("pool.retained_bytes");
  stats_binding_.bind(obs->metrics, "pool.trimmed_buffers", stats_.trimmed);
  std::lock_guard<std::mutex> lk(mu_);
  g_retained_->set(static_cast<std::int64_t>(retained_));
}

PooledBuffer PacketBufferPool::acquire() {
  PacketBytes storage;
  std::uint64_t popped = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!free_.empty()) {
      storage = std::move(free_.back());
      free_.pop_back();
      popped = storage.capacity();
      retained_ -= std::min<std::uint64_t>(retained_, popped);
      min_free_since_tick_ = std::min(min_free_since_tick_, free_.size());
      ++stats_.reuses;
      obs_set(g_retained_, static_cast<std::int64_t>(retained_));
    } else {
      ++stats_.allocations;
    }
  }
  if (popped > 0 && governor_ != nullptr) {
    governor_->release(governor_client_, ResourceClass::kPool, popped);
  }
  if (storage.capacity() == 0) storage.reserve(buffer_capacity_);
  storage.clear();
  // The whole point of PacketBytes-backed storage: SIMD kernels and the
  // gather TX path may assume cache-line alignment of pooled packets.
  assert(is_packet_aligned(storage.data()));
  return PooledBuffer(this, std::move(storage));
}

void PacketBufferPool::release(PacketBytes storage) {
  storage.clear();
  const std::uint64_t cap = storage.capacity();
  bool retained = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.releases;
    if (max_free_ > 0 && free_.size() >= max_free_) {
      ++stats_.trimmed;  // over the cap: the storage is freed, not parked
    } else {
      free_.push_back(std::move(storage));
      retained_ += cap;
      retained = true;
      obs_set(g_retained_, static_cast<std::int64_t>(retained_));
    }
  }
  if (retained && governor_ != nullptr) {
    governor_->charge(governor_client_, ResourceClass::kPool, cap);
  }
}

std::uint64_t PacketBufferPool::drop_locked(std::size_t n) {
  std::uint64_t dropped = 0;
  n = std::min(n, free_.size());
  for (std::size_t i = 0; i < n; ++i) {
    dropped += free_.back().capacity();
    free_.pop_back();
    ++stats_.trimmed;
  }
  retained_ -= std::min(retained_, dropped);
  min_free_since_tick_ = std::min(min_free_since_tick_, free_.size());
  obs_set(g_retained_, static_cast<std::int64_t>(retained_));
  return dropped;
}

std::uint64_t PacketBufferPool::trim(std::size_t keep) {
  std::uint64_t dropped;
  {
    std::lock_guard<std::mutex> lk(mu_);
    dropped = free_.size() > keep ? drop_locked(free_.size() - keep) : 0;
  }
  if (dropped > 0 && governor_ != nullptr) {
    governor_->release(governor_client_, ResourceClass::kPool, dropped);
  }
  return dropped;
}

std::uint64_t PacketBufferPool::trim_tick() {
  std::uint64_t dropped;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Buffers that sat idle through the whole interval were never needed
    // to absorb its traffic; decay half of them.
    dropped = drop_locked(min_free_since_tick_ / 2);
    min_free_since_tick_ = free_.size();
  }
  if (dropped > 0 && governor_ != nullptr) {
    governor_->release(governor_client_, ResourceClass::kPool, dropped);
  }
  return dropped;
}

std::size_t PacketBufferPool::free_buffers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return free_.size();
}

std::uint64_t PacketBufferPool::retained_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return retained_;
}

PacketBufferPool::Stats PacketBufferPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace chunknet
