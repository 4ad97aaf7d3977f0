// Always-on observability: a registry of named counters, gauges, and
// fixed-bucket latency histograms for the chunk data path.
//
// Each event is counted once. A component that keeps a `Stats` struct
// counts there and nowhere else: a StatsBinding hands the registry
// pointers to those fields, and a counter reads them when it is read.
// The registry must outlive every component bound to it, and a bound
// counter reads its fields unsynchronized, so read it on the thread
// that drives the component or after that thread has stopped.
//
// Events with no Stats twin (worker threads, gauges, histograms) are
// pushed, and that path is lock-free: every metric is sharded into
// kMetricShards cache-line-aligned cells, and a thread records into its
// own cell with a relaxed atomic (so process_chunks_parallel workers
// never contend). Reads combine the shards, which is exact for
// counters/histograms and exact for gauges under the single-writer
// discipline the simulator uses.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace chunknet {

inline constexpr std::size_t kMetricShards = 16;

/// The calling thread's shard slot (stable for the thread's lifetime).
std::size_t metric_shard_index() noexcept;

/// Monotonically increasing event count: what `add` pushed, plus the
/// current value of every bound Stats field. A field's final value is
/// pushed when its component goes.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name))  {}

  void add(std::uint64_t n = 1) noexcept {
    cells_[metric_shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept;
  const std::string& name() const noexcept { return name_; }

 private:
  friend class StatsBinding;
  /// Reads `*field` on every value() until retire(field).
  void bind(const std::uint64_t* field);
  /// Stops reading `field` and adds its final value to the count.
  void retire(const std::uint64_t* field);

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::string name_;
  std::array<Cell, kMetricShards> cells_{};
  mutable std::mutex bound_mu_;
  std::vector<const std::uint64_t*> bound_;
};

/// Signed level (bytes held, pool occupancy). `add` is exact from any
/// number of threads; `set` assumes a single writer (it records the
/// delta against the current combined value).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void add(std::int64_t d) noexcept {
    cells_[metric_shard_index()].v.fetch_add(d, std::memory_order_relaxed);
  }
  void set(std::int64_t v) noexcept { add(v - value()); }
  /// Raises the level to `v` when it is lower, never lowers it: a
  /// high-water mark shared by several writers reads their maximum.
  /// Same single-writer assumption as `set`.
  void raise(std::int64_t v) noexcept {
    if (v > value()) set(v);
  }
  std::int64_t value() const noexcept;
  const std::string& name() const noexcept { return name_; }

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  std::string name_;
  std::array<Cell, kMetricShards> cells_{};
};

/// Fixed-bucket histogram. `bounds` are ascending bucket upper edges;
/// values above the last edge land in an overflow bucket. Percentiles
/// interpolate inside the bucket that contains the requested rank and
/// are clamped to the observed [min, max], so two histograms fed the
/// same samples report identical quantiles.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds);

  void observe(double v) noexcept { observe_n(v, 1); }
  /// Records `weight` samples of value `v` (one placed chunk = h.len
  /// element latencies) with a single bucket update.
  void observe_n(double v, std::uint64_t weight) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  double mean() const noexcept;
  double min_seen() const noexcept;  ///< 0 when empty
  double max_seen() const noexcept;  ///< 0 when empty
  /// Combined bucket counts, size bounds().size() + 1 (overflow last).
  std::vector<std::uint64_t> bucket_counts() const;
  /// p in [0, 100]; 0 for an empty histogram.
  double percentile(double p) const;
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  const std::string& name() const noexcept { return name_; }

  /// Log-spaced defaults for nanosecond latencies: 1 µs … 100 s at
  /// 0.5% resolution, fine enough that the E6 tables read from the
  /// registry preserve the seed benches' percentile ordering.
  static std::vector<double> default_latency_bounds();

 private:
  struct alignas(64) Cell {
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;
    std::atomic<double> sum{0.0};
  };

  std::string name_;
  std::vector<double> bounds_;
  std::array<Cell, kMetricShards> cells_;
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Owns all metrics; hands out stable references. Lookup takes a lock,
/// so resolve handles at construction time, not on the hot path. The
/// same name always returns the same object (bounds of an existing
/// histogram are never changed).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Empty `bounds` means Histogram::default_latency_bounds().
  Histogram& histogram(std::string_view name,
                       std::vector<double> bounds = {});

  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  /// Name-sorted views for exporters.
  std::vector<const Counter*> counters() const;
  std::vector<const Gauge*> gauges() const;
  std::vector<const Histogram*> histograms() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// One row of a component's binding table: the counter name (after the
/// component's prefix) and the Stats field that counts it.
template <class S>
struct StatsField {
  std::string_view name;
  std::uint64_t S::*field;
};

/// Binds a component's counting fields to registry counters for the
/// component's lifetime. Declare it after the fields it binds, so it is
/// destroyed first: on destruction it folds each field's final value
/// into its counter. Neither copyable nor movable, because it holds the
/// addresses of its owner's fields.
class StatsBinding {
 public:
  StatsBinding() = default;
  StatsBinding(const StatsBinding&) = delete;
  StatsBinding& operator=(const StatsBinding&) = delete;
  ~StatsBinding();

  /// Binds counter `name` to `field`; a null `reg` binds nothing.
  void bind(MetricsRegistry* reg, std::string_view name,
            const std::uint64_t& field);
  /// Binds counter `prefix` + row.name to `stats`.*row.field per row.
  template <class S>
  void bind(MetricsRegistry* reg, std::string_view prefix, const S& stats,
            std::initializer_list<StatsField<S>> rows) {
    if (reg == nullptr) return;
    std::string name(prefix);
    for (const StatsField<S>& row : rows) {
      name.resize(prefix.size());
      name += row.name;
      bind(reg, name, stats.*row.field);
    }
  }

 private:
  std::vector<std::pair<Counter*, const std::uint64_t*>> bound_;
};

/// Null-tolerant recording helpers: unresolved handle ⇒ no-op, so
/// instrumentation sites cost one branch when observability is off.
inline void obs_add(Counter* c, std::uint64_t n = 1) noexcept {
  if (c != nullptr) c->add(n);
}
inline void obs_add(Gauge* g, std::int64_t d) noexcept {
  if (g != nullptr) g->add(d);
}
inline void obs_set(Gauge* g, std::int64_t v) noexcept {
  if (g != nullptr) g->set(v);
}
inline void obs_raise(Gauge* g, std::int64_t v) noexcept {
  if (g != nullptr) g->raise(v);
}
inline void obs_observe(Histogram* h, double v,
                        std::uint64_t weight = 1) noexcept {
  if (h != nullptr) h->observe_n(v, weight);
}

/// Serializes every metric: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum, min, max, mean, p50, p90, p99,
/// buckets: [[upper_bound, count] ...nonzero...]}}}.
std::string metrics_to_json(const MetricsRegistry& reg);

}  // namespace chunknet
