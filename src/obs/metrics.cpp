#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "src/obs/json.hpp"

namespace chunknet {

std::size_t metric_shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  // The cells are read under the lock too, so a retire() moving a field
  // into them is never seen half done.
  const std::lock_guard<std::mutex> g(bound_mu_);
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  for (const std::uint64_t* f : bound_) total += *f;
  return total;
}

void Counter::bind(const std::uint64_t* field) {
  const std::lock_guard<std::mutex> g(bound_mu_);
  bound_.push_back(field);
}

void Counter::retire(const std::uint64_t* field) {
  const std::lock_guard<std::mutex> g(bound_mu_);
  const auto it = std::find(bound_.begin(), bound_.end(), field);
  if (it == bound_.end()) return;
  *it = bound_.back();
  bound_.pop_back();
  add(*field);
}

StatsBinding::~StatsBinding() {
  for (const auto& [counter, field] : bound_) counter->retire(field);
}

void StatsBinding::bind(MetricsRegistry* reg, std::string_view name,
                        const std::uint64_t& field) {
  if (reg == nullptr) return;
  Counter& c = reg->counter(name);
  c.bind(&field);
  bound_.emplace_back(&c, &field);
}

std::int64_t Gauge::value() const noexcept {
  std::int64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

namespace {

void atomic_add_double(std::atomic<double>& a, double d) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  const std::size_t n = bounds_.size() + 1;  // +1: overflow bucket
  for (Cell& c : cells_) {
    c.counts = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  }
}

void Histogram::observe_n(double v, std::uint64_t weight) noexcept {
  if (weight == 0) return;
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  Cell& cell = cells_[metric_shard_index()];
  cell.counts[idx].fetch_add(weight, std::memory_order_relaxed);
  atomic_add_double(cell.sum, v * static_cast<double>(weight));
  atomic_min_double(min_, v);
  atomic_max_double(max_, v);
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  const std::size_t n = bounds_.size() + 1;
  for (const Cell& c : cells_) {
    for (std::size_t i = 0; i < n; ++i) {
      total += c.counts[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::sum() const noexcept {
  double total = 0;
  for (const Cell& c : cells_) total += c.sum.load(std::memory_order_relaxed);
  return total;
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min_seen() const noexcept {
  const double v = min_.load(std::memory_order_relaxed);
  return v == std::numeric_limits<double>::infinity() ? 0.0 : v;
}

double Histogram::max_seen() const noexcept {
  const double v = max_.load(std::memory_order_relaxed);
  return v == -std::numeric_limits<double>::infinity() ? 0.0 : v;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const Cell& c : cells_) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += c.counts[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double Histogram::percentile(double p) const {
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  double rank = p / 100.0 * static_cast<double>(total);
  rank = std::clamp(rank, 1.0, static_cast<double>(total));

  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(cum + counts[i]) >= rank) {
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = i < bounds_.size() ? bounds_[i] : max_seen();
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(counts[i]);
      const double v = lo + frac * (hi - lo);
      return std::clamp(v, min_seen(), max_seen());
    }
    cum += counts[i];
  }
  return max_seen();
}

std::vector<double> Histogram::default_latency_bounds() {
  std::vector<double> b;
  b.reserve(3800);
  for (double v = 1e3; v < 1e11; v *= 1.005) b.push_back(v);
  return b;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> g(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> g(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> g(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = Histogram::default_latency_bounds();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name),
                                                  std::move(bounds)))
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const std::lock_guard<std::mutex> g(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const std::lock_guard<std::mutex> g(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const std::lock_guard<std::mutex> g(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<const Counter*> MetricsRegistry::counters() const {
  const std::lock_guard<std::mutex> g(mu_);
  std::vector<const Counter*> out;
  out.reserve(counters_.size());
  for (const auto& [_, c] : counters_) out.push_back(c.get());
  return out;
}

std::vector<const Gauge*> MetricsRegistry::gauges() const {
  const std::lock_guard<std::mutex> g(mu_);
  std::vector<const Gauge*> out;
  out.reserve(gauges_.size());
  for (const auto& [_, gp] : gauges_) out.push_back(gp.get());
  return out;
}

std::vector<const Histogram*> MetricsRegistry::histograms() const {
  const std::lock_guard<std::mutex> g(mu_);
  std::vector<const Histogram*> out;
  out.reserve(histograms_.size());
  for (const auto& [_, h] : histograms_) out.push_back(h.get());
  return out;
}

namespace {

void append_json_number(std::string& out, double v) {
  char buf[40];
  const int w = std::snprintf(buf, sizeof buf, "%.17g", v);
  out.append(buf, static_cast<std::size_t>(w));
}

void append_json_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const int w = std::snprintf(buf, sizeof buf, "%llu",
                              static_cast<unsigned long long>(v));
  out.append(buf, static_cast<std::size_t>(w));
}

void append_json_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const int w = std::snprintf(buf, sizeof buf, "%lld",
                              static_cast<long long>(v));
  out.append(buf, static_cast<std::size_t>(w));
}

}  // namespace

std::string metrics_to_json(const MetricsRegistry& reg) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const Counter* c : reg.counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(c->name()) + "\": ";
    append_json_u64(out, c->value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const Gauge* g : reg.gauges()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(g->name()) + "\": ";
    append_json_i64(out, g->value());
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const Histogram* h : reg.histograms()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(h->name()) + "\": {\"count\": ";
    append_json_u64(out, h->count());
    out += ", \"sum\": ";
    append_json_number(out, h->sum());
    out += ", \"min\": ";
    append_json_number(out, h->min_seen());
    out += ", \"max\": ";
    append_json_number(out, h->max_seen());
    out += ", \"mean\": ";
    append_json_number(out, h->mean());
    out += ", \"p50\": ";
    append_json_number(out, h->percentile(50));
    out += ", \"p90\": ";
    append_json_number(out, h->percentile(90));
    out += ", \"p99\": ";
    append_json_number(out, h->percentile(99));
    out += ", \"buckets\": [";
    const auto counts = h->bucket_counts();
    const auto& bounds = h->bounds();
    bool bfirst = true;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      out += "[";
      append_json_number(out, i < bounds.size() ? bounds[i] : h->max_seen());
      out += ", ";
      append_json_u64(out, counts[i]);
      out += "]";
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace chunknet
