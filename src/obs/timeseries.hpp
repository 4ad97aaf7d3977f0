// Time-series sampling of the metrics registry: snapshots selected
// counters / gauges / histogram quantiles at a configurable sim-time
// cadence into a bounded ring, so goodput, retransmissions, credit,
// governor charge, and pool occupancy become plottable curves instead
// of end-of-run aggregates.
//
// Handles resolve lazily: a tracked metric that does not exist yet
// (components create their instruments at construction) samples as 0
// until its first find_* hit, then sticks to the resolved handle.
// attach_sampler() wires periodic self-terminating ticks into a
// Simulator: each tick samples, then re-arms only while OTHER events
// remain pending, so the sampler never keeps an otherwise-drained
// event queue alive (which would trip quiescence watchdogs).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/netsim/simulator.hpp"
#include "src/obs/metrics.hpp"

namespace chunknet {

struct TimeSeriesConfig {
  SimTime interval{10 * kMillisecond};
  /// Retained rows; the oldest are overwritten once full, so a sampler
  /// can stay attached to a long run and always hold the most recent
  /// window.
  std::size_t capacity{4096};
};

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(const MetricsRegistry& reg,
                             TimeSeriesConfig cfg = {});

  /// Column registration; call before the first sample(). The label
  /// defaults to the metric name ("<name>.p<P>" for quantiles).
  void track_counter(std::string_view name);
  void track_gauge(std::string_view name);
  void track_quantile(std::string_view name, double percentile);

  /// Takes one row at simulated time `now`.
  void sample(SimTime now);

  SimTime interval() const noexcept { return cfg_.interval; }
  std::size_t columns() const noexcept { return cols_.size(); }
  const std::vector<std::string>& labels() const noexcept { return labels_; }
  std::size_t rows() const noexcept;
  std::uint64_t samples_taken() const noexcept { return taken_; }
  std::uint64_t rows_dropped() const noexcept;

  /// Row access, oldest first; `col` indexes labels().
  SimTime time_at(std::size_t row) const;
  double value_at(std::size_t row, std::size_t col) const;

  /// {"interval_ns": I, "samples": N, "dropped": D,
  ///  "series": [label ...], "rows": [[t_ns, v ...] ...]} — rows oldest
  /// first, integral values emitted exactly.
  std::string to_json() const;

 private:
  struct Column {
    enum class Kind : std::uint8_t { kCounter, kGauge, kQuantile };
    Kind kind;
    std::string name;
    double percentile{0.0};
    const void* handle{nullptr};  ///< resolved lazily
  };
  struct Row {
    SimTime t{0};
    std::vector<double> values;
  };

  double read(Column& c) const;

  const MetricsRegistry& reg_;
  TimeSeriesConfig cfg_;
  std::vector<Column> cols_;
  std::vector<std::string> labels_;
  std::vector<Row> ring_;
  std::uint64_t taken_{0};
};

/// Schedules periodic sampling ticks on `sim`, starting one interval
/// from now. Each tick samples, then re-arms only if the queue still
/// holds other events (the tick itself is already popped while it
/// runs), so the ticks terminate with the workload instead of spinning
/// an idle simulation forever. The sampler must outlive the run.
template <typename Sim>
void attach_sampler(Sim& sim, TimeSeriesSampler& sampler) {
  sim.schedule_in(sampler.interval(), [&sim, &sampler] {
    sampler.sample(sim.now());
    if (sim.pending()) attach_sampler(sim, sampler);
  });
}

}  // namespace chunknet
