// What one measured phase of a workload counted, and the arithmetic
// that turns those counts into the benchmark's metrics.
//
// A Phase holds raw numbers only: counts read from the stats accessors
// and the syscall decorator, span totals, and per-flow samples. Every
// ratio is computed here, from named bases, so the tests can pin what
// each metric divides by.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

/// num / den, or 0 when the base is empty.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The p-th percentile (0..100) of an ascending sample, interpolating
/// linearly between closest ranks. 0 for an empty sample.
double percentile(const std::vector<double>& sorted, double p);

/// Samples strictly above the p-th percentile's rank position
/// p/100 * (n - 1).
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile with at least `k` samples beyond it: the
/// order statistic at index n-1-k, at percentile 100*(n-1-k)/(n-1).
/// Empty when n <= k.
std::optional<double> highest_supported_percentile(std::size_t n,
                                                   std::size_t k = 10);

/// A fixed-size log-bucketed sample store: bucket b holds values in
/// [kLo·e^(b·w), kLo·e^((b+1)·w)) with w = 1/1024, so each value is
/// kept to within 0.1 %. Its memory does not grow with the sample
/// count, which keeps the benchmark's own bookkeeping out of
/// peak_rss_MB and independent of how many flows a run completes.
class LogHistogram {
 public:
  LogHistogram();
  void add(double v);
  std::uint64_t count() const { return n_; }
  /// percentile() of the samples, the samples of one bucket read as
  /// spread evenly across it in log space. 0 when empty.
  double percentile(double p) const;

 private:
  static constexpr double kLo = 1e-9;
  static constexpr double kHi = 1e9;
  static constexpr double kWidth = 1.0 / 1024;
  double at_rank(std::uint64_t r) const;

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_{0};
};

/// A stretch of a phase, closed at a flow boundary once it has lasted
/// Windower::kWindowNs. Rates are medians over windows, so a burst of
/// interference from outside the process moves one window, not the run.
struct Window {
  std::uint64_t wall_ns{0};
  std::uint64_t cpu_ns{0};  ///< process user+sys
  std::uint64_t app_bytes{0};
  std::uint64_t flows{0};
};

/// Raw counts and samples of one measured phase.
struct Phase {
  // ---- operations and correctness
  std::uint64_t flows{0};       ///< sessions / connections completed
  std::uint64_t attempted{0};   ///< TPDUs (bulk, sim) or flows (short)
  std::uint64_t failed{0};
  std::uint64_t mismatched_bytes{0};
  /// Stream offset of the first mismatched TPDU in any flow, or ~0.
  std::uint64_t first_bad_offset{~std::uint64_t{0}};
  bool replay_mismatch{false};  ///< sim: a replayed connection differed

  // ---- end to end
  std::uint64_t app_bytes{0};   ///< delivered bit-exact
  std::uint64_t wire_bytes{0};  ///< every datagram, both directions
  std::vector<Window> windows;
  LogHistogram setup_s;             ///< one per flow
  LogHistogram latency_us;          ///< one per message
  LogHistogram clock_goodput_Mbps;  ///< per flow, transport clock

  // ---- io (syscall decorator + endpoint/loop stats)
  std::uint64_t sendmmsg_calls{0}, sendmmsg_datagrams{0}, sendmmsg_ns{0};
  std::uint64_t recvmmsg_calls{0}, recvmmsg_datagrams{0}, recvmmsg_ns{0};
  std::uint64_t epoll_wait_calls{0}, epoll_wait_ns{0};
  std::uint64_t socket_setup_ns{0};
  std::uint64_t poll_self_ns{0};
  std::uint64_t timer_fires{0};
  std::uint64_t tx_queue_dropped{0}, tx_enobufs{0}, tx_eagain{0};
  std::uint64_t allocations{0};
  /// Datagrams the endpoints (or, in the simulator, the transport
  /// callbacks) put on the wire: the base of every per-datagram cost.
  std::uint64_t datagrams{0};

  // ---- ingress guard
  std::uint64_t guard_accepted{0}, guard_rate_limited{0}, guard_malformed{0},
      guard_empty{0}, guard_refused{0};

  // ---- transport
  std::uint64_t tpdus_sent{0}, data_datagrams{0}, data_bytes{0};
  std::uint64_t feedback_datagrams{0};
  std::uint64_t retransmissions{0}, duplicate_chunks{0};
  std::uint64_t gap_naks_honoured{0}, rto_backoffs{0}, flow_blocked{0};
  std::uint64_t tpdus_gave_up{0}, tpdus_rejected{0};
  std::uint64_t send_stream_calls{0}, send_stream_ns{0};
  std::uint64_t rx_chunks{0}, rx_self_ns{0};
  std::uint64_t feedback_packets{0}, feedback_self_ns{0};
  std::uint64_t tx_bytes_copied{0};

  // ---- chunk, reassembly, netsim
  std::uint64_t decode_packets{0}, decode_self_ns{0};
  std::uint64_t relay_packets{0}, relay_self_ns{0}, relay_splits{0};
  std::uint64_t overlap_chunks{0}, held_bytes_peak{0};
  std::uint64_t netsim_events{0}, netsim_self_ns{0};

  /// Median over windows of CPU time per delivered app byte.
  double cpu_ns_per_byte() const;
};

/// Cuts a running phase into Windows. Call after_flow() after each
/// flow and finish() when the phase ends; a trailing window shorter
/// than kWindowNs is dropped unless it is the only one.
class Windower {
 public:
  static constexpr std::uint64_t kWindowNs = 500'000'000;

  explicit Windower(Phase& p);
  void after_flow();
  void finish();

 private:
  void close();

  Phase& p_;
  std::uint64_t t0_, cpu0_, bytes0_, flows0_;
};

class SpanRecorder;

/// Folds span totals into `p`: self times of poll_once, transport.rx,
/// transport.feedback, chunk.decode, chunk.relay and netsim.run, and
/// the total and count of transport.send_stream.
void fold_span_totals(Phase& p, const SpanRecorder& r);

/// Every end-to-end metric, in BENCHMARK.json order. `peak_rss_mb` is
/// the process's peak resident set.
std::vector<Metric> end_to_end_metrics(const Phase& p, double peak_rss_mb);

/// Every per-layer metric, in BENCHMARK.json order. `overhead_ratio`
/// is the traced phase's CPU per byte over the untraced phase's.
std::vector<Metric> per_layer_metrics(const Phase& p, double overhead_ratio);

}  // namespace perfbench
