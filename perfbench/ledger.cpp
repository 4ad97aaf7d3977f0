#include "ledger.hpp"

#include <algorithm>
#include <cmath>

#include "spans.hpp"

namespace perfbench {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double pos = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(pos));
}

std::optional<double> highest_supported_percentile(std::size_t n,
                                                   std::size_t k) {
  if (n <= k) return std::nullopt;
  if (n == 1) return 0.0;
  return 100.0 * static_cast<double>(n - 1 - k) / static_cast<double>(n - 1);
}

LogHistogram::LogHistogram()
    : counts_(static_cast<std::size_t>(std::log(kHi / kLo) / kWidth) + 1) {}

void LogHistogram::add(double v) {
  std::size_t b = 0;
  if (v > kLo) {
    b = std::min(static_cast<std::size_t>(std::log(v / kLo) / kWidth),
                 counts_.size() - 1);
  }
  ++counts_[b];
  ++n_;
}

double LogHistogram::at_rank(std::uint64_t r) const {
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (seen + counts_[b] > r) {
      // The bucket's samples are taken as evenly spread (in log space)
      // across it, so neighbouring ranks read distinct values.
      const double frac = (static_cast<double>(r - seen) + 0.5) /
                          static_cast<double>(counts_[b]);
      return kLo * std::exp((static_cast<double>(b) + frac) * kWidth);
    }
    seen += counts_[b];
  }
  return kHi;
}

double LogHistogram::percentile(double p) const {
  if (n_ == 0) return 0;
  const double pos = p / 100.0 * static_cast<double>(n_ - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(pos));
  const double v0 = at_rank(lo);
  const double v1 = at_rank(std::min(lo + 1, n_ - 1));
  return v0 + (v1 - v0) * (pos - static_cast<double>(lo));
}

namespace {

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 50);
}

double d(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

double Phase::cpu_ns_per_byte() const {
  std::vector<double> v;
  for (const Window& w : windows) v.push_back(ratio(d(w.cpu_ns), d(w.app_bytes)));
  return median_of(std::move(v));
}

Windower::Windower(Phase& p)
    : p_(p),
      t0_(mono_ns()),
      cpu0_(cpu_time_ns()),
      bytes0_(p.app_bytes),
      flows0_(p.flows) {}

void Windower::close() {
  const std::uint64_t t = mono_ns(), cpu = cpu_time_ns();
  p_.windows.push_back(
      Window{t - t0_, cpu - cpu0_, p_.app_bytes - bytes0_, p_.flows - flows0_});
  t0_ = t;
  cpu0_ = cpu;
  bytes0_ = p_.app_bytes;
  flows0_ = p_.flows;
}

void Windower::after_flow() {
  if (mono_ns() - t0_ >= kWindowNs) close();
}

void Windower::finish() {
  if (p_.windows.empty() && p_.flows > flows0_) close();
}

void fold_span_totals(Phase& p, const SpanRecorder& r) {
  p.poll_self_ns += r.totals(span::kPollOnce).self_ns;
  p.send_stream_ns += r.totals(span::kSendStream).total_ns;
  p.send_stream_calls += r.totals(span::kSendStream).count;
  p.rx_self_ns += r.totals(span::kTransportRx).self_ns;
  p.feedback_self_ns += r.totals(span::kTransportFeedback).self_ns;
  p.decode_self_ns += r.totals(span::kChunkDecode).self_ns;
  p.relay_self_ns += r.totals(span::kChunkRelay).self_ns;
  p.netsim_self_ns += r.totals(span::kNetsimRun).self_ns;
}

std::vector<Metric> end_to_end_metrics(const Phase& p, double peak_rss_mb) {
  std::vector<double> goodput, flow_rate;
  for (const Window& w : p.windows) {
    const double s = d(w.wall_ns) / 1e9;
    goodput.push_back(ratio(d(w.app_bytes) / 1e6, s));
    flow_rate.push_back(ratio(d(w.flows), s));
  }
  return {
      {"setup_s", p.setup_s.percentile(50), "s"},
      {"goodput_MBps", median_of(std::move(goodput)), "MB/s"},
      {"cpu_ns_per_byte", p.cpu_ns_per_byte(), "ns/B"},
      {"msg_latency_p50_us", p.latency_us.percentile(50), "us"},
      {"msg_latency_p99_us", p.latency_us.percentile(99), "us"},
      {"flows_per_s", median_of(std::move(flow_rate)), "1/s"},
      {"wire_bytes_per_app_byte", ratio(d(p.wire_bytes), d(p.app_bytes)), "x"},
      {"sim_goodput_Mbps", p.clock_goodput_Mbps.percentile(50), "Mb/s"},
      {"peak_rss_MB", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Phase& p, double overhead_ratio) {
  const double screened = d(p.guard_accepted + p.guard_rate_limited +
                            p.guard_malformed + p.guard_empty +
                            p.guard_refused);
  return {
      // io
      {"io.datagrams_per_sendmmsg",
       ratio(d(p.sendmmsg_datagrams), d(p.sendmmsg_calls)), "datagrams/call"},
      {"io.sendmmsg_ns_per_datagram",
       ratio(d(p.sendmmsg_ns), d(p.sendmmsg_datagrams)), "ns/datagram"},
      {"io.sendmmsg_calls", d(p.sendmmsg_calls), "count"},
      {"io.datagrams_per_recvmmsg",
       ratio(d(p.recvmmsg_datagrams), d(p.recvmmsg_calls)), "datagrams/call"},
      {"io.recvmmsg_ns_per_datagram",
       ratio(d(p.recvmmsg_ns), d(p.recvmmsg_datagrams)), "ns/datagram"},
      {"io.recvmmsg_calls", d(p.recvmmsg_calls), "count"},
      {"io.epoll_wait_calls", d(p.epoll_wait_calls), "count"},
      {"io.epoll_wait_ns_per_flow", ratio(d(p.epoll_wait_ns), d(p.flows)),
       "ns/flow"},
      {"io.loop_self_ns_per_datagram",
       ratio(d(p.poll_self_ns), d(p.datagrams)), "ns/datagram"},
      {"io.socket_setup_ns_per_flow", ratio(d(p.socket_setup_ns), d(p.flows)),
       "ns/flow"},
      {"io.timer_fires", d(p.timer_fires), "count"},
      {"io.tx_queue_dropped", d(p.tx_queue_dropped), "count"},
      {"io.tx_enobufs", d(p.tx_enobufs), "count"},
      {"io.tx_eagain", d(p.tx_eagain), "count"},
      {"alloc.per_datagram", ratio(d(p.allocations), d(p.datagrams)),
       "allocs/datagram"},
      // io/ingress_guard
      {"guard.rate_limited", d(p.guard_rate_limited), "count"},
      {"guard.malformed", d(p.guard_malformed), "count"},
      {"guard.accept_ratio", ratio(d(p.guard_accepted), screened), "ratio"},
      // transport
      {"transport.datagrams_per_tpdu",
       ratio(d(p.data_datagrams), d(p.tpdus_sent)), "datagrams/TPDU"},
      {"transport.bytes_per_datagram",
       ratio(d(p.data_bytes), d(p.data_datagrams)), "B/datagram"},
      {"transport.feedback_datagrams_per_tpdu",
       ratio(d(p.feedback_datagrams), d(p.tpdus_sent)), "datagrams/TPDU"},
      {"transport.retransmit_ratio",
       ratio(d(p.retransmissions), d(p.tpdus_sent)), "ratio"},
      {"transport.duplicate_chunks", d(p.duplicate_chunks), "count"},
      {"transport.gap_naks_honoured", d(p.gap_naks_honoured), "count"},
      {"transport.rto_backoffs", d(p.rto_backoffs), "count"},
      {"transport.flow_blocked", d(p.flow_blocked), "count"},
      {"transport.tpdus_gave_up", d(p.tpdus_gave_up), "count"},
      {"transport.tpdus_rejected", d(p.tpdus_rejected), "count"},
      {"transport.send_stream_ns",
       ratio(d(p.send_stream_ns), d(p.send_stream_calls)), "ns/call"},
      {"transport.rx_ns_per_chunk", ratio(d(p.rx_self_ns), d(p.rx_chunks)),
       "ns/chunk"},
      {"transport.feedback_ns_per_packet",
       ratio(d(p.feedback_self_ns), d(p.feedback_packets)), "ns/packet"},
      {"transport.tx_bytes_copied", d(p.tx_bytes_copied), "count"},
      // chunk
      {"chunk.decode_ns_per_packet",
       ratio(d(p.decode_self_ns), d(p.decode_packets)), "ns/packet"},
      {"chunk.relay_ns_per_packet",
       ratio(d(p.relay_self_ns), d(p.relay_packets)), "ns/packet"},
      {"chunk.relay_splits", d(p.relay_splits), "count"},
      // reassembly
      {"reassembly.overlap_chunks", d(p.overlap_chunks), "count"},
      {"reassembly.held_bytes_peak", d(p.held_bytes_peak), "B"},
      // netsim
      {"netsim.events", d(p.netsim_events), "count"},
      {"netsim.self_ns_per_event",
       ratio(d(p.netsim_self_ns), d(p.netsim_events)), "ns/event"},
      // trace
      {"trace.overhead_ratio", overhead_ratio, "x"},
      // the work the traced half did: the bases of the counts above
      {"work.flows", d(p.flows), "count"},
      {"work.tpdus_sent", d(p.tpdus_sent), "count"},
      {"work.datagrams", d(p.datagrams), "count"},
      {"work.app_bytes", d(p.app_bytes), "B"},
  };
}

}  // namespace perfbench
