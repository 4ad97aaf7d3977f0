// The two loopback workloads: real UdpSenderSession/UdpReceiverSession
// pairs on one EventLoop over 127.0.0.1. Everything is observed from
// outside: the loop's run_until predicate (which runs between
// poll_once iterations) times each iteration and detects delivery, and
// the stats accessors are read once per flow after drain.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <set>

#include "src/common/rng.hpp"
#include "src/io/udp_transport.hpp"
#include "spans.hpp"
#include "timing_syscalls.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace chunknet;

namespace {

constexpr std::uint32_t kConn = 15;
constexpr std::uint16_t kElem = 4;
constexpr std::size_t kMtu = 1400;
constexpr std::size_t kBulkTpduBytes = 4096;

/// E15a's bulk configuration: 4 KiB TPDUs, MTU 1400, credit flow
/// control on; guard and endpoint settings stay at their defaults.
SenderConfig bulk_sender_config() {
  SenderConfig sc;
  sc.framer.connection_id = kConn;
  sc.framer.element_size = kElem;
  sc.framer.tpdu_elements = kBulkTpduBytes / kElem;
  sc.framer.xpdu_elements = 256;
  sc.framer.max_chunk_elements = 256;
  sc.mtu = kMtu;
  sc.retransmit_timeout = 30 * kMillisecond;
  sc.max_retransmits = 30;
  sc.flow.enabled = true;
  sc.flow.initial_credit_bytes = 256 * 1024;
  sc.flow.initial_tpdu_slots = 64;
  return sc;
}

ReceiverConfig bulk_receiver_config(std::size_t bytes) {
  ReceiverConfig rc;
  rc.connection_id = kConn;
  rc.element_size = kElem;
  rc.app_buffer_bytes = bytes;
  rc.record_latency_samples = false;
  rc.grant_credit = true;
  rc.credit_window_bytes = 512 * 1024;
  rc.credit_tpdu_slots = 128;
  return rc;
}

/// E15b's per-message configuration: the whole message is one TPDU.
SenderConfig message_sender_config(std::size_t bytes) {
  const auto elems = static_cast<std::uint32_t>(bytes / kElem);
  SenderConfig sc;
  sc.framer.connection_id = kConn;
  sc.framer.element_size = kElem;
  sc.framer.tpdu_elements = elems;
  sc.framer.xpdu_elements = elems;
  sc.framer.max_chunk_elements = static_cast<std::uint16_t>(elems);
  sc.mtu = kMtu;
  sc.retransmit_timeout = 20 * kMillisecond;
  return sc;
}

ReceiverConfig message_receiver_config(std::size_t bytes) {
  ReceiverConfig rc;
  rc.connection_id = kConn;
  rc.element_size = kElem;
  rc.app_buffer_bytes = bytes;
  rc.record_latency_samples = false;
  return rc;
}

/// Pumps `loop` until `done()` holds or `deadline` passes. The
/// predicate runs between poll_once iterations, so with tracing on the
/// interval between two calls is recorded as one poll_once span.
bool pump(EventLoop& loop, const std::function<bool()>& done,
          SimTime deadline) {
  SpanRecorder* r = active_spans();
  bool open = false;
  const bool ok = loop.run_until(
      [&] {
        if (open) {
          r->close(mono_ns());
          open = false;
        }
        if (done()) return true;
        if (r != nullptr) {
          r->open(span::kPollOnce, mono_ns());
          open = true;
        }
        return false;
      },
      deadline);
  if (open) r->close(mono_ns());
  return ok;
}

/// One session pair over loopback carrying one stream.
struct FlowOutcome {
  bool ok{false};             ///< sockets up, delivered before deadline
  bool clean{false};          ///< sender drain clean, receiver flushed
  double setup_s{0};
  double latency_us{0};
  double clock_goodput_Mbps{0};
  std::set<std::uint32_t> failed_tpdus;  ///< 0-based TPDU indices
  std::uint64_t good_bytes{0};
  std::uint64_t mismatched_bytes{0};
  std::uint64_t first_bad_offset{~std::uint64_t{0}};
};

FlowOutcome run_flow(Phase& ph, SyscallShim* sys,
                     std::span<const std::uint8_t> stream,
                     const SenderConfig& sender_cfg,
                     const ReceiverConfig& receiver_cfg, SimTime budget,
                     std::size_t tpdu_bytes) {
  FlowOutcome out;
  ScopedSpan flow(span::kFlow);

  const std::uint64_t t_setup = mono_ns();
  std::unique_ptr<EventLoop> loop;
  std::unique_ptr<UdpReceiverSession> rx;
  std::unique_ptr<UdpSenderSession> tx;
  {
    ScopedSpan s(span::kSessionSetup);
    EventLoopConfig lc;
    lc.sys = sys;
    loop = std::make_unique<EventLoop>(lc);
    UdpReceiverSessionConfig rcfg;
    rcfg.bind = UdpAddress{0x7f000001, 0};
    rcfg.receiver = receiver_cfg;
    rx = std::make_unique<UdpReceiverSession>(*loop, rcfg);
    UdpSenderSessionConfig scfg;
    scfg.peer = rx->endpoint().local_addr();
    scfg.sender = sender_cfg;
    tx = std::make_unique<UdpSenderSession>(*loop, scfg);
  }
  out.setup_s = static_cast<double>(mono_ns() - t_setup) / 1e9;

  const std::size_t tpdus = (stream.size() + tpdu_bytes - 1) / tpdu_bytes;
  if (!rx->ok() || !tx->ok()) {
    for (std::uint32_t i = 0; i < tpdus; ++i) out.failed_tpdus.insert(i);
    return out;
  }

  const std::uint64_t want = stream.size() / kElem;
  const SimTime t0 = loop->now();
  {
    ScopedSpan s(span::kSendStream);
    tx->send_stream(stream);
  }
  const bool delivered = pump(
      *loop, [&] { return rx->receiver().stream_complete(want); },
      t0 + budget);
  const SimTime t1 = loop->now();
  out.latency_us = static_cast<double>(t1 - t0) / 1e3;
  out.clock_goodput_Mbps = ratio(static_cast<double>(stream.size()) * 8e3,
                                 static_cast<double>(t1 - t0));

  // Drain through the same timed pump, then let the sessions close what
  // is left; their own run_until calls then find nothing to wait for.
  pump(*loop,
       [&] {
         return tx->sender().finished() && tx->endpoint().tx_queued() == 0;
       },
       loop->now() + kSecond);
  const DrainReport dr = tx->drain(loop->now() + 100 * kMillisecond);
  pump(*loop, [&] { return rx->endpoint().tx_queued() == 0; },
       loop->now() + 10 * kMillisecond);
  const std::uint64_t rx_unsent = rx->drain(loop->now() + 10 * kMillisecond);
  out.ok = delivered;
  out.clean = dr.clean && rx_unsent == 0;

  const auto& ss = tx->sender().stats();
  const auto& rs = rx->receiver().stats();
  const auto& te = tx->endpoint().stats();
  const auto& re = rx->endpoint().stats();
  const auto& gs = rx->guard().stats();
  ph.tpdus_sent += ss.tpdus_sent;
  ph.data_datagrams += ss.packets_sent;
  ph.data_bytes += ss.bytes_sent;
  ph.retransmissions += ss.retransmissions;
  ph.gap_naks_honoured += ss.gap_naks_honoured;
  ph.rto_backoffs += ss.rto_backoffs;
  ph.flow_blocked += ss.flow_blocked;
  ph.tpdus_gave_up += ss.gave_up;
  ph.tx_bytes_copied += ss.tx_bytes_copied;
  ph.duplicate_chunks += rs.duplicate_chunks;
  ph.tpdus_rejected += rs.tpdus_rejected;
  ph.overlap_chunks += rs.overlap_chunks;
  ph.held_bytes_peak = std::max(ph.held_bytes_peak, rs.held_bytes_peak);
  ph.feedback_datagrams += re.datagrams_sent;
  ph.wire_bytes += te.bytes_sent + re.bytes_sent;
  ph.datagrams += te.datagrams_sent + re.datagrams_sent;
  ph.sendmmsg_calls += te.sendmmsg_calls + re.sendmmsg_calls;
  ph.sendmmsg_datagrams += te.datagrams_sent + re.datagrams_sent;
  ph.recvmmsg_calls += te.recvmmsg_calls + re.recvmmsg_calls;
  ph.recvmmsg_datagrams += te.datagrams_received + re.datagrams_received;
  ph.tx_queue_dropped += te.tx_queue_dropped + re.tx_queue_dropped;
  ph.tx_enobufs += te.tx_enobufs + re.tx_enobufs;
  ph.tx_eagain += te.tx_eagain + re.tx_eagain;
  ph.timer_fires += loop->stats().timer_fires;
  ph.guard_accepted += gs.accepted;
  ph.guard_rate_limited += gs.rate_limited;
  ph.guard_malformed += gs.malformed;
  ph.guard_empty += gs.empty;
  ph.guard_refused += gs.refused_conn;

  // Bit-exact check, per TPDU, plus every TPDU the sender gave up on or
  // abandoned (T.IDs start at FramerOptions::first_tpdu_id = 1).
  const auto got = rx->receiver().app_data();
  for (std::size_t i = 0; i < tpdus; ++i) {
    const std::size_t off = i * tpdu_bytes;
    const std::size_t n = std::min(tpdu_bytes, stream.size() - off);
    const bool same = got.size() >= off + n &&
                      std::memcmp(got.data() + off, stream.data() + off, n) == 0;
    if (same) {
      out.good_bytes += n;
    } else {
      out.mismatched_bytes += n;
      out.first_bad_offset = std::min<std::uint64_t>(out.first_bad_offset, off);
      out.failed_tpdus.insert(static_cast<std::uint32_t>(i));
    }
  }
  for (const std::uint32_t id : tx->sender().gave_up_tpdus()) {
    out.failed_tpdus.insert(id - sender_cfg.framer.first_tpdu_id);
  }
  tx.reset();
  rx.reset();
  loop.reset();
  return out;
}

/// Adds one flow's delivered bytes and samples to the phase.
void record(Phase& ph, const FlowOutcome& f) {
  ph.app_bytes += f.good_bytes;
  ph.mismatched_bytes += f.mismatched_bytes;
  ph.first_bad_offset = std::min(ph.first_bad_offset, f.first_bad_offset);
  ph.setup_s.add(f.setup_s);
  ph.latency_us.add(f.latency_us);
  ph.clock_goodput_Mbps.add(f.clock_goodput_Mbps);
}

/// Runs flows from `next_flow` until `seconds` have passed, keeping
/// the set-up, latency and CPU accounting shared by both workloads.
template <typename NextFlow>
Phase run_phase(double seconds, NextFlow&& next_flow) {
  Phase ph;
  std::unique_ptr<TimingSyscalls> shim;
  if (active_spans() != nullptr) {
    shim = std::make_unique<TimingSyscalls>(real_syscalls());
  }
  const std::uint64_t allocs0 = allocation_count();
  const std::uint64_t t0 = mono_ns();
  const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  Windower windows(ph);
  while (mono_ns() - t0 < budget_ns) {
    if (SpanRecorder* r = active_spans()) r->set_flow(ph.flows + 1);
    next_flow(ph, shim.get());
    ++ph.flows;
    windows.after_flow();
  }
  windows.finish();
  ph.allocations = allocation_count() - allocs0;
  if (shim) {
    const auto& st = shim->stats();
    // The kernel's view: every call made, including the recvmmsg that
    // ends each drain with EAGAIN, which the endpoint does not count.
    ph.sendmmsg_calls = st.sendmmsg.calls;
    ph.sendmmsg_datagrams = st.sendmmsg.datagrams;
    ph.sendmmsg_ns = st.sendmmsg.ns;
    ph.recvmmsg_calls = st.recvmmsg.calls;
    ph.recvmmsg_datagrams = st.recvmmsg.datagrams;
    ph.recvmmsg_ns = st.recvmmsg.ns;
    ph.epoll_wait_calls = st.epoll_wait.calls;
    ph.epoll_wait_ns = st.epoll_wait.ns;
    ph.socket_setup_ns = st.socket_setup.ns;
  }
  return ph;
}

std::vector<std::uint8_t> seeded_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(v.data() + i, &w, std::min<std::size_t>(8, n - i));
  }
  return v;
}

}  // namespace

Phase run_loopback_bulk(const RunOptions& o) {
  const std::size_t bytes = o.bulk_bytes / kElem * kElem;
  const auto stream = seeded_bytes(bytes, o.seed);
  const SenderConfig sc = bulk_sender_config();
  const ReceiverConfig rc = bulk_receiver_config(bytes);
  return run_phase(o.seconds, [&](Phase& ph, SyscallShim* sys) {
    const FlowOutcome f =
        run_flow(ph, sys, stream, sc, rc, 60 * kSecond, kBulkTpduBytes);
    const std::size_t tpdus = (bytes + kBulkTpduBytes - 1) / kBulkTpduBytes;
    ph.attempted += tpdus;
    std::uint64_t failed = f.failed_tpdus.size();
    if (failed == 0 && (!f.ok || !f.clean)) failed = 1;
    ph.failed += failed;
    record(ph, f);
  });
}

Phase run_loopback_short_flows(const RunOptions& o) {
  // Message sizes are drawn log-uniformly from 64 B to 16 KiB, in
  // whole elements; payloads are slices of one seeded pool.
  constexpr std::size_t kMin = 64, kMax = 16 * 1024;
  const auto pool = seeded_bytes(2 * kMax, o.seed);
  Rng rng(o.seed ^ 0x5f1a7e5ULL);
  return run_phase(o.seconds, [&](Phase& ph, SyscallShim* sys) {
    const double u = rng.uniform();
    auto size = static_cast<std::size_t>(
        static_cast<double>(kMin) *
        std::pow(static_cast<double>(kMax) / kMin, u));
    size = std::clamp<std::size_t>(size / kElem * kElem, kMin, kMax);
    const std::size_t off = rng.below(kMax / kElem) * kElem;
    const std::span<const std::uint8_t> msg(pool.data() + off, size);
    const FlowOutcome f =
        run_flow(ph, sys, msg, message_sender_config(size),
                 message_receiver_config(size), 5 * kSecond, size);
    ph.attempted += 1;
    const bool good = f.ok && f.clean && f.failed_tpdus.empty();
    if (!good) ++ph.failed;
    record(ph, f);
  });
}

}  // namespace perfbench
