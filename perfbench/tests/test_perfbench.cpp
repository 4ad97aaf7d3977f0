// Tests for the benchmark's own measurement code: the syscall
// decorator must be transparent, and the span, percentile and ratio
// arithmetic must divide by the bases the notes name.
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "ledger.hpp"
#include "spans.hpp"
#include "timing_syscalls.hpp"

namespace perfbench {
namespace {

using chunknet::FaultInjectingSyscalls;
using chunknet::InjectedFault;
using chunknet::IoCall;
using chunknet::real_syscalls;

// ------------------------------------------------- syscall decorator

TEST(TimingSyscalls, PassesInjectedErrnoAndReturnValueThrough) {
  FaultInjectingSyscalls faults(real_syscalls());
  TimingSyscalls shim(faults);
  const struct {
    IoCall call;
    int err;
  } cases[] = {
      {IoCall::kSendmmsg, ENOBUFS}, {IoCall::kSendmmsg, EAGAIN},
      {IoCall::kSendmmsg, EMSGSIZE}, {IoCall::kRecvmmsg, EINTR},
      {IoCall::kEpollWait, EINTR},  {IoCall::kSocket, EMFILE},
      {IoCall::kBind, EADDRINUSE},  {IoCall::kConnect, ECONNREFUSED},
      {IoCall::kClose, EIO},        {IoCall::kEpollCtl, ENOMEM},
      {IoCall::kEpollCreate, ENFILE},
  };
  for (const auto& c : cases) {
    faults.fail_next(c.call, c.err);
    errno = 0;
    int rc = 0;
    mmsghdr m{};
    epoll_event ev{};
    sockaddr_in sa{};
    switch (c.call) {
      case IoCall::kSendmmsg: rc = shim.sys_sendmmsg(-1, &m, 1, 0); break;
      case IoCall::kRecvmmsg: rc = shim.sys_recvmmsg(-1, &m, 1, 0); break;
      case IoCall::kEpollWait: rc = shim.sys_epoll_wait(-1, &ev, 1, 0); break;
      case IoCall::kSocket: rc = shim.sys_socket(AF_INET, SOCK_DGRAM, 0); break;
      case IoCall::kBind:
        rc = shim.sys_bind(-1, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
        break;
      case IoCall::kConnect:
        rc = shim.sys_connect(-1, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
        break;
      case IoCall::kClose: rc = shim.sys_close(-1); break;
      case IoCall::kEpollCtl: rc = shim.sys_epoll_ctl(-1, 0, -1, &ev); break;
      case IoCall::kEpollCreate: rc = shim.sys_epoll_create1(0); break;
      default: break;
    }
    EXPECT_EQ(rc, -1) << chunknet::to_string(c.call);
    EXPECT_EQ(errno, c.err) << chunknet::to_string(c.call);
  }
  EXPECT_EQ(faults.pending(), 0u);
  EXPECT_EQ(shim.stats().sendmmsg.calls, 3u);
  EXPECT_EQ(shim.stats().sendmmsg.datagrams, 0u);
  EXPECT_EQ(shim.stats().epoll_wait.calls, 1u);
}

TEST(TimingSyscalls, RealCallsReturnWhatTheKernelReturns) {
  TimingSyscalls shim(real_syscalls());
  // A bad descriptor fails identically through the decorator.
  errno = 0;
  EXPECT_EQ(shim.sys_close(-1), -1);
  EXPECT_EQ(errno, EBADF);

  // Two loopback sockets: a real batch in, a real batch out.
  const int a = shim.sys_socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  const int b = shim.sys_socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(shim.sys_bind(b, reinterpret_cast<sockaddr*>(&sa), sizeof sa), 0);
  socklen_t len = sizeof sa;
  ASSERT_EQ(shim.sys_getsockname(b, reinterpret_cast<sockaddr*>(&sa), &len),
            0);
  ASSERT_EQ(shim.sys_connect(a, reinterpret_cast<sockaddr*>(&sa), sizeof sa),
            0);

  char out[3][100];
  iovec iov[3];
  mmsghdr msgs[3]{};
  for (int i = 0; i < 3; ++i) {
    std::memset(out[i], 'a' + i, sizeof out[i]);
    iov[i] = {out[i], static_cast<std::size_t>(10 * (i + 1))};
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  EXPECT_EQ(shim.sys_sendmmsg(a, msgs, 3, 0), 3);

  char in[4][100];
  iovec riov[4];
  mmsghdr rmsgs[4]{};
  for (int i = 0; i < 4; ++i) {
    riov[i] = {in[i], sizeof in[i]};
    rmsgs[i].msg_hdr.msg_iov = &riov[i];
    rmsgs[i].msg_hdr.msg_iovlen = 1;
  }
  EXPECT_EQ(shim.sys_recvmmsg(b, rmsgs, 4, 0), 3);
  EXPECT_EQ(rmsgs[2].msg_len, 30u);
  errno = 0;
  EXPECT_EQ(shim.sys_recvmmsg(b, rmsgs, 4, 0), -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);

  EXPECT_EQ(shim.stats().sendmmsg.datagrams, 3u);
  EXPECT_EQ(shim.stats().sendmmsg.bytes, 60u);
  EXPECT_EQ(shim.stats().recvmmsg.calls, 2u);
  EXPECT_EQ(shim.stats().recvmmsg.datagrams, 3u);
  EXPECT_EQ(shim.stats().recvmmsg.bytes, 60u);
  EXPECT_EQ(shim.stats().socket_setup.calls, 5u);
  EXPECT_EQ(shim.sys_close(a), 0);
  EXPECT_EQ(shim.sys_close(b), 0);
}

TEST(TimingSyscalls, PartialSendCountsOnlyTheDatagramsSent) {
  FaultInjectingSyscalls faults(real_syscalls());
  TimingSyscalls shim(faults);
  const int a = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  const int b = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(b, reinterpret_cast<sockaddr*>(&sa), sizeof sa), 0);
  socklen_t len = sizeof sa;
  ASSERT_EQ(::getsockname(b, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  ASSERT_EQ(::connect(a, reinterpret_cast<sockaddr*>(&sa), sizeof sa), 0);
  InjectedFault f;
  f.call = IoCall::kSendmmsg;
  f.partial = 1;
  faults.inject(f);
  char buf[8] = {};
  iovec iov[2] = {{buf, 8}, {buf, 8}};
  mmsghdr msgs[2]{};
  for (int i = 0; i < 2; ++i) {
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  EXPECT_EQ(shim.sys_sendmmsg(a, msgs, 2, 0), 1);
  EXPECT_EQ(shim.stats().sendmmsg.datagrams, 1u);
  EXPECT_EQ(shim.stats().sendmmsg.bytes, 8u);
  ::close(a);
  ::close(b);
}

// ------------------------------------------------------------ spans

TEST(Spans, SelfTimeIsDurationMinusDirectChildren) {
  SpanRecorder r;
  const auto a = r.intern("a"), b = r.intern("b"), c = r.intern("c");
  r.open(a, 0);
  r.open(b, 10);
  r.open(c, 12);  // grandchild: covered by b, not subtracted from a twice
  r.close(18);
  r.close(30);
  r.open(c, 40);
  r.close(45);
  r.close(100);
  EXPECT_EQ(r.totals(a).total_ns, 100u);
  EXPECT_EQ(r.totals(a).self_ns, 75u);  // 100 - 20 - 5
  EXPECT_EQ(r.totals(b).self_ns, 14u);  // 20 - 6
  EXPECT_EQ(r.totals(c).count, 2u);
  EXPECT_EQ(r.totals(c).total_ns, 11u);
  EXPECT_EQ(r.totals(c).self_ns, 11u);
  EXPECT_EQ(r.depth(), 0u);
}

TEST(Spans, StoredSpansKeepParentAndFlowAndCountDrops) {
  SpanRecorder r(2);
  const auto a = r.intern("a"), b = r.intern("b");
  r.set_flow(7);
  r.open(a, 0);
  r.open(b, 1);
  r.close(2);
  r.open(b, 3);  // past the cap: totals still count it
  r.close(4);
  r.close(5);
  ASSERT_EQ(r.stored().size(), 2u);
  EXPECT_EQ(r.stored()[0].parent, -1);
  EXPECT_EQ(r.stored()[1].parent, 0);
  EXPECT_EQ(r.stored()[1].flow, 7u);
  EXPECT_EQ(r.stored()[0].end_ns, 5u);
  EXPECT_EQ(r.dropped(), 1u);
  EXPECT_EQ(r.totals(b).count, 2u);
  EXPECT_EQ(r.totals(a).self_ns, 3u);
}

TEST(Spans, AllocationsChargeTheInnermostSpan) {
  SpanRecorder r;
  const auto a = r.intern("a"), b = r.intern("b");
  r.on_allocation();  // no span open: charged nowhere
  r.open(a, 0);
  r.on_allocation();
  r.open(b, 1);
  r.on_allocation();
  r.on_allocation();
  r.close(2);
  r.close(3);
  EXPECT_EQ(r.totals(a).allocations, 1u);
  EXPECT_EQ(r.totals(b).allocations, 2u);
}

TEST(Spans, StandardNamesInternInEnumOrder) {
  SpanRecorder r;
  intern_standard_names(r);
  EXPECT_EQ(r.name(span::kPollOnce), "poll_once");
  EXPECT_EQ(r.name(span::kTransportFeedback), "transport.feedback");
  EXPECT_EQ(r.intern("io.sendmmsg"), span::kSendmmsg);
}

// ------------------------------------------------------ percentiles

TEST(Percentiles, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 4.6);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
}

TEST(Percentiles, SampleCountRule) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(100, 99), 1u);
  EXPECT_EQ(samples_beyond(1001, 50), 500u);
  EXPECT_FALSE(highest_supported_percentile(10).has_value());
  const auto top = highest_supported_percentile(1000);
  ASSERT_TRUE(top.has_value());
  EXPECT_DOUBLE_EQ(*top, 100.0 * 989 / 999);
  EXPECT_EQ(samples_beyond(1000, *top), 10u);
  // The supported percentile is the order statistic at index n-1-k.
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_NEAR(percentile(v, *top), 989.0, 1e-9);
  EXPECT_DOUBLE_EQ(*highest_supported_percentile(11), 0.0);
}

TEST(Percentiles, HistogramKeepsEachValueToATenthOfAPercent) {
  LogHistogram h;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    v.push_back(0.37 * i * i);  // spans six decades
    h.add(v.back());
  }
  EXPECT_EQ(h.count(), 1000u);
  for (const double q : {0.0, 25.0, 50.0, 99.0, 100.0}) {
    const double exact = percentile(v, q);
    EXPECT_NEAR(h.percentile(q), exact, exact * 1e-3) << q;
  }
  EXPECT_DOUBLE_EQ(LogHistogram().percentile(50), 0);
}

// ------------------------------------------------------- ratio bases

double metric(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

TEST(Ratios, EndToEndBases) {
  Phase p;
  p.app_bytes = 8'000'000;
  p.wire_bytes = 10'000'000;
  p.flows = 40;
  // Rates are medians over windows: 4, 4 and 1 MB/s -> 4.
  p.windows = {{1'000'000'000, 8'000'000, 4'000'000, 20},
               {500'000'000, 4'000'000, 2'000'000, 10},
               {2'000'000'000, 16'000'000, 2'000'000, 10}};
  for (const double v : {0.3, 0.1, 0.2}) p.setup_s.add(v);
  for (const double v : {5, 1, 3, 2, 4}) p.latency_us.add(v);
  for (const double v : {10, 30, 20}) p.clock_goodput_Mbps.add(v);
  const auto ms = end_to_end_metrics(p, 12.5);
  // Per-flow samples are medians too, kept to 0.1 % by the histogram.
  EXPECT_NEAR(metric(ms, "setup_s"), 0.2, 0.2e-3);
  EXPECT_DOUBLE_EQ(metric(ms, "goodput_MBps"), 4.0);       // MB per wall s
  EXPECT_DOUBLE_EQ(metric(ms, "cpu_ns_per_byte"), 2.0);    // cpu / app byte
  EXPECT_NEAR(metric(ms, "msg_latency_p50_us"), 3.0, 3e-3);
  EXPECT_DOUBLE_EQ(metric(ms, "flows_per_s"), 20.0);     // 20, 20, 5
  EXPECT_DOUBLE_EQ(metric(ms, "wire_bytes_per_app_byte"), 1.25);
  EXPECT_NEAR(metric(ms, "sim_goodput_Mbps"), 20.0, 20e-3);
  EXPECT_DOUBLE_EQ(metric(ms, "peak_rss_MB"), 12.5);
}

TEST(Ratios, PerLayerBases) {
  Phase p;
  p.flows = 4;
  p.sendmmsg_calls = 10;
  p.sendmmsg_datagrams = 40;
  p.sendmmsg_ns = 4000;
  p.recvmmsg_calls = 5;
  p.recvmmsg_datagrams = 35;
  p.recvmmsg_ns = 700;
  p.epoll_wait_ns = 800;
  p.socket_setup_ns = 1200;
  p.poll_self_ns = 2000;
  p.datagrams = 50;
  p.allocations = 150;
  p.guard_accepted = 30;
  p.guard_rate_limited = 6;
  p.guard_malformed = 2;
  p.guard_empty = 1;
  p.guard_refused = 1;
  p.tpdus_sent = 20;
  p.data_datagrams = 80;
  p.data_bytes = 80'000;
  p.feedback_datagrams = 30;
  p.retransmissions = 5;
  p.send_stream_calls = 4;
  p.send_stream_ns = 400;
  p.rx_chunks = 100;
  p.rx_self_ns = 5000;
  p.feedback_packets = 10;
  p.feedback_self_ns = 300;
  p.decode_packets = 25;
  p.decode_self_ns = 500;
  p.relay_packets = 20;
  p.relay_self_ns = 1000;
  p.netsim_events = 200;
  p.netsim_self_ns = 6000;
  const auto ms = per_layer_metrics(p, 1.1);
  EXPECT_DOUBLE_EQ(metric(ms, "io.datagrams_per_sendmmsg"), 4.0);
  EXPECT_DOUBLE_EQ(metric(ms, "io.sendmmsg_ns_per_datagram"), 100.0);
  EXPECT_DOUBLE_EQ(metric(ms, "io.datagrams_per_recvmmsg"), 7.0);
  EXPECT_DOUBLE_EQ(metric(ms, "io.recvmmsg_ns_per_datagram"), 20.0);
  EXPECT_DOUBLE_EQ(metric(ms, "io.epoll_wait_ns_per_flow"), 200.0);
  EXPECT_DOUBLE_EQ(metric(ms, "io.socket_setup_ns_per_flow"), 300.0);
  EXPECT_DOUBLE_EQ(metric(ms, "io.loop_self_ns_per_datagram"), 40.0);
  EXPECT_DOUBLE_EQ(metric(ms, "alloc.per_datagram"), 3.0);
  EXPECT_DOUBLE_EQ(metric(ms, "guard.accept_ratio"), 0.75);  // of screened
  EXPECT_DOUBLE_EQ(metric(ms, "transport.datagrams_per_tpdu"), 4.0);
  EXPECT_DOUBLE_EQ(metric(ms, "transport.bytes_per_datagram"), 1000.0);
  EXPECT_DOUBLE_EQ(metric(ms, "transport.feedback_datagrams_per_tpdu"), 1.5);
  EXPECT_DOUBLE_EQ(metric(ms, "transport.retransmit_ratio"), 0.25);
  EXPECT_DOUBLE_EQ(metric(ms, "transport.send_stream_ns"), 100.0);
  EXPECT_DOUBLE_EQ(metric(ms, "transport.rx_ns_per_chunk"), 50.0);
  EXPECT_DOUBLE_EQ(metric(ms, "transport.feedback_ns_per_packet"), 30.0);
  EXPECT_DOUBLE_EQ(metric(ms, "chunk.decode_ns_per_packet"), 20.0);
  EXPECT_DOUBLE_EQ(metric(ms, "chunk.relay_ns_per_packet"), 50.0);
  EXPECT_DOUBLE_EQ(metric(ms, "netsim.self_ns_per_event"), 30.0);
  EXPECT_DOUBLE_EQ(metric(ms, "trace.overhead_ratio"), 1.1);
}

TEST(Ratios, EmptyBaseGivesZeroNotNaN) {
  const auto ms = per_layer_metrics(Phase{}, 0);
  for (const Metric& m : ms) EXPECT_EQ(m.value, 0.0) << m.name;
  EXPECT_EQ(metric(end_to_end_metrics(Phase{}, 0), "goodput_MBps"), 0.0);
  std::set<std::string> names;
  for (const Metric& m : ms) names.insert(m.name);
  EXPECT_EQ(names.size(), ms.size());
}

}  // namespace
}  // namespace perfbench
