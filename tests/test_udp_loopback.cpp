// End-to-end chunk transport over real loopback UDP sockets: bit-exact
// delivery, survival of injected syscall faults, mid-transfer receiver
// restart, truthful drain accounting, and the ingress guard's hostile-
// input screens. Everything runs on one EventLoop in one process —
// two sockets, real datagrams, real epoll.
#include <gtest/gtest.h>

#include <errno.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/chunk/codec.hpp"
#include "src/io/udp_transport.hpp"
#include "src/transport/invariant.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 1103515245u + 12345u) >> 9);
  }
  return v;
}

constexpr std::uint32_t kConn = 7;
constexpr std::uint16_t kElem = 4;
constexpr std::uint32_t kTpduElems = 256;  // 1 KiB per TPDU

SenderConfig fast_sender_config() {
  SenderConfig sc;
  sc.framer.connection_id = kConn;
  sc.framer.element_size = kElem;
  sc.framer.tpdu_elements = kTpduElems;
  sc.framer.xpdu_elements = 64;
  sc.framer.max_chunk_elements = 64;
  sc.mtu = 1400;
  sc.retransmit_timeout = 30 * kMillisecond;
  sc.max_retransmits = 30;
  return sc;
}

ReceiverConfig fast_receiver_config(std::size_t stream_bytes) {
  ReceiverConfig rc;
  rc.connection_id = kConn;
  rc.element_size = kElem;
  rc.app_buffer_bytes = stream_bytes;
  rc.record_latency_samples = false;
  return rc;
}

TEST(UdpLoopback, BitExactTransfer) {
  EventLoop loop;
  const auto stream = pattern(64 * 1024);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 10 * kSecond));
  ASSERT_TRUE(tx.run_until_finished(loop.now() + 10 * kSecond));

  EXPECT_TRUE(tx.sender().all_acked());
  const auto got = rx.receiver().app_data();
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(), got.begin()))
      << "delivered bytes differ from the source stream";
  EXPECT_EQ(rx.guard().stats().malformed, 0u);
}

TEST(UdpLoopback, BitExactUnderInjectedFaults) {
  FaultInjectingSyscalls faulty(real_syscalls());
  EventLoopConfig lc;
  lc.sys = &faulty;
  EventLoop loop(lc);
  const auto stream = pattern(32 * 1024);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  // A hostile afternoon: interrupted syscalls, kernel buffer
  // exhaustion, partial batches, and a short read that truncates a
  // data packet mid-envelope.
  faulty.fail_next(IoCall::kSendmmsg, EINTR, 2);
  faulty.fail_next(IoCall::kRecvmmsg, EINTR, 2);
  faulty.fail_next(IoCall::kEpollWait, EINTR, 3);
  {
    InjectedFault f;
    f.call = IoCall::kSendmmsg;
    f.after = 4;
    f.err = ENOBUFS;
    faulty.inject(f);
    f.after = 1;
    faulty.inject(f);
  }
  {
    InjectedFault f;
    f.call = IoCall::kSendmmsg;
    f.after = 2;
    f.partial = 1;
    f.err = 0;
    faulty.inject(f);
  }
  {
    InjectedFault f;
    f.call = IoCall::kRecvmmsg;
    f.after = 2;
    f.truncate_by = 30;
    f.err = 0;
    faulty.inject(f);
  }

  tx.send_stream(stream);
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 20 * kSecond));
  ASSERT_TRUE(tx.run_until_finished(loop.now() + 20 * kSecond));

  EXPECT_TRUE(tx.sender().all_acked());
  const auto got = rx.receiver().app_data();
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(), got.begin()));
  // Every scripted fault was consumed by the runtime.
  EXPECT_EQ(faulty.pending(), 0u);
  // The truncated datagram was refused by a strict decoder somewhere
  // (the guard for data, the sender's own decode for control) — it was
  // NOT silently accepted; the transport recovered by retransmission.
  EXPECT_GE(faulty.stats().injected[static_cast<int>(IoCall::kRecvmmsg)],
            1u);
}

// Mid-transfer receiver restart: the receiver process "crashes" (its
// socket closes, all transport state is lost) and comes back on the
// same port with fresh state. The application-level durable buffer —
// written once per ACCEPTED TPDU, keyed by the TPDU's stream offset —
// plus the sender's RTO retransmission of unacked TPDUs reassembles a
// bit-exact stream across the blackout.
TEST(UdpLoopback, ReceiverRestartMidTransferIsBitExact) {
  EventLoop loop;
  const auto stream = pattern(64 * 1024);
  const std::size_t tpdu_bytes = std::size_t{kTpduElems} * kElem;
  const std::size_t total_tpdus = stream.size() / tpdu_bytes;

  std::vector<std::uint8_t> durable(stream.size(), 0);
  std::vector<bool> have(total_tpdus, false);

  std::unique_ptr<UdpReceiverSession> rx;
  // Commits an accepted TPDU's bytes from the receiver's app memory
  // into durable storage (what a real receiver process would fsync).
  auto commit = [&](const TpduOutcome& out) {
    if (out.verdict != TpduVerdict::kAccepted) return;
    const std::size_t idx = out.tpdu_id - 1;  // sequential from 1
    ASSERT_LT(idx, total_tpdus);
    const std::size_t off = idx * tpdu_bytes;
    const auto app = rx->receiver().app_data();
    std::copy(app.begin() + off, app.begin() + off + tpdu_bytes,
              durable.begin() + off);
    have[idx] = true;
  };

  auto make_rx = [&](std::uint16_t port) {
    UdpReceiverSessionConfig rcfg;
    rcfg.bind = UdpAddress{0x7f000001, port};
    rcfg.receiver = fast_receiver_config(stream.size());
    rcfg.receiver.on_tpdu = commit;
    // One datagram per poll so run_until's half-way check actually
    // lands MID-transfer (a full-speed loopback drain would otherwise
    // finish the whole stream inside a single poll iteration).
    rcfg.endpoint.rx_batch = 1;
    rcfg.endpoint.max_rx_per_poll = 1;
    return std::make_unique<UdpReceiverSession>(loop, rcfg);
  };

  rx = make_rx(0);
  ASSERT_TRUE(rx->ok());
  const std::uint16_t port = rx->endpoint().local_addr().port;

  UdpSenderSessionConfig scfg;
  scfg.peer = rx->endpoint().local_addr();
  scfg.sender = fast_sender_config();
  scfg.endpoint.reconnect_backoff_min = 2 * kMillisecond;
  scfg.endpoint.reconnect_backoff_max = 10 * kMillisecond;
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  // Let roughly half the TPDUs land...
  ASSERT_TRUE(loop.run_until(
      [&] {
        return rx->receiver().stats().tpdus_accepted >= total_tpdus / 2;
      },
      loop.now() + 10 * kSecond));

  // ...then the receiver dies. Socket gone, transport state gone.
  const std::uint64_t accepted_before_crash =
      rx->receiver().stats().tpdus_accepted;
  rx.reset();

  // The sender notices: sends start drawing ECONNREFUSED.
  loop.run_until(
      [&] { return tx.endpoint().stats().peer_unreachable > 0; },
      loop.now() + 2 * kSecond);

  // Restart on the same port, fresh state.
  rx = make_rx(port);
  ASSERT_TRUE(rx->ok()) << "restart port was taken; rerun";

  // The sender's RTO drives retransmission of every unacked TPDU into
  // the new receiver; already-acked TPDUs are never resent (their
  // bytes live only in the durable buffer).
  ASSERT_TRUE(tx.run_until_finished(loop.now() + 30 * kSecond));
  EXPECT_TRUE(tx.sender().all_acked());
  EXPECT_GE(tx.endpoint().stats().peer_unreachable, 1u);

  for (std::size_t i = 0; i < total_tpdus; ++i) {
    EXPECT_TRUE(have[i]) << "TPDU " << (i + 1) << " never committed";
  }
  EXPECT_EQ(durable, stream) << "stream corrupted across the restart";
  // The restart actually happened mid-transfer.
  EXPECT_LT(accepted_before_crash, total_tpdus);
  EXPECT_GT(rx->receiver().stats().tpdus_accepted, 0u);
}

TEST(UdpLoopback, DrainReportsTruthfullyAgainstDeadPeer) {
  EventLoop loop;
  const auto stream = pattern(4 * 1024);

  // Find a dead port.
  std::uint16_t dead_port;
  {
    UdpEndpointConfig probe;
    probe.bind = UdpAddress{0x7f000001, 0};
    UdpEndpoint tmp(loop, probe);
    ASSERT_TRUE(tmp.ok());
    dead_port = tmp.local_addr().port;
  }

  UdpSenderSessionConfig scfg;
  scfg.peer = UdpAddress{0x7f000001, dead_port};
  scfg.sender = fast_sender_config();
  scfg.sender.retransmit_timeout = 10 * kMillisecond;
  scfg.sender.max_retransmits = 2;
  scfg.endpoint.reconnect_backoff_min = kMillisecond;
  scfg.endpoint.reconnect_backoff_max = 5 * kMillisecond;
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  const DrainReport r = tx.drain(loop.now() + 5 * kSecond);
  // Nothing was acked, and the report says so — gave-up TPDUs are
  // named, clean is false, and nothing pretends to have been delivered.
  EXPECT_FALSE(r.clean);
  EXPECT_EQ(r.tpdus_acked, 0u);
  EXPECT_EQ(r.tpdus_gave_up + r.tpdus_abandoned,
            stream.size() / (std::size_t{kTpduElems} * kElem));
  EXPECT_EQ(tx.sender().gave_up_tpdus().size(),
            r.tpdus_gave_up + r.tpdus_abandoned);
}

TEST(UdpLoopback, DrainCleanOnHealthyTransfer) {
  EventLoop loop;
  const auto stream = pattern(16 * 1024);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  const DrainReport r = tx.drain(loop.now() + 10 * kSecond);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.tpdus_acked, stream.size() / (std::size_t{kTpduElems} * kElem));
  EXPECT_EQ(r.tpdus_gave_up, 0u);
  EXPECT_EQ(r.tpdus_abandoned, 0u);
  EXPECT_EQ(r.datagrams_unsent, 0u);
  EXPECT_EQ(rx.drain(loop.now() + kSecond), 0u);
}

TEST(UdpLoopback, AbandonedDeadlineDrainIsCountedNotHidden) {
  EventLoop loop;
  const auto stream = pattern(8 * 1024);

  // Dead peer and an immediate deadline: no time for RTO give-up, so
  // every TPDU is abandoned by the drain itself.
  UdpSenderSessionConfig scfg;
  scfg.peer = UdpAddress{0x7f000001, 1};  // nothing listens on port 1
  scfg.sender = fast_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  const DrainReport r = tx.drain(loop.now());  // deadline already passed
  EXPECT_FALSE(r.clean);
  EXPECT_EQ(r.tpdus_abandoned,
            stream.size() / (std::size_t{kTpduElems} * kElem));
  EXPECT_TRUE(tx.sender().finished());
}

TEST(UdpLoopback, GuardDropsGarbageAndCountsIt) {
  EventLoop loop;
  const auto stream = pattern(8 * 1024);

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  // A hostile neighbour blasts garbage at the receiver port while a
  // legitimate transfer runs.
  UdpEndpointConfig hc;
  hc.bind = UdpAddress{0x7f000001, 0};
  hc.peer = rx.endpoint().local_addr();
  UdpEndpoint hostile(loop, hc);
  ASSERT_TRUE(hostile.ok());
  for (int i = 0; i < 20; ++i) {
    PacketBytes junk;
    junk.resize_uninitialized(100);
    for (std::size_t j = 0; j < junk.size(); ++j) {
      junk.data()[j] = static_cast<std::uint8_t>(i * 31 + j);
    }
    hostile.send(std::move(junk));
  }

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());
  tx.send_stream(stream);

  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 10 * kSecond));
  const auto got = rx.receiver().app_data();
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(), got.begin()));
  EXPECT_GE(rx.guard().stats().malformed, 1u)
      << "garbage must be counted, not vanish";
}

TEST(UdpLoopback, GuardRateLimitsAFloodingSource) {
  EventLoop loop;

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(1024);
  rcfg.guard.rate_per_sec = 100.0;
  rcfg.guard.burst = 10.0;
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpEndpointConfig hc;
  hc.bind = UdpAddress{0x7f000001, 0};
  hc.peer = rx.endpoint().local_addr();
  UdpEndpoint hostile(loop, hc);
  ASSERT_TRUE(hostile.ok());

  for (int i = 0; i < 100; ++i) {
    PacketBytes junk;
    junk.resize_uninitialized(64);
    for (std::size_t j = 0; j < junk.size(); ++j) {
      junk.data()[j] = static_cast<std::uint8_t>(j);
    }
    hostile.send(std::move(junk));
  }
  loop.run_until(
      [&] {
        const auto& s = rx.guard().stats();
        return s.rate_limited + s.malformed + s.empty >= 100;
      },
      loop.now() + 5 * kSecond);
  // The burst allowance parses a few; the rest die at the bucket
  // without being decoded.
  EXPECT_GE(rx.guard().stats().rate_limited, 50u);
  EXPECT_LE(rx.guard().stats().malformed, 20u);
}

TEST(UdpLoopback, GuardRefusalMemoryBlocksUnknownConnCheaply) {
  EventLoop loop;

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(1024);
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpEndpointConfig hc;
  hc.bind = UdpAddress{0x7f000001, 0};
  hc.peer = rx.endpoint().local_addr();
  UdpEndpoint stranger(loop, hc);
  ASSERT_TRUE(stranger.ok());

  // Structurally VALID packets for a connection this receiver has
  // never heard of.
  auto foreign_packet = [] {
    Chunk c;
    c.h.type = ChunkType::kData;
    c.h.size = 4;
    c.h.len = 1;
    c.h.conn.id = 999;  // != kConn
    c.payload = {1, 2, 3, 4};
    return PacketBytes(
        encode_packet(std::span<const Chunk>(&c, 1), 1400));
  };

  for (int i = 0; i < 5; ++i) stranger.send(foreign_packet());
  loop.run_until(
      [&] {
        const auto& g = rx.guard().stats();
        return g.accepted + g.refused_conn >= 5;
      },
      loop.now() + 5 * kSecond);

  const auto& g = rx.guard().stats();
  // The first foreign packet is admitted (and teaches the refusal
  // memory); subsequent ones are refused at the door.
  EXPECT_GE(g.refused_conn, 1u);
  EXPECT_GE(g.refusals_remembered, 1u);
  EXPECT_TRUE(rx.guard().is_refused(999, loop.sim().now()));
  // The receiver itself never saw the refused packets.
  EXPECT_EQ(rx.receiver().stats().packets, 0u);
  EXPECT_EQ(rx.receiver().stats().foreign_chunks, 0u);
}

/// E15's bulk configuration: 4 KiB TPDUs, MTU 1400, credit flow
/// control with a 512 KiB receiver window.
SenderConfig bulk_sender_config() {
  SenderConfig sc = fast_sender_config();
  sc.framer.tpdu_elements = 1024;
  sc.framer.xpdu_elements = 256;
  sc.framer.max_chunk_elements = 256;
  sc.flow.enabled = true;
  sc.flow.initial_credit_bytes = 256 * 1024;
  sc.flow.initial_tpdu_slots = 64;
  return sc;
}

ReceiverConfig bulk_receiver_config(std::size_t stream_bytes) {
  ReceiverConfig rc = fast_receiver_config(stream_bytes);
  rc.grant_credit = true;
  rc.credit_window_bytes = 512 * 1024;
  rc.credit_tpdu_slots = 128;
  return rc;
}

TEST(UdpLoopback, BulkTransferIsPacedByCreditNotTheGuard) {
  EventLoop loop;
  const auto stream = pattern(16u << 20);

  UdpReceiverSessionConfig rcfg;  // default guard
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = bulk_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = bulk_sender_config();
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  tx.send_stream(stream);
  // Only the admitted window is framed; the rest waits for credit.
  EXPECT_LE(tx.sender().stats().tpdus_sent, 64u);
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 60 * kSecond));
  const DrainReport r = tx.drain(loop.now() + 10 * kSecond);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.tpdus_acked, stream.size() / 4096);
  EXPECT_EQ(rx.drain(loop.now() + kSecond), 0u);

  const auto got = rx.receiver().app_data();
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(), got.begin()));
  EXPECT_EQ(rx.guard().stats().rate_limited, 0u);
  EXPECT_GT(rx.guard().stats().earned_spent, 0u);
  EXPECT_EQ(rx.guard().stats().malformed, 0u);
}

/// Passes every call through, except that the clock jumps forward once
/// at its first reading after jump_on_next_read(): a synchronous stall
/// the loop never saw. It also records when each connected (sender)
/// sendmmsg happens, in its own clock.
class JumpingClock final : public SyscallShim {
 public:
  void jump_on_next_read(std::uint64_t by) { pending_ = by; }
  std::uint64_t jumped_at() const { return jumped_at_; }
  const std::vector<std::uint64_t>& sender_sends() const { return sends_; }

  std::uint64_t sys_monotonic_ns() override {
    const std::uint64_t real = SyscallShim::sys_monotonic_ns();
    if (pending_ != 0) {
      offset_ += pending_;
      pending_ = 0;
      jumped_at_ = real + offset_;
    }
    return real + offset_;
  }
  int sys_sendmmsg(int fd, mmsghdr* msgs, unsigned n, int flags) override {
    if (n > 0 && msgs[0].msg_hdr.msg_name == nullptr) {
      sends_.push_back(sys_monotonic_ns());
    }
    return SyscallShim::sys_sendmmsg(fd, msgs, n, flags);
  }

 private:
  std::uint64_t pending_{0};
  std::uint64_t offset_{0};
  std::uint64_t jumped_at_{0};
  std::vector<std::uint64_t> sends_;
};

TEST(UdpLoopback, StallInsideSendStreamFiresNoOverdueRto) {
  JumpingClock clock;
  EventLoopConfig lc;
  lc.sys = &clock;
  EventLoop loop(lc);
  const auto stream = pattern(32 * 1024);  // 32 TPDUs, all admitted at once

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(stream.size());
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  UdpSenderSessionConfig scfg;
  scfg.peer = rx.endpoint().local_addr();
  scfg.sender = fast_sender_config();  // 30 ms RTO, 30 retries
  UdpSenderSession tx(loop, scfg);
  ASSERT_TRUE(tx.ok());

  // 2 s is longer than the whole retry budget (31 x 30 ms): replaying
  // the stall deadline by deadline would give up on every TPDU.
  clock.jump_on_next_read(2 * kSecond);
  tx.send_stream(stream);
  const std::size_t first_sends = clock.sender_sends().size();
  ASSERT_GT(first_sends, 0u);
  ASSERT_NE(clock.jumped_at(), 0u);

  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 10 * kSecond));
  ASSERT_TRUE(tx.run_until_finished(loop.now() + 10 * kSecond));
  EXPECT_TRUE(tx.sender().all_acked());
  EXPECT_EQ(tx.sender().stats().gave_up, 0u);
  const auto got = rx.receiver().app_data();
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(), got.begin()));
  // Every resend (the sender sends nothing else after the call) left
  // at least one RTO after the datagrams were queued.
  for (std::size_t i = first_sends; i < clock.sender_sends().size(); ++i) {
    EXPECT_GE(clock.sender_sends()[i], clock.jumped_at() + 30 * kMillisecond)
        << "resend " << i - first_sends << " fired early";
  }
}

TEST(UdpLoopback, GuardBoundsASpoofedFloodByBasePlusGrantedTokens) {
  EventLoop loop;
  constexpr double kBurst = 16.0;
  constexpr double kRate = 10.0;
  constexpr std::size_t kTpdus = 4;
  constexpr std::size_t kTpduBytes = std::size_t{kTpduElems} * kElem;

  UdpReceiverSessionConfig rcfg;
  rcfg.bind = UdpAddress{0x7f000001, 0};
  rcfg.receiver = fast_receiver_config(kTpdus * kTpduBytes);
  rcfg.receiver.grant_credit = true;
  rcfg.receiver.credit_window_bytes = 8 * 1024;
  rcfg.guard.rate_per_sec = kRate;
  rcfg.guard.burst = kBurst;
  UdpReceiverSession rx(loop, rcfg);
  ASSERT_TRUE(rx.ok());

  // The peer: a plain socket that sends real TPDUs (so the receiver
  // grants it credit) and then floods from the same address, exactly
  // as a spoofer of that address would.
  UdpEndpointConfig pc;
  pc.bind = UdpAddress{0x7f000001, 0};
  pc.peer = rx.endpoint().local_addr();
  UdpEndpoint peer(loop, pc);
  ASSERT_TRUE(peer.ok());
  std::uint64_t granted = 0;
  peer.on_datagram([&](PooledBuffer&& buf, const UdpAddress&) {
    for (const Chunk& c : decode_packet(buf.bytes()).chunks) {
      if (c.h.type != ChunkType::kSignal) continue;
      if (const auto g = parse_credit_grant(c)) {
        granted = std::max(granted, g->credit_limit_bytes);
      }
    }
  });

  const SimTime t0 = loop.now();
  const auto stream = pattern(kTpdus * kTpduBytes);
  FramerOptions fo = fast_sender_config().framer;
  fo.max_chunk_elements = 0;
  for (StreamFramer framer(stream, fo); !framer.done();) {
    std::vector<Chunk> tpdu;
    framer.next_tpdu(tpdu);
    TpduInvariant inv;
    for (const Chunk& c : tpdu) inv.absorb(c);
    tpdu.push_back(make_ed_chunk(kConn, tpdu.front().h.tpdu.id,
                                 tpdu.front().h.conn.sn, inv.value()));
    peer.send(PacketBytes(encode_packet(tpdu, 1400)));
  }
  ASSERT_TRUE(rx.run_until_complete(stream.size() / kElem,
                                    loop.now() + 5 * kSecond));
  loop.run_until([&] { return granted > 0; }, loop.now() + kSecond);
  ASSERT_GT(granted, 0u);

  constexpr int kFlood = 400;
  for (int i = 0; i < kFlood; ++i) {
    PacketBytes junk;
    junk.resize_uninitialized(64);
    for (std::size_t j = 0; j < junk.size(); ++j) {
      junk.data()[j] = static_cast<std::uint8_t>(i + j);
    }
    peer.send(std::move(junk));
  }
  const auto& g = rx.guard().stats();
  auto screened = [&] {
    return g.accepted + g.rate_limited + g.malformed + g.empty +
           g.refused_conn;
  };
  loop.run_until([&] { return screened() >= kTpdus + kFlood; },
                 loop.now() + 5 * kSecond);
  const double seconds = static_cast<double>(loop.now() - t0) / 1e9;

  // Everything the guard let past its bucket — the real TPDUs and the
  // flood alike — was paid for by base tokens (burst plus refill) or by
  // tokens the receiver's own grants bought (one per max_datagram).
  const double granted_tokens =
      static_cast<double>(granted) /
      static_cast<double>(rcfg.endpoint.max_datagram);
  const std::uint64_t passed = screened() - g.rate_limited;
  EXPECT_LE(static_cast<double>(passed),
            kBurst + kRate * seconds + granted_tokens);
  EXPECT_GT(g.earned_spent, 0u);
  EXPECT_LE(static_cast<double>(g.earned_spent), granted_tokens);
  EXPECT_GT(g.rate_limited, 0u);
}

TEST(IngressGuardCredit, UngrantedSourcesEarnNothing) {
  IngressGuardConfig gc;
  gc.rate_per_sec = 1.0;
  gc.burst = 4.0;
  IngressGuard guard(gc);
  const PacketBytes junk(std::vector<std::uint8_t>(40, 0xEE));
  const UdpAddress granted{0x7f000001, 4000};
  const UdpAddress bystander{0x7f000001, 4001};
  const UdpAddress unseen{0x7f000001, 4002};
  std::vector<ChunkView> views;
  const SimTime now = kSecond;

  guard.screen(junk, granted, now, views);  // gives it a bucket
  guard.earn(granted, 100.0);
  guard.earn(unseen, 100.0);  // no bucket yet: earns nothing

  auto passed = [&](const UdpAddress& from) {
    int n = 0;
    for (int i = 0; i < 50; ++i) {
      if (guard.screen(junk, from, now, views) !=
          IngressGuard::Verdict::kRateLimited) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(passed(bystander), 4);  // its burst, nothing more
  EXPECT_EQ(passed(unseen), 4);
  EXPECT_EQ(guard.stats().earned_spent, 0u);
  // The granted source: 4 earned (capped at burst) + 3 base tokens left.
  EXPECT_EQ(passed(granted), 4 + 3);
  EXPECT_EQ(guard.stats().earned_spent, 4u);
}

TEST(IngressGuardCredit, EarnedTokensAreSpentFirstAndCappedAtBurst) {
  IngressGuardConfig gc;
  gc.rate_per_sec = 1.0;
  gc.burst = 8.0;
  IngressGuard guard(gc);
  const PacketBytes junk(std::vector<std::uint8_t>(40, 0xEE));
  const UdpAddress from{0x7f000001, 4000};
  std::vector<ChunkView> views;
  const SimTime now = kSecond;

  guard.screen(junk, from, now, views);  // one base token spent
  guard.earn(from, 3.0);
  guard.screen(junk, from, now, views);
  EXPECT_EQ(guard.stats().earned_spent, 1u);  // earned before base

  guard.earn(from, 1000.0);  // far past the cap
  int passed = 0;
  for (int i = 0; i < 100; ++i) {
    if (guard.screen(junk, from, now, views) !=
        IngressGuard::Verdict::kRateLimited) {
      ++passed;
    }
  }
  // 8 earned (the cap) plus the 7 base tokens still in the bucket.
  EXPECT_EQ(passed, 8 + 7);
  EXPECT_EQ(guard.stats().earned_spent, 1u + 8u);
}

}  // namespace
}  // namespace chunknet
