// Chunk transport over a real UDP socket: the glue that runs
// ChunkTransportSender / ChunkTransportReceiver — written against the
// discrete-event Simulator — on an EventLoop and a UdpEndpoint.
//
// A session owns the endpoint, wires the transport's send_packet /
// send_control callbacks into the endpoint's TX queue, and feeds
// received datagrams back in: the receiver side screens them through
// an IngressGuard first (rate limit, strict decode, refusal memory)
// and then hands each ChunkView straight to on_chunk_view — the
// zero-copy ingest path, with the pooled buffer held alive across the
// views that point into it. Every CreditGrant that raises the granted
// limit earns the sender's address guard tokens for the new bytes (one
// per max_datagram), so credit, not the guard's base rate, paces an
// admitted connection.
//
// Shutdown is truthful: drain() flushes what it can until a deadline
// and then reports exactly what was abandoned — TPDUs the sender gave
// up on (by RTO exhaustion or by the drain itself) and datagrams that
// never reached the wire. Nothing is silently discarded.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "src/io/event_loop.hpp"
#include "src/io/ingress_guard.hpp"
#include "src/io/udp_endpoint.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"

namespace chunknet {

/// What a graceful drain actually delivered — the session's exit
/// receipt. `clean` iff every TPDU was positively acked and no queued
/// datagram was thrown away.
struct DrainReport {
  std::uint64_t tpdus_acked{0};
  std::uint64_t tpdus_gave_up{0};      ///< RTO exhaustion before drain
  std::uint64_t tpdus_abandoned{0};    ///< still outstanding at deadline
  std::uint64_t datagrams_unsent{0};   ///< TX queue dropped at close
  bool clean{false};
};

struct UdpSenderSessionConfig {
  /// Where the receiver listens. Required.
  UdpAddress peer{};
  /// Local bind (default: ephemeral loopback).
  UdpAddress bind{};
  /// Transport configuration. send_packet, timers and the simulator
  /// are provided by the session; everything else is the caller's.
  SenderConfig sender{};
  /// Endpoint tuning (peer/bind/obs are overwritten by the session).
  UdpEndpointConfig endpoint{};
  ObsContext* obs{nullptr};
};

class UdpSenderSession {
 public:
  UdpSenderSession(EventLoop& loop, UdpSenderSessionConfig cfg);

  bool ok() const { return endpoint_->ok(); }
  UdpEndpoint& endpoint() { return *endpoint_; }
  ChunkTransportSender& sender() { return *sender_; }

  void send_stream(std::span<const std::uint8_t> stream) {
    sender_->send_stream(stream);
  }

  /// Pumps the loop until every TPDU is resolved (acked or given up)
  /// AND the TX queue is empty, or `deadline` (loop time) passes.
  bool run_until_finished(SimTime deadline);

  /// Graceful shutdown with truthful accounting: pump until finished
  /// or `deadline`, abandon whatever is still outstanding, flush/close
  /// the socket, and report exactly what happened.
  DrainReport drain(SimTime deadline);

 private:
  EventLoop& loop_;
  std::unique_ptr<UdpEndpoint> endpoint_;
  std::unique_ptr<ChunkTransportSender> sender_;
  PacketBufferPool feedback_pool_;
};

struct UdpReceiverSessionConfig {
  /// Where to listen. Required (a receiver with an ephemeral port is
  /// fine for tests; read it back via endpoint().local_addr()).
  UdpAddress bind{};
  /// Transport configuration. send_control, timers and the simulator
  /// are provided by the session.
  ReceiverConfig receiver{};
  UdpEndpointConfig endpoint{};
  IngressGuardConfig guard{};
  ObsContext* obs{nullptr};
};

class UdpReceiverSession {
 public:
  UdpReceiverSession(EventLoop& loop, UdpReceiverSessionConfig cfg);

  bool ok() const { return endpoint_->ok(); }
  UdpEndpoint& endpoint() { return *endpoint_; }
  ChunkTransportReceiver& receiver() { return *receiver_; }
  IngressGuard& guard() { return *guard_; }

  /// Pumps the loop until the stream covers `total_elements` or
  /// `deadline` passes.
  bool run_until_complete(std::uint64_t total_elements, SimTime deadline);

  /// Flushes pending control traffic (ACKs in the TX queue) until
  /// `deadline`, then closes. Returns datagrams abandoned unsent.
  std::uint64_t drain(SimTime deadline);

 private:
  void handle_datagram(PooledBuffer&& buf, const UdpAddress& from);
  /// A control chunk on its way to reply_to_: a grant that raises the
  /// limit earns that address guard tokens for the newly granted bytes.
  void earn_for_grant(const Chunk& ctrl);

  EventLoop& loop_;
  UdpReceiverSessionConfig cfg_;
  std::unique_ptr<UdpEndpoint> endpoint_;
  std::unique_ptr<IngressGuard> guard_;
  std::unique_ptr<ChunkTransportReceiver> receiver_;
  PacketBufferPool rx_pool_;
  std::vector<ChunkView> view_scratch_;
  /// Control replies go to the source of the last admitted datagram —
  /// which survives a SENDER restart from a new ephemeral port.
  std::optional<UdpAddress> reply_to_;
  std::uint64_t granted_limit_{0};  ///< highest credit limit granted
};

}  // namespace chunknet
