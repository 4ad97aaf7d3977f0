// A UDP socket on the event loop, with batched I/O and explicit
// handling for every way the kernel says no.
//
// TX is a bounded queue flushed with sendmmsg(2); RX drains with
// recvmmsg(2) into pool-backed buffers that flow zero-copy into
// decode_packet_views. The design rule, inherited from the rest of
// chunknet: NO SILENT DROPS. Every datagram that does not reach the
// wire (or the application) is counted under a reason —
//
//   errno / event        behavior                         metric
//   ------------------   ------------------------------   -------------------------
//   EINTR                retry the call                   io.eintr_retries
//   EAGAIN (tx)          re-arm EPOLLOUT, keep queue      io.tx_eagain
//   ENOBUFS              backpressure: keep queue, back   io.tx_enobufs,
//                        off, surface via governor +      io.tx_backpressure (gauge)
//                        on_backpressure
//   EMSGSIZE             drop THAT datagram, continue     io.tx_oversize_dropped
//   ECONNREFUSED         peer gone: bounded exponential   io.peer_unreachable,
//                        backoff + reconnect, notify      io.reconnects
//   partial sendmmsg     resume from the unsent tail      io.tx_partial_batches
//   queue overflow       drop newest, count               io.tx_queue_dropped
//   MSG_TRUNC (rx)       drop truncated datagram          io.rx_truncated_dropped
//
// Backpressure is governor-visible: queued TX bytes are charged to the
// ResourceGovernor (class kStaging), so a receiver granting credit out
// of governor headroom automatically shrinks its grants while the
// socket is refusing buffers — ENOBUFS becomes credit shaping instead
// of loss.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/buffer_pool.hpp"
#include "src/common/resource_governor.hpp"
#include "src/io/event_loop.hpp"
#include "src/obs/obs.hpp"

namespace chunknet {

/// An IPv4/UDP peer address (the runtime is loopback/v4 for now; the
/// sockaddr plumbing is confined to udp_endpoint.cpp).
struct UdpAddress {
  std::uint32_t ip_host_order{0x7f000001};  ///< 127.0.0.1
  std::uint16_t port{0};

  /// Key for per-source tables (rate limiting, peer identity).
  std::uint64_t key() const {
    return (static_cast<std::uint64_t>(ip_host_order) << 16) | port;
  }
  friend bool operator==(const UdpAddress&, const UdpAddress&) = default;
};

struct UdpEndpointConfig {
  /// Local bind address. port 0 = ephemeral (read back via local_addr()).
  UdpAddress bind{};
  /// When set, the socket is connect(2)ed: sends default to this peer
  /// and the kernel reports ICMP unreachable as ECONNREFUSED — the
  /// peer-restart signal.
  std::optional<UdpAddress> peer;
  /// Largest datagram accepted in either direction. TX larger is an
  /// oversize drop; RX larger arrives MSG_TRUNC and is dropped.
  std::size_t max_datagram{1500};
  unsigned rx_batch{16};
  unsigned tx_batch{16};
  /// Datagrams recvmmsg'd in one poll before yielding (fairness with
  /// timers under flood).
  unsigned max_rx_per_poll{256};
  /// TX queue cap in datagrams; an enqueue past it drops the NEWEST
  /// datagram (counted — the transport's RTO recovers it).
  std::size_t max_tx_queue{4096};
  /// ENOBUFS backoff before retrying the flush.
  SimTime enobufs_backoff{1 * kMillisecond};
  /// ECONNREFUSED reconnect backoff: doubles from min to max, resets
  /// on any successful receive or full flush.
  SimTime reconnect_backoff_min{10 * kMillisecond};
  SimTime reconnect_backoff_max{2 * kSecond};
  /// SO_RCVBUF / SO_SNDBUF requests (0 = kernel default).
  int so_rcvbuf{1 << 20};
  int so_sndbuf{1 << 20};
  /// Pool for RX buffers; null = endpoint-owned private pool.
  PacketBufferPool* pool{nullptr};
  /// Queued TX bytes are charged here (class kStaging) when set.
  ResourceGovernor* governor{nullptr};
  std::uint32_t governor_client{0};
  ObsContext* obs{nullptr};
};

class UdpEndpoint {
 public:
  /// One received datagram: `bytes` sized to the payload, pool-backed
  /// (take() it to keep zero-copy ownership; pool recycling closes the
  /// loop), `from` the source address.
  using DatagramCallback =
      std::function<void(PooledBuffer&& bytes, const UdpAddress& from)>;

  UdpEndpoint(EventLoop& loop, UdpEndpointConfig cfg);
  ~UdpEndpoint();

  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  /// False when socket/bind/connect failed; last_error() says why.
  bool ok() const { return fd_ >= 0; }
  int last_error() const { return last_errno_; }
  UdpAddress local_addr() const { return local_; }

  void on_datagram(DatagramCallback cb) { on_datagram_ = std::move(cb); }
  /// Fired on ECONNREFUSED (peer closed its socket / process died).
  void on_peer_unreachable(std::function<void()> cb) {
    on_peer_unreachable_ = std::move(cb);
  }
  /// Fired when backpressure starts (true) and fully drains (false).
  void on_backpressure(std::function<void(bool)> cb) {
    on_backpressure_ = std::move(cb);
  }

  /// Queues one datagram to the connected peer (cfg.peer must be set).
  void send(PacketBytes bytes);
  /// Queues one datagram to an explicit destination.
  void send_to(PacketBytes bytes, const UdpAddress& dest);
  /// Attempts to flush the TX queue now (also runs on EPOLLOUT and
  /// backoff timers).
  void flush();

  std::size_t tx_queued() const { return txq_.size(); }
  std::uint64_t tx_queued_bytes() const { return txq_bytes_; }
  bool backpressured() const { return backpressure_; }

  /// Graceful teardown: stops RX immediately, tries to flush the TX
  /// queue until `deadline` (loop time), then closes. Datagrams still
  /// queued at the deadline are dropped TRUTHFULLY (counted in
  /// stats().tx_queue_dropped and returned). Safe to call twice.
  std::uint64_t shutdown(SimTime deadline);

  struct Stats {
    std::uint64_t datagrams_sent{0};
    std::uint64_t bytes_sent{0};
    std::uint64_t datagrams_received{0};
    std::uint64_t bytes_received{0};
    std::uint64_t sendmmsg_calls{0};
    std::uint64_t recvmmsg_calls{0};
    std::uint64_t eintr_retries{0};
    std::uint64_t tx_eagain{0};
    std::uint64_t tx_enobufs{0};
    std::uint64_t tx_partial_batches{0};
    std::uint64_t tx_oversize_dropped{0};
    std::uint64_t tx_queue_dropped{0};
    std::uint64_t rx_truncated_dropped{0};
    std::uint64_t peer_unreachable{0};
    std::uint64_t reconnects{0};
    std::uint64_t backpressure_episodes{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  struct TxDatagram {
    PacketBytes bytes;
    UdpAddress dest;     ///< ignored when connected
    bool explicit_dest{false};
  };

  void enqueue(TxDatagram d);
  void handle_readable();
  /// One recvmmsg batch. Returns datagrams delivered, -1 on EAGAIN.
  int rx_batch_once();
  void drop_tx_head(std::uint64_t& counter);
  void enter_backpressure();
  void leave_backpressure();
  void handle_conn_refused();
  void arm_flush_in(SimTime delay);
  void charge_tx(std::uint64_t bytes);
  void release_tx(std::uint64_t bytes);
  void update_epollout();

  EventLoop& loop_;
  UdpEndpointConfig cfg_;
  SyscallShim& sys_;
  int fd_{-1};
  int last_errno_{0};
  UdpAddress local_{};
  PacketBufferPool own_pool_;
  PacketBufferPool* pool_{nullptr};
  DatagramCallback on_datagram_;
  std::function<void()> on_peer_unreachable_;
  std::function<void(bool)> on_backpressure_;

  // sendmmsg/recvmmsg scratch, sized to tx_batch/rx_batch once, so a
  // syscall allocates nothing.
  std::vector<mmsghdr> tx_msgs_;
  std::vector<iovec> tx_iovs_;
  std::vector<sockaddr_in> tx_dests_;
  std::vector<mmsghdr> rx_msgs_;
  std::vector<iovec> rx_iovs_;
  std::vector<sockaddr_in> rx_srcs_;
  std::vector<PooledBuffer> rx_bufs_;  ///< empty between batches

  std::deque<TxDatagram> txq_;
  std::uint64_t txq_bytes_{0};
  bool epollout_armed_{false};
  bool backpressure_{false};
  bool flush_timer_armed_{false};
  SimTime reconnect_backoff_{0};
  bool closed_{false};

  Stats stats_;
  StatsBinding stats_binding_;  ///< after stats_: publishes its fields
  struct ObsHandles {
    Gauge* tx_backpressure{nullptr};
    Gauge* tx_queued_bytes{nullptr};
  } m_;
};

}  // namespace chunknet
