// A timing and counting SyscallShim decorator, installed through
// EventLoopConfig::sys in traced runs.
//
// Every call is forwarded to the inner shim with its arguments
// untouched; the decorator only reads the clock around the call, counts
// calls, datagrams and bytes, and opens a span on the active recorder.
// Return values and errno pass through unchanged (the decorator saves
// errno right after the inner call and restores it before returning),
// so a traced run measures the same program an untraced one runs.
#pragma once

#include <cstdint>

#include "spans.hpp"
#include "src/io/syscall.hpp"

namespace perfbench {

class TimingSyscalls final : public chunknet::SyscallShim {
 public:
  explicit TimingSyscalls(chunknet::SyscallShim& inner) : inner_(inner) {}

  struct Call {
    std::uint64_t calls{0};
    std::uint64_t datagrams{0};  ///< recvmmsg/sendmmsg: messages moved
    std::uint64_t bytes{0};      ///< recvmmsg/sendmmsg: msg_len summed
    std::uint64_t ns{0};
  };
  struct Stats {
    Call sendmmsg;
    Call recvmmsg;
    Call epoll_wait;
    /// socket/bind/connect/getsockname/setsockopt/epoll_create1.
    Call socket_setup;
    Call epoll_ctl;
    Call close;
  };
  const Stats& stats() const { return stats_; }

  int sys_socket(int domain, int type, int protocol) override;
  int sys_bind(int fd, const sockaddr* addr, socklen_t len) override;
  int sys_connect(int fd, const sockaddr* addr, socklen_t len) override;
  int sys_getsockname(int fd, sockaddr* addr, socklen_t* len) override;
  int sys_setsockopt(int fd, int level, int optname, const void* optval,
                     socklen_t optlen) override;
  int sys_close(int fd) override;
  int sys_epoll_create1(int flags) override;
  int sys_epoll_ctl(int epfd, int op, int fd, epoll_event* ev) override;
  int sys_epoll_wait(int epfd, epoll_event* evs, int maxevents,
                     int timeout_ms) override;
  int sys_recvmmsg(int fd, mmsghdr* msgs, unsigned n, int flags) override;
  int sys_sendmmsg(int fd, mmsghdr* msgs, unsigned n, int flags) override;
  std::uint64_t sys_monotonic_ns() override {
    return inner_.sys_monotonic_ns();
  }

 private:
  chunknet::SyscallShim& inner_;
  Stats stats_;
};

}  // namespace perfbench
