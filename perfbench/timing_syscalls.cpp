#include "timing_syscalls.hpp"

#include <errno.h>

namespace perfbench {

namespace {

/// Times one forwarded call into `c`, under a span named `name`, and
/// hands the result and the call's errno back untouched.
template <typename F>
int timed(TimingSyscalls::Call& c, SpanRecorder::NameId name, F&& call) {
  SpanRecorder* r = active_spans();
  const std::uint64_t t0 = mono_ns();
  if (r != nullptr) r->open(name, t0);
  const int rc = call();
  const int saved_errno = errno;
  const std::uint64_t t1 = mono_ns();
  if (r != nullptr) r->close(t1);
  ++c.calls;
  c.ns += t1 - t0;
  errno = saved_errno;
  return rc;
}

void count_messages(TimingSyscalls::Call& c, const mmsghdr* msgs, int rc) {
  if (rc <= 0) return;
  c.datagrams += static_cast<std::uint64_t>(rc);
  for (int i = 0; i < rc; ++i) c.bytes += msgs[i].msg_len;
}

}  // namespace

int TimingSyscalls::sys_socket(int domain, int type, int protocol) {
  return timed(stats_.socket_setup, span::kSocketSetup,
               [&] { return inner_.sys_socket(domain, type, protocol); });
}

int TimingSyscalls::sys_bind(int fd, const sockaddr* addr, socklen_t len) {
  return timed(stats_.socket_setup, span::kSocketSetup,
               [&] { return inner_.sys_bind(fd, addr, len); });
}

int TimingSyscalls::sys_connect(int fd, const sockaddr* addr,
                                socklen_t len) {
  return timed(stats_.socket_setup, span::kSocketSetup,
               [&] { return inner_.sys_connect(fd, addr, len); });
}

int TimingSyscalls::sys_getsockname(int fd, sockaddr* addr, socklen_t* len) {
  return timed(stats_.socket_setup, span::kSocketSetup,
               [&] { return inner_.sys_getsockname(fd, addr, len); });
}

int TimingSyscalls::sys_setsockopt(int fd, int level, int optname,
                                   const void* optval, socklen_t optlen) {
  return timed(stats_.socket_setup, span::kSocketSetup, [&] {
    return inner_.sys_setsockopt(fd, level, optname, optval, optlen);
  });
}

int TimingSyscalls::sys_close(int fd) {
  return timed(stats_.close, span::kClose,
               [&] { return inner_.sys_close(fd); });
}

int TimingSyscalls::sys_epoll_create1(int flags) {
  return timed(stats_.socket_setup, span::kSocketSetup,
               [&] { return inner_.sys_epoll_create1(flags); });
}

int TimingSyscalls::sys_epoll_ctl(int epfd, int op, int fd, epoll_event* ev) {
  return timed(stats_.epoll_ctl, span::kEpollCtl,
               [&] { return inner_.sys_epoll_ctl(epfd, op, fd, ev); });
}

int TimingSyscalls::sys_epoll_wait(int epfd, epoll_event* evs, int maxevents,
                                   int timeout_ms) {
  return timed(stats_.epoll_wait, span::kEpollWait, [&] {
    return inner_.sys_epoll_wait(epfd, evs, maxevents, timeout_ms);
  });
}

int TimingSyscalls::sys_recvmmsg(int fd, mmsghdr* msgs, unsigned n,
                                 int flags) {
  const int rc = timed(stats_.recvmmsg, span::kRecvmmsg, [&] {
    return inner_.sys_recvmmsg(fd, msgs, n, flags);
  });
  count_messages(stats_.recvmmsg, msgs, rc);
  return rc;
}

int TimingSyscalls::sys_sendmmsg(int fd, mmsghdr* msgs, unsigned n,
                                 int flags) {
  const int rc = timed(stats_.sendmmsg, span::kSendmmsg, [&] {
    return inner_.sys_sendmmsg(fd, msgs, n, flags);
  });
  count_messages(stats_.sendmmsg, msgs, rc);
  return rc;
}

}  // namespace perfbench
