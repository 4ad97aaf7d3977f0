#include "src/io/event_loop.hpp"

#include <errno.h>

#include <algorithm>

namespace chunknet {

EventLoop::EventLoop(EventLoopConfig cfg)
    : sys_(cfg.sys != nullptr ? cfg.sys : &real_syscalls()),
      cfg_(cfg),
      timers_(sim_, TimerWheel::Config{cfg.timer_tick}) {
  epoch_ns_ = sys_->sys_monotonic_ns();
  // EPOLL_CLOEXEC: the udp_transfer example forks helpers; leaked epoll
  // fds across exec would pin the loop alive in the child.
  epfd_ = sys_->sys_epoll_create1(EPOLL_CLOEXEC);
  event_buf_.resize(64);
  stats_binding_.bind(metrics_of(cfg_.obs), "io.loop.eintr_retries",
                      stats_.eintr_retries);
}

EventLoop::~EventLoop() {
  if (epfd_ >= 0) sys_->sys_close(epfd_);
}

SimTime EventLoop::now() const {
  return sys_->sys_monotonic_ns() - epoch_ns_;
}

bool EventLoop::add_fd(int fd, std::uint32_t events, FdCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  const bool known = fds_.contains(fd);
  const int op = known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (sys_->sys_epoll_ctl(epfd_, op, fd, &ev) != 0) return false;
  fds_.insert_or_assign(fd, std::move(cb));
  return true;
}

bool EventLoop::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return sys_->sys_epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::del_fd(int fd) {
  if (!fds_.erase(fd)) return;
  epoll_event ev{};  // non-null for pre-2.6.9 kernels, per epoll_ctl(2)
  sys_->sys_epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
}

void EventLoop::pump_timers() {
  // Even with nothing due, the transport reads sim().now() for stamps
  // and arm_in() offsets, so the clock moves to wall time first and
  // overdue deadlines fire there.
  stats_.timer_fires += sim_.catch_up(now());
}

void EventLoop::sync_clock() {
  SimTime t = now();
  if (sim_.pending()) {
    t = std::min(t, std::max<SimTime>(sim_.next_event_at(), 1) - 1);
  }
  sim_.advance_to(t);
}

int EventLoop::poll_once(SimTime max_wait) {
  ++stats_.polls;
  pump_timers();

  // Sleep until the earliest pending deadline, the caller's cap, or
  // the loop default — whichever is soonest. Milliseconds, rounded UP
  // so a deadline 0.4 ms out does not busy-spin at timeout 0.
  SimTime wait = std::min(max_wait, cfg_.max_poll);
  if (sim_.pending()) {
    const SimTime t = now();
    const SimTime next = sim_.next_event_at();
    wait = std::min(wait, next > t ? next - t : 0);
  }
  const int timeout_ms =
      static_cast<int>((wait + kMillisecond - 1) / kMillisecond);

  int n = sys_->sys_epoll_wait(epfd_, event_buf_.data(),
                               static_cast<int>(event_buf_.size()),
                               timeout_ms);
  if (n < 0) {
    if (errno == EINTR) {
      // A signal is not an error: count it and let the caller's loop
      // re-enter with deadlines intact.
      ++stats_.eintr_retries;
      n = 0;
    } else {
      n = 0;  // hard epoll failure: surfaces via stats_.polls stalling
    }
  }
  for (int i = 0; i < n; ++i) {
    const int fd = event_buf_[static_cast<std::size_t>(i)].data.fd;
    const std::uint32_t ev = event_buf_[static_cast<std::size_t>(i)].events;
    // Re-find per event: a callback may del_fd a sibling.
    if (FdCallback* cb = fds_.find(fd); cb != nullptr && *cb) {
      ++stats_.fd_events;
      (*cb)(ev);
    }
  }
  pump_timers();
  return n;
}

bool EventLoop::run_until(const std::function<bool()>& done,
                          SimTime deadline) {
  stopped_ = false;
  while (!stopped_) {
    if (done()) return true;
    const SimTime t = now();
    if (t >= deadline) break;
    poll_once(deadline - t);
  }
  return done();
}

}  // namespace chunknet
