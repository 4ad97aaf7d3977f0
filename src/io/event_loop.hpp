// The real-I/O event loop: epoll + the hierarchical timer wheel on
// CLOCK_MONOTONIC.
//
// This is the runtime that moves chunknet off the discrete-event
// simulator and onto real sockets. The trick that keeps the whole
// transport stack (sender, receiver, demux, governor — all written
// against `Simulator&`) reusable unchanged is that the loop OWNS a
// Simulator and pumps it with real time: SimTime is nanoseconds since
// the loop started, read from CLOCK_MONOTONIC through the syscall
// shim, and each poll iteration runs every simulator event whose
// deadline has passed. A deadline armed on the loop's SimTimerWheel
// (RTO, gap-NAK, idle, reconnect backoff) therefore fires on real
// time, and the epoll timeout is computed from the earliest pending
// deadline so the loop sleeps exactly as long as it may.
//
// Single-threaded by design: every callback (fd readiness, timer,
// datagram delivery) runs on the thread inside run()/poll_once(). The
// transport stack's single-writer assumptions carry over intact.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/flat_map.hpp"
#include "src/common/timer_wheel.hpp"
#include "src/io/syscall.hpp"
#include "src/netsim/simulator.hpp"
#include "src/obs/obs.hpp"

namespace chunknet {

struct EventLoopConfig {
  /// Syscall seam; null = the process-wide real shim.
  SyscallShim* sys{nullptr};
  /// Timer wheel tick. 1 ms matches the transport's deadline scale.
  SimTime timer_tick{1 * kMillisecond};
  /// Upper bound on one epoll sleep, so a loop with no armed deadline
  /// still re-checks stop flags and drains stray work.
  SimTime max_poll{50 * kMillisecond};
  /// Observability (optional). Metric names are prefixed "io.loop.".
  ObsContext* obs{nullptr};
};

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t epoll_events)>;

  explicit EventLoop(EventLoopConfig cfg = {});
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Nanoseconds since the loop was constructed (CLOCK_MONOTONIC).
  SimTime now() const;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...). One callback
  /// per fd; re-adding an existing fd replaces events and callback.
  bool add_fd(int fd, std::uint32_t events, FdCallback cb);
  bool mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);

  /// The clock-and-deadline plumbing shared with the transport stack.
  Simulator& sim() { return sim_; }
  SimTimerWheel& timers() { return timers_; }
  SyscallShim& sys() { return *sys_; }

  /// Moves the simulator clock toward wall time between pumps, without
  /// running anything: it stops short of the earliest pending event, so
  /// every deadline still fires from a pump. What a long synchronous
  /// call queues is then stamped with the time it was queued.
  void sync_clock();

  /// One poll iteration: fire due timers, sleep at most until the next
  /// deadline (capped by `max_wait` and cfg.max_poll), dispatch fd
  /// events, fire timers that came due meanwhile. Returns the number
  /// of fd events dispatched.
  int poll_once(SimTime max_wait);

  /// Pumps until `done()` returns true or `deadline` (loop time)
  /// passes. Returns done()'s final value — false means timeout.
  bool run_until(const std::function<bool()>& done, SimTime deadline);

  /// Makes run_until return at the next iteration (callable from
  /// within a callback).
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  struct Stats {
    std::uint64_t polls{0};
    std::uint64_t fd_events{0};
    std::uint64_t timer_fires{0};   ///< simulator events executed
    std::uint64_t eintr_retries{0}; ///< epoll_wait interrupted, retried
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Moves the simulator clock to wall time and runs every event due
  /// by then (which advances the wheel).
  void pump_timers();

  SyscallShim* sys_;
  EventLoopConfig cfg_;
  Simulator sim_;
  SimTimerWheel timers_;
  std::uint64_t epoch_ns_{0};
  int epfd_{-1};
  bool stopped_{false};
  FlatMap<int, FdCallback> fds_;
  std::vector<epoll_event> event_buf_;
  Stats stats_;
  StatsBinding stats_binding_;  ///< after stats_: publishes eintr_retries
};

}  // namespace chunknet
