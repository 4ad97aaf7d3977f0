// EventLoop on real time: timers armed on the loop's wheel fire on
// CLOCK_MONOTONIC, the epoll sleep tracks the earliest deadline, and
// an interrupted epoll_wait is a retry, not an error.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include "src/io/event_loop.hpp"
#include "src/io/syscall.hpp"

namespace chunknet {
namespace {

TEST(IoLoop, TimerFiresOnRealTime) {
  EventLoop loop;
  ASSERT_TRUE(loop.sim().pending() == false);
  bool fired = false;
  SimTime fired_at = 0;
  loop.timers().arm_in(5 * kMillisecond, [&] {
    fired = true;
    fired_at = loop.sim().now();
  });
  ASSERT_TRUE(loop.run_until([&] { return fired; }, 500 * kMillisecond));
  // Fired no earlier than armed (modulo the wheel's 1 ms tick) and
  // well before the deadline.
  EXPECT_GE(fired_at, 4 * kMillisecond);
  EXPECT_LT(fired_at, 250 * kMillisecond);
}

TEST(IoLoop, SimClockTracksWallClock) {
  EventLoop loop;
  const SimTime a = loop.sim().now();
  loop.poll_once(2 * kMillisecond);
  loop.poll_once(2 * kMillisecond);
  const SimTime b = loop.sim().now();
  // Each pump moves sim time to wall time even with no events pending.
  EXPECT_GT(b, a);
  EXPECT_LE(b, loop.now());
}

TEST(IoLoop, TimerOrderingPreserved) {
  EventLoop loop;
  std::vector<int> order;
  loop.timers().arm_in(6 * kMillisecond, [&] { order.push_back(2); });
  loop.timers().arm_in(2 * kMillisecond, [&] { order.push_back(1); });
  loop.timers().arm_in(10 * kMillisecond, [&] { order.push_back(3); });
  ASSERT_TRUE(
      loop.run_until([&] { return order.size() == 3; }, kSecond));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(IoLoop, PipeReadinessDispatches) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string got;
  ASSERT_TRUE(loop.add_fd(fds[0], EPOLLIN, [&](std::uint32_t ev) {
    if ((ev & EPOLLIN) != 0) {
      char buf[16];
      const ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n > 0) got.append(buf, static_cast<std::size_t>(n));
    }
  }));
  ASSERT_EQ(write(fds[1], "ping", 4), 4);
  ASSERT_TRUE(loop.run_until([&] { return !got.empty(); }, kSecond));
  EXPECT_EQ(got, "ping");
  EXPECT_GE(loop.stats().fd_events, 1u);
  loop.del_fd(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

TEST(IoLoop, EpollWaitEintrIsRetriedAndCounted) {
  FaultInjectingSyscalls faulty(real_syscalls());
  faulty.fail_next(IoCall::kEpollWait, EINTR, 3);
  EventLoopConfig cfg;
  cfg.sys = &faulty;
  EventLoop loop(cfg);
  bool fired = false;
  loop.timers().arm_in(2 * kMillisecond, [&] { fired = true; });
  ASSERT_TRUE(loop.run_until([&] { return fired; }, kSecond));
  EXPECT_EQ(loop.stats().eintr_retries, 3u);
  EXPECT_EQ(faulty.pending(), 0u);
}

TEST(IoLoop, RunUntilHonoursDeadline) {
  EventLoop loop;
  const SimTime start = loop.now();
  EXPECT_FALSE(
      loop.run_until([] { return false; }, start + 10 * kMillisecond));
  EXPECT_GE(loop.now(), start + 10 * kMillisecond);
  // And does not massively overshoot a short deadline.
  EXPECT_LT(loop.now(), start + kSecond);
}

TEST(IoLoop, StopBreaksTheLoop) {
  EventLoop loop;
  loop.timers().arm_in(2 * kMillisecond, [&] { loop.stop(); });
  EXPECT_FALSE(loop.run_until([] { return false; }, 10 * kSecond));
  EXPECT_TRUE(loop.stopped());
}

}  // namespace
}  // namespace chunknet
