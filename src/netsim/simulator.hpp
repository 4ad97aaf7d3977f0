// Discrete-event network simulator core.
//
// This is the substitute for the paper's AURORA testbed (DESIGN.md §4):
// a deterministic event-driven simulation whose links reproduce the
// disordering processes the paper describes — loss-induced gaps (§1),
// multipath skew across parallel lanes ("obtaining gigabit rates on a
// SONET OC-3 ATM network requires using eight 155 Mbps ATM connections
// in parallel"), route changes, and duplication. All randomness comes
// from one seeded Rng, so experiments replay exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/aligned.hpp"

namespace chunknet {

/// Simulated time in nanoseconds.
using SimTime = std::uint64_t;

inline constexpr SimTime kMicrosecond = 1'000;
inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;

/// A packet in flight: opaque bytes plus bookkeeping for latency traces.
/// The bytes are PacketBytes (64-byte aligned) so pooled buffers travel
/// through the simulator without losing their alignment guarantee.
struct SimPacket {
  PacketBytes bytes;
  std::uint64_t id{0};         ///< unique per simulator (trace key)
  SimTime created_at{0};       ///< first transmission time
  int hops{0};                 ///< links traversed so far
};

/// Minimal event-driven scheduler: stable FIFO order among events at
/// the same timestamp.
class Simulator {
 public:
  SimTime now() const { return now_; }

  void schedule_at(SimTime t, std::function<void()> fn);
  void schedule_in(SimTime delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs until the event queue drains or `deadline` passes.
  /// Returns the number of events executed.
  std::uint64_t run(SimTime deadline = ~SimTime{0});

  /// The real-time pump: moves the clock to `t` (never backwards), then
  /// runs every event due by then AT that time. A pump whose thread
  /// stalled fires each overdue deadline once, at the current time,
  /// instead of replaying the stall event by event at stale timestamps
  /// (a re-armed RTO would otherwise fire again and again inside one
  /// pump and spend its whole retry budget without reading an ACK).
  /// Returns the number of events executed.
  std::uint64_t catch_up(SimTime t);

  /// True if any event remains.
  bool pending() const { return !events_.empty(); }

  /// Timestamp of the earliest pending event (the wake-up bound a
  /// real-time pump needs to turn into an epoll timeout). Meaningless
  /// when nothing is pending — check pending() first.
  SimTime next_event_at() const {
    return events_.empty() ? ~SimTime{0} : events_.top().t;
  }

  /// Advances the clock without executing anything, so schedule_in /
  /// arm_in callers see fresh time between pumps. Call only with no
  /// event pending at or before `t`; never moves backwards.
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }

  std::uint64_t next_packet_id() { return ++packet_counter_; }

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  SimTime now_{0};
  std::uint64_t seq_counter_{0};
  std::uint64_t packet_counter_{0};
  std::priority_queue<Event, std::vector<Event>, Later> events_;
};

/// Anything that can receive packets from a link.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_packet(SimPacket pkt) = 0;
};

}  // namespace chunknet
