#include "src/netsim/simulator.hpp"

#include <utility>

namespace chunknet {

void Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_) t = now_;  // never schedule into the past
  events_.push(Event{t, ++seq_counter_, std::move(fn)});
}

std::uint64_t Simulator::run(SimTime deadline) {
  std::uint64_t executed = 0;
  while (!events_.empty()) {
    // priority_queue::top returns const&; the function object must be
    // moved out before pop, so copy the POD parts first.
    const Event& top = events_.top();
    if (top.t > deadline) break;
    now_ = top.t;
    auto fn = std::move(const_cast<Event&>(top).fn);
    events_.pop();
    fn();
    ++executed;
  }
  return executed;
}

std::uint64_t Simulator::catch_up(SimTime t) {
  advance_to(t);
  std::uint64_t executed = 0;
  while (!events_.empty() && events_.top().t <= now_) {
    auto fn = std::move(const_cast<Event&>(events_.top()).fn);
    events_.pop();
    fn();
    ++executed;
  }
  return executed;
}

}  // namespace chunknet
