// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed around calls into each layer, from the
// benchmark's own code only (the syscall decorator, the poll-iteration
// predicate, the simulator's sink and relay shims). The recorder keeps
// two things:
//
//  - per-name totals, aggregated online for EVERY span: count, total
//    time, self time (duration minus the time covered by its child
//    spans) and the allocations made while the span was innermost;
//  - the first `max_stored` spans verbatim (name, start, end, parent,
//    flow id), written as Chrome trace-event JSON when the run ends.
//
// Single-threaded, like the event loop it measures. Spans nest
// strictly, so a parent's covered time is the sum of its children.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process user+sys CPU time so far.
std::uint64_t cpu_time_ns();

/// Allocations counted by the benchmark binary's replacement operator
/// new (0 in binaries that do not replace it).
std::uint64_t allocation_count();
/// Called by the replacement operator new.
void note_allocation();

class SpanRecorder {
 public:
  using NameId = std::uint16_t;

  struct Totals {
    std::uint64_t count{0};
    std::uint64_t total_ns{0};
    std::uint64_t self_ns{0};
    std::uint64_t allocations{0};
  };

  struct Stored {
    NameId name{0};
    std::int32_t parent{-1};  ///< index into stored(), -1 = root
    std::uint64_t flow{0};
    std::uint64_t start_ns{0};
    std::uint64_t end_ns{0};
  };

  explicit SpanRecorder(std::size_t max_stored = 200'000);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Returns the id for `name`, registering it on first use.
  NameId intern(std::string_view name);
  const std::string& name(NameId id) const { return names_[id]; }
  std::size_t name_count() const { return names_.size(); }

  /// Spans opened from now on carry this flow/transfer id.
  void set_flow(std::uint64_t flow) { flow_ = flow; }

  void open(NameId name, std::uint64_t t_ns);
  /// Closes the innermost open span. No-op when none is open.
  void close(std::uint64_t t_ns);
  std::size_t depth() const { return stack_.size(); }

  /// Charges one allocation to the innermost open span.
  void on_allocation() {
    if (!stack_.empty()) ++totals_[stack_.back().name].allocations;
  }

  const Totals& totals(NameId id) const { return totals_[id]; }

  const std::vector<Stored>& stored() const { return stored_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes the stored spans as Chrome trace-event JSON ("X" events,
  /// microsecond timestamps relative to the first span), which
  /// Perfetto and chrome://tracing open. Returns false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Open {
    NameId name;
    std::int32_t stored_index;  ///< -1 when past the storage cap
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  std::size_t max_stored_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Stored> stored_;
  std::uint64_t dropped_{0};
  std::uint64_t flow_{0};
};

/// The recorder the seams report to; null when tracing is off, so an
/// untraced run pays one pointer test per seam.
SpanRecorder* active_spans();
void set_active_spans(SpanRecorder* r);

/// RAII span on the active recorder (no-op when tracing is off).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanRecorder::NameId name) : r_(active_spans()) {
    if (r_ != nullptr) r_->open(name, mono_ns());
  }
  ~ScopedSpan() {
    if (r_ != nullptr) r_->close(mono_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* r_;
};

/// Span names every workload uses, interned once per recorder in this
/// order so ids are compile-time constants.
namespace span {
enum : SpanRecorder::NameId {
  kWorkload = 0,
  kFlow,
  kSessionSetup,
  kSendStream,
  kPollOnce,
  kEpollWait,
  kRecvmmsg,
  kSendmmsg,
  kSocketSetup,
  kEpollCtl,
  kClose,
  kNetsimRun,
  kChunkRelay,
  kChunkDecode,
  kTransportRx,
  kTransportFeedback,
  kCount,
};
const char* name(SpanRecorder::NameId id);
}  // namespace span

/// A recorder with every span::* name pre-interned.
void intern_standard_names(SpanRecorder& r);

}  // namespace perfbench
