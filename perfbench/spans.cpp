#include "spans.hpp"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

namespace {
std::uint64_t g_allocations = 0;
SpanRecorder* g_active = nullptr;
}  // namespace

std::uint64_t cpu_time_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::uint64_t allocation_count() { return g_allocations; }

void note_allocation() {
  ++g_allocations;
  if (g_active != nullptr) g_active->on_allocation();
}

SpanRecorder* active_spans() { return g_active; }
void set_active_spans(SpanRecorder* r) { g_active = r; }

SpanRecorder::SpanRecorder(std::size_t max_stored) : max_stored_(max_stored) {
  // Reserved up front so open() does not reallocate (and so count its
  // own allocations against the span it opens) while nesting is shallow.
  stack_.reserve(64);
  names_.reserve(span::kCount + 8);
  totals_.reserve(span::kCount + 8);
}

SpanRecorder::NameId SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<NameId>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

void SpanRecorder::open(NameId name, std::uint64_t t_ns) {
  std::int32_t idx = -1;
  if (stored_.size() < max_stored_) {
    Stored s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back().stored_index;
    s.flow = flow_;
    s.start_ns = t_ns;
    s.end_ns = t_ns;
    idx = static_cast<std::int32_t>(stored_.size());
    stored_.push_back(s);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, idx, t_ns, 0});
}

void SpanRecorder::close(std::uint64_t t_ns) {
  if (stack_.empty()) return;
  const Open o = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t_ns > o.start_ns ? t_ns - o.start_ns : 0;
  Totals& t = totals_[o.name];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.stored_index >= 0) {
    stored_[static_cast<std::size_t>(o.stored_index)].end_ns = t_ns;
  }
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 = stored_.empty() ? 0 : stored_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < stored_.size(); ++i) {
    const Stored& s = stored_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"flow\":%llu}}\n",
                 i == 0 ? "" : ",", names_[s.name].c_str(),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<int>(s.parent),
                 static_cast<unsigned long long>(s.flow));
  }
  std::fprintf(f, "],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

namespace span {
const char* name(SpanRecorder::NameId id) {
  static const char* const kNames[kCount] = {
      "workload",           "flow",          "session.setup",
      "transport.send_stream", "poll_once",  "io.epoll_wait",
      "io.recvmmsg",        "io.sendmmsg",   "io.socket_setup",
      "io.epoll_ctl",       "io.close",      "netsim.run",
      "chunk.relay",        "chunk.decode",  "transport.rx",
      "transport.feedback",
  };
  return id < kCount ? kNames[id] : "?";
}
}  // namespace span

void intern_standard_names(SpanRecorder& r) {
  for (SpanRecorder::NameId i = 0; i < span::kCount; ++i) r.intern(span::name(i));
}

}  // namespace perfbench
