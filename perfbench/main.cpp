// The chunknet benchmark program: arguments, phases and the report.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--bulk-mib <n>]
//
// Workloads: loopback_bulk, loopback_short_flows, sim_multipath_reorder
// (or "all", which runs the three in turn). With --trace 0 the run
// measures every end-to-end metric with tracing off. With --trace 1 it
// runs the workload untraced for half the time and traced for the
// other half, reports the per-layer metrics of the traced half (and
// the CPU-per-byte ratio of the two halves as trace.overhead_ratio),
// and writes the traced half's spans as Chrome trace-event JSON.
//
// The report is human-readable; its last line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ledger.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string trace_out;
  std::size_t bulk_mib{64};
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<loopback_bulk|loopback_short_flows|sim_multipath_reorder|all>"
               " --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--bulk-mib <n>]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--bulk-mib") {
      a.bulk_mib = std::strtoull(v, nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         a.bulk_mib > 0;
}

using WorkloadFn = Phase (*)(const RunOptions&);

WorkloadFn find_workload(const std::string& name) {
  if (name == "loopback_bulk") return run_loopback_bulk;
  if (name == "loopback_short_flows") return run_loopback_short_flows;
  if (name == "sim_multipath_reorder") return run_sim_multipath_reorder;
  return nullptr;
}

/// Peak resident set of this program image, from VmHWM. getrusage's
/// ru_maxrss is not used: it survives exec, so it would report the
/// launching process's peak whenever that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;  // KiB -> MiB
}

bool phase_correct(const Phase& p) {
  return p.failed == 0 && p.mismatched_bytes == 0 && !p.replay_mismatch;
}

void print_metrics(const char* workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-22s %-40s %16.6g %s\n", workload, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Error rate and the latency sample: each percentile with its sample
/// count and the samples beyond it, plus the highest percentile that
/// has at least ten samples beyond it.
void print_outcomes(const char* workload, const Phase& p) {
  std::printf("%-22s %-40s %16.6g ratio  (failed %llu of %llu attempted)\n",
              workload, "error_rate",
              ratio(static_cast<double>(p.failed),
                    static_cast<double>(p.attempted)),
              static_cast<unsigned long long>(p.failed),
              static_cast<unsigned long long>(p.attempted));
  if (p.mismatched_bytes > 0) {
    std::printf("%-22s %llu bytes not bit-exact; first bad byte at stream "
                "offset %llu\n",
                workload, static_cast<unsigned long long>(p.mismatched_bytes),
                static_cast<unsigned long long>(p.first_bad_offset));
  }
  std::vector<double> rates;
  for (const Window& w : p.windows) {
    rates.push_back(ratio(static_cast<double>(w.app_bytes) / 1e6,
                          static_cast<double>(w.wall_ns) / 1e9));
  }
  std::sort(rates.begin(), rates.end());
  std::printf("%-22s windows %zu, goodput MB/s min %.6g q1 %.6g median %.6g "
              "q3 %.6g max %.6g\n",
              workload, rates.size(), percentile(rates, 0),
              percentile(rates, 25), percentile(rates, 50),
              percentile(rates, 75), percentile(rates, 100));
  const LogHistogram& lat = p.latency_us;
  const std::size_t n = lat.count();
  for (const double q : {50.0, 99.0}) {
    std::printf("%-22s latency p%-5g %16.6g us  (n=%zu, %zu beyond%s)\n",
                workload, q, lat.percentile(q), n, samples_beyond(n, q),
                samples_beyond(n, q) >= 10 ? "" : ", unsupported: <10 beyond");
  }
  if (const auto top = highest_supported_percentile(n)) {
    std::printf("%-22s latency p%-9.5g %12.6g us  (highest percentile with "
                ">=10 samples beyond)\n",
                workload, *top, lat.percentile(*top));
  }
}

void print_span_table(const char* workload, const SpanRecorder& r) {
  std::printf("%-22s %-22s %10s %14s %14s %12s\n", workload, "span", "count",
              "total_ms", "self_ms", "allocs");
  for (SpanRecorder::NameId i = 0; i < r.name_count(); ++i) {
    const auto& t = r.totals(i);
    if (t.count == 0) continue;
    std::printf("%-22s %-22s %10llu %14.3f %14.3f %12llu\n", workload,
                r.name(i).c_str(), static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6,
                static_cast<unsigned long long>(t.allocations));
  }
  std::printf("%-22s spans stored %zu, dropped past the cap %llu\n", workload,
              r.stored().size(), static_cast<unsigned long long>(r.dropped()));
}

struct Result {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
};

Result run_one(const std::string& name, WorkloadFn fn, const Args& a) {
  RunOptions o;
  o.seed = a.seed;
  o.bulk_bytes = a.bulk_mib << 20;
  // Warm-up outside the measurement: sockets, allocator and caches.
  if (name != "sim_multipath_reorder") {
    RunOptions w = o;
    w.seconds = 0.2;
    w.bulk_bytes = std::min<std::size_t>(o.bulk_bytes, 4u << 20);
    fn(w);
  }

  Result res;
  const char* wl = name.c_str();
  if (!a.trace) {
    o.seconds = a.seconds;
    const Phase p = fn(o);
    res.metrics = end_to_end_metrics(p, peak_rss_mb());
    print_metrics(wl, res.metrics);
    print_outcomes(wl, p);
    res.correct = phase_correct(p);
    res.attempted = p.attempted;
    res.failed = p.failed;
    return res;
  }

  o.seconds = a.seconds / 2;
  const Phase plain = fn(o);
  SpanRecorder rec;
  intern_standard_names(rec);
  set_active_spans(&rec);
  rec.open(span::kWorkload, mono_ns());
  Phase traced = fn(o);
  rec.close(mono_ns());
  set_active_spans(nullptr);
  fold_span_totals(traced, rec);

  const double overhead = ratio(traced.cpu_ns_per_byte(), plain.cpu_ns_per_byte());
  res.metrics = per_layer_metrics(traced, overhead);
  print_metrics(wl, res.metrics);
  print_outcomes(wl, traced);
  print_span_table(wl, rec);
  if (!a.trace_out.empty()) {
    std::string path = a.trace_out;
    if (a.workload == "all") path += "." + name + ".json";
    if (rec.write_chrome_json(path)) {
      std::printf("%-22s trace written to %s\n", wl, path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      res.correct = false;
    }
  }
  res.correct = res.correct && phase_correct(plain) && phase_correct(traced);
  res.attempted = plain.attempted + traced.attempted;
  res.failed = plain.failed + traced.failed;
  return res;
}

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage("bad arguments");

  std::vector<std::string> names;
  if (a.workload == "all") {
    names = {"loopback_bulk", "loopback_short_flows", "sim_multipath_reorder"};
  } else if (find_workload(a.workload) != nullptr) {
    names = {a.workload};
  } else {
    return usage("unknown workload");
  }

  Result total;
  for (const std::string& n : names) {
    Result r = run_one(n, find_workload(n), a);
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
    if (names.size() == 1) {
      total.metrics = std::move(r.metrics);
    } else {
      for (Metric& m : r.metrics) {
        m.name = n + "." + m.name;
        total.metrics.push_back(std::move(m));
      }
    }
  }
  std::fflush(stdout);
  print_json(total);
  return 0;
}
