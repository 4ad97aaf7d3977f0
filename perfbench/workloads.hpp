// The benchmark's three workloads. Each runs flows back to back until
// `seconds` of wall time have passed (finishing the flow in progress)
// and returns what it counted. When tracing is on (an active span
// recorder is set), loopback workloads also install the timing syscall
// decorator and record poll_once spans.
#pragma once

#include <cstdint>

#include "ledger.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed{1};
  double seconds{10};
  /// Bytes per loopback_bulk transfer.
  std::size_t bulk_bytes{64u << 20};
};

/// One credit-closed 4 KiB-TPDU stream per transfer over 127.0.0.1.
Phase run_loopback_bulk(const RunOptions& o);
/// Closed loop of fresh session pairs, one 64 B..16 KiB message each.
Phase run_loopback_short_flows(const RunOptions& o);
/// Seeded connections, each over 4 skewed lossy paths, a re-enveloping
/// router and a reverse feedback link, in the discrete-event simulator.
/// Every one of the 1,024 connections runs at least once, however short
/// `seconds` is.
Phase run_sim_multipath_reorder(const RunOptions& o);

}  // namespace perfbench
