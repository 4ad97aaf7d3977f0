// Golden registry snapshots. Three fixed chaos runs — a lossy
// re-enveloping relay path, an overloaded governor run with connection
// churn, and a sprayed multipath run with a path kill — must export
// exactly the counters and gauges checked in under tests/golden/: the
// same names with the same values. The files pin what every
// instrumented component publishes, so a change to how the registry
// collects its numbers cannot silently change the numbers.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/chaos/harness.hpp"
#include "src/chaos/scenario.hpp"
#include "src/obs/json.hpp"

namespace chunknet {
namespace {

ChaosScenario lossy_relay_scenario() {
  ChaosScenario sc;
  sc.seed = 1301;
  sc.mode = DeliveryMode::kReassemble;
  sc.stream_elements = 16384;
  sc.adaptive_rto = true;
  sc.selective_retransmit = true;
  sc.gap_nak_delay = 2 * kMillisecond;
  sc.fault_mean_loss = 0.05;
  sc.payload_flip_rate = 0.01;
  sc.ack_loss_rate = 0.05;
  sc.hops.resize(3);
  sc.hops[0].loss_rate = 0.03;
  sc.hops[0].lanes = 4;
  sc.hops[0].lane_skew = 200 * kMicrosecond;
  sc.hops[1].relay = ChaosRelayKind::kRepack;
  sc.hops[1].mtu = 576;
  sc.hops[1].loss_rate = 0.02;
  sc.hops[1].dup_rate = 0.02;
  sc.hops[2].relay = ChaosRelayKind::kReassembleRelay;
  sc.hops[2].mtu = 1000;
  return sc;
}

ChaosScenario overload_churn_scenario() {
  ChaosScenario sc;
  sc.seed = 1302;
  sc.mode = DeliveryMode::kReassemble;
  sc.stream_elements = 8192;
  sc.connections = 4;
  sc.offered_load = 2.0;
  sc.tpdu_elements = 2048;
  sc.governor_budget = 24 * 1024;
  sc.flow_control = false;
  sc.churn_connections = 24;
  sc.churn_interval = 2 * kMillisecond;
  sc.hops[0].loss_rate = 0.03;
  sc.hops[0].lanes = 4;
  sc.hops[0].lane_skew = 300 * kMicrosecond;
  return sc;
}

ChaosScenario multipath_scenario() {
  ChaosScenario sc;
  sc.seed = 1303;
  sc.mode = DeliveryMode::kReorder;
  sc.stream_elements = 16384;
  sc.hops[0].rate_bps = 12e6;
  sc.mp_paths = 3;
  sc.mp_mode = 0;
  sc.mp_skew = 1500 * kMicrosecond;
  sc.mp_loss = 0.05;
  sc.mp_kill_at = 30 * kMillisecond;
  sc.mp_kill_path = 1;
  sc.mp_revive_at = 120 * kMillisecond;
  sc.max_retransmits = 16;
  return sc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Compares one section ("counters" or "gauges") name by name and
/// value by value, reporting every difference.
void expect_section_equal(const JsonValue& want, const JsonValue& got,
                          const char* section) {
  const JsonValue* w = want.find(section);
  const JsonValue* g = got.find(section);
  ASSERT_NE(w, nullptr) << section;
  ASSERT_NE(g, nullptr) << section;
  for (const auto& [name, value] : w->obj) {
    const JsonValue* have = g->find(name);
    if (have == nullptr) {
      ADD_FAILURE() << section << " " << name << " missing from the run";
      continue;
    }
    EXPECT_EQ(have->number, value.number) << section << " " << name;
  }
  for (const auto& [name, value] : g->obj) {
    EXPECT_NE(w->find(name), nullptr)
        << section << " " << name << " = " << value.number
        << " is not in the golden file";
  }
}

void expect_matches_golden(const ChaosScenario& sc, const char* file) {
  ChaosCapture cap;
  const ChaosResult res = run_chaos(sc, &cap);
  EXPECT_TRUE(res.ok) << (res.failures.empty() ? "" : res.failures[0]);

  const std::string path =
      std::string(CHUNKNET_SOURCE_DIR) + "/tests/golden/" + file;
  const auto want = parse_json(read_file(path));
  ASSERT_TRUE(want.has_value()) << "cannot read " << path;
  const auto got = parse_json(cap.metrics_json);
  ASSERT_TRUE(got.has_value());
  expect_section_equal(*want, *got, "counters");
  expect_section_equal(*want, *got, "gauges");
}

TEST(ObsGolden, LossyRelayRunMatchesSnapshot) {
  expect_matches_golden(lossy_relay_scenario(), "obs_lossy_relay.json");
}

TEST(ObsGolden, OverloadChurnRunMatchesSnapshot) {
  const ChaosScenario sc = overload_churn_scenario();
  ASSERT_TRUE(sc.overloaded());
  expect_matches_golden(sc, "obs_overload_churn.json");
}

TEST(ObsGolden, MultipathRunMatchesSnapshot) {
  const ChaosScenario sc = multipath_scenario();
  ASSERT_TRUE(sc.multipath());
  expect_matches_golden(sc, "obs_multipath.json");
}

}  // namespace
}  // namespace chunknet
