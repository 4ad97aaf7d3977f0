// Tests for the metrics registry: counter/gauge/histogram semantics,
// shard-combine correctness under real threads, JSON round-trip, and
// the parallel pipeline's counters agreeing with its return value.
#include "src/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/common/buffer_pool.hpp"
#include "src/common/rng.hpp"
#include "src/obs/json.hpp"
#include "src/obs/obs.hpp"
#include "src/pipeline/parallel.hpp"
#include "src/reassembly/virtual_reassembly.hpp"

namespace chunknet {
namespace {

TEST(ObsCounter, AddsAndCombines) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(c.name(), "x");
}

TEST(ObsCounter, SameNameSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &reg.counter("y"));
}

TEST(ObsCounter, FindWithoutCreating) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  reg.counter("present").add(3);
  ASSERT_NE(reg.find_counter("present"), nullptr);
  EXPECT_EQ(reg.find_counter("present")->value(), 3u);
}

TEST(ObsGauge, AddSetValue) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("held");
  g.add(100);
  g.add(-30);
  EXPECT_EQ(g.value(), 70);
  g.set(5);
  EXPECT_EQ(g.value(), 5);
  g.set(-17);
  EXPECT_EQ(g.value(), -17);
}

TEST(ObsHistogram, CountSumMeanMinMax) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
  h.observe(2e6);
  h.observe_n(4e6, 3);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 14e6);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5e6);
  EXPECT_DOUBLE_EQ(h.min_seen(), 2e6);
  EXPECT_DOUBLE_EQ(h.max_seen(), 4e6);
}

TEST(ObsHistogram, PercentileBracketsTrueQuantile) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  // 100 samples spread over a decade; the bucket resolution is 0.5%,
  // so each estimate must land within 0.5% of the empirical value.
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back(1e6 + 9e6 * i / 100.0);
  }
  for (double s : samples) h.observe(s);
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0}) {
    const double exact =
        samples[static_cast<std::size_t>(p / 100.0 * 100.0) - 1];
    EXPECT_NEAR(h.percentile(p), exact, exact * 0.006)
        << "at percentile " << p;
  }
  // Clamping: p100 is exactly the max, p0 no lower than the min.
  EXPECT_DOUBLE_EQ(h.percentile(100), samples.back());
  EXPECT_GE(h.percentile(0), samples.front() * 0.995);
}

TEST(ObsHistogram, IdenticalSamplesIdenticalQuantiles) {
  MetricsRegistry reg;
  Histogram& a = reg.histogram("a");
  Histogram& b = reg.histogram("b");
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(1e3 + static_cast<double>(rng.below(100000000)));
  }
  for (double s : samples) a.observe(s);
  // b sees the same multiset in a different order.
  for (std::size_t i = samples.size(); i-- > 0;) b.observe(samples[i]);
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), b.percentile(p));
  }
}

TEST(ObsShards, ConcurrentAddsEqualSerial) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(2);
        g.add(t % 2 == 0 ? 3 : -1);
        h.observe(1e6);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread * 2);
  EXPECT_EQ(g.value(), kThreads / 2 * kPerThread * 3 -
                           kThreads / 2 * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * kPerThread * 1e6);
}

TEST(ObsJson, MetricsRoundTrip) {
  MetricsRegistry reg;
  reg.counter("pkts").add(123);
  reg.gauge("held").set(-7);
  Histogram& h = reg.histogram("lat");
  h.observe_n(5e6, 10);

  const std::string json = metrics_to_json(reg);
  const auto doc = parse_json(json);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->u64_or("pkts"), 123u);
  const JsonValue* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->num_or("held"), -7.0);
  const JsonValue* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* lat = hists->find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->u64_or("count"), 10u);
  EXPECT_DOUBLE_EQ(lat->num_or("sum"), 5e7);
  EXPECT_DOUBLE_EQ(lat->num_or("min"), 5e6);
  EXPECT_DOUBLE_EQ(lat->num_or("max"), 5e6);
  // Non-zero buckets serialize as [bound, count] pairs covering all
  // observations.
  const JsonValue* buckets = lat->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->kind, JsonValue::Kind::kArray);
  std::uint64_t total = 0;
  for (const auto& b : buckets->arr) {
    ASSERT_EQ(b.arr.size(), 2u);
    total += static_cast<std::uint64_t>(b.arr[1].number);
  }
  EXPECT_EQ(total, 10u);
}

TEST(ObsJson, ParserRejectsGarbage) {
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("{\"a\": }").has_value());
  EXPECT_FALSE(parse_json("[1, 2,]").has_value());
  EXPECT_FALSE(parse_json("{} trailing").has_value());
  EXPECT_TRUE(parse_json(" {\"a\": [1, -2.5e3, \"s\\n\", true, null]} ")
                  .has_value());
}

std::vector<Chunk> make_chunks(std::size_t bytes) {
  Rng rng(42);
  std::vector<std::uint8_t> stream(bytes);
  for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());
  FramerOptions fo;
  fo.connection_id = 5;
  fo.element_size = 4;
  fo.tpdu_elements = static_cast<std::uint32_t>(bytes / 4);
  fo.xpdu_elements = 512;
  fo.max_chunk_elements = 64;
  return frame_stream(stream, fo);
}

class ObsParallelThreads : public ::testing::TestWithParam<int> {};

TEST_P(ObsParallelThreads, CountersMatchReturnValue) {
  const std::size_t kBytes = 128 * 1024;
  const auto chunks = make_chunks(kBytes);
  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};
  std::vector<std::uint8_t> app(kBytes, 0);
  const auto r =
      process_chunks_parallel(chunks, app, 0, GetParam(), &obs);
  ASSERT_NE(reg.find_counter("parallel.bytes_placed"), nullptr);
  EXPECT_EQ(reg.find_counter("parallel.bytes_placed")->value(),
            r.bytes_placed);
  EXPECT_EQ(r.bytes_placed, kBytes);
  EXPECT_EQ(reg.find_counter("parallel.chunks_processed")->value(),
            chunks.size());
}

INSTANTIATE_TEST_SUITE_P(Threads, ObsParallelThreads,
                         ::testing::Values(1, 2, 8));

TEST(ObsParallel, NullObsStillWorks) {
  const auto chunks = make_chunks(4096);
  std::vector<std::uint8_t> app(4096, 0);
  const auto r = process_chunks_parallel(chunks, app, 0, 4, nullptr);
  EXPECT_EQ(r.bytes_placed, 4096u);
}

// Components the chaos snapshots never reach: their registry counters
// equal their Stats, and keep the value once the component is gone.
TEST(ObsBinding, PoolTrimmedCounterEqualsStats) {
  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};
  auto pool = std::make_unique<PacketBufferPool>(64, 2);
  pool->attach_obs(&obs);
  std::vector<PooledBuffer> held;
  for (int i = 0; i < 4; ++i) held.push_back(pool->acquire());
  held.clear();  // two retained, two trimmed over the cap
  pool->trim(0);
  const std::uint64_t trimmed = pool->stats().trimmed;
  EXPECT_EQ(trimmed, 4u);
  const Counter* c = reg.find_counter("pool.trimmed_buffers");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), trimmed);
  pool.reset();
  EXPECT_EQ(c->value(), trimmed);
}

TEST(ObsBinding, VirtualReassemblyCountersEqualStats) {
  MetricsRegistry reg;
  ObsContext obs{&reg, nullptr};
  auto vr = std::make_unique<VirtualReassembler>();
  vr->set_obs(&obs);
  const PduKey key{1, 1};
  EXPECT_EQ(vr->add(key, 0, 4, false), PieceVerdict::kAccept);
  EXPECT_EQ(vr->add(key, 4, 4, true), PieceVerdict::kAccept);
  EXPECT_EQ(vr->add(key, 0, 4, false), PieceVerdict::kDuplicate);
  EXPECT_EQ(vr->add(key, 8, 4, false), PieceVerdict::kAfterStop);
  const PduKey open{1, 2};
  EXPECT_EQ(vr->add(open, 0, 4, false), PieceVerdict::kAccept);
  EXPECT_EQ(vr->add(open, 2, 4, false), PieceVerdict::kOverlap);

  using S = VirtualReassembler::Stats;
  const std::vector<std::pair<const char*, std::uint64_t S::*>> fields = {
      {"vreass.pieces_accepted", &S::pieces_accepted},
      {"vreass.duplicates_rejected", &S::duplicates_rejected},
      {"vreass.overlaps_rejected", &S::overlaps_rejected},
      {"vreass.framing_errors", &S::framing_errors},
  };
  std::vector<std::uint64_t> want;
  for (const auto& [name, field] : fields) {
    const Counter* c = reg.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    want.push_back(vr->stats().*field);
    EXPECT_GT(want.back(), 0u) << name;
    EXPECT_EQ(c->value(), want.back()) << name;
  }
  vr.reset();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(reg.find_counter(fields[i].first)->value(), want[i])
        << fields[i].first;
  }
}

}  // namespace
}  // namespace chunknet
