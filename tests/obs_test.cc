#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace vc {
namespace {

// Each test uses its own registry instance (not Global()) so tests do not
// see counters bumped by other suites in the same process.

TEST(CounterTest, AddAndReset) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsFromThreadPool) {
  Counter counter;
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 10'000;
  {
    ThreadPool pool(8);
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_TRUE(pool.Submit([&counter] {
        for (int j = 0; j < kAddsPerTask; ++j) counter.Add();
      }));
    }
    pool.WaitIdle();
  }
  EXPECT_EQ(counter.Value(), uint64_t{kTasks} * kAddsPerTask);
}

TEST(GaugeTest, SetAndReset) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(3.25);
  EXPECT_EQ(gauge.Value(), 3.25);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, BucketBoundariesAreUpperInclusive) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);   // bucket 0 (<= 1.0)
  histogram.Observe(1.0);   // bucket 0 (boundary is inclusive)
  histogram.Observe(1.001); // bucket 1
  histogram.Observe(4.0);   // bucket 2
  histogram.Observe(99.0);  // overflow bucket
  HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_NEAR(snapshot.sum, 0.5 + 1.0 + 1.001 + 4.0 + 99.0, 1e-12);
  EXPECT_NEAR(snapshot.Mean(), snapshot.sum / 5.0, 1e-12);
}

TEST(HistogramTest, PercentileReportsBucketBound) {
  Histogram histogram({1.0, 2.0, 4.0});
  for (int i = 0; i < 90; ++i) histogram.Observe(0.5);
  for (int i = 0; i < 10; ++i) histogram.Observe(3.0);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.Percentile(0.5), 1.0);
  EXPECT_EQ(snapshot.Percentile(0.95), 4.0);
  // Overflow observations clamp to the last finite bound.
  Histogram overflow({1.0});
  overflow.Observe(100.0);
  EXPECT_EQ(overflow.Snapshot().Percentile(1.0), 1.0);
}

TEST(HistogramTest, BulkObserveEqualsRepeatedObserve) {
  Histogram bulk({1.0, 2.0, 4.0});
  Histogram repeated({1.0, 2.0, 4.0});
  for (auto [value, count] : {std::pair{0.0, 7}, {1.5, 3}, {99.0, 2}}) {
    bulk.Observe(value, count);
    for (int i = 0; i < count; ++i) repeated.Observe(value);
  }
  bulk.Observe(3.0, 0);  // a zero count records nothing
  HistogramSnapshot a = bulk.Snapshot();
  HistogramSnapshot b = repeated.Snapshot();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count, 12u);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
}

TEST(RegistryTest, ReturnsStableHandles) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  Histogram* h1 = registry.GetHistogram("x.lat", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("x.lat", {9.0});  // bounds ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(RegistryTest, SnapshotAndResetSemantics) {
  MetricRegistry registry;
  registry.GetCounter("a.count")->Add(7);
  registry.GetGauge("a.gauge")->Set(2.5);
  registry.GetHistogram("a.lat", {1.0})->Observe(0.5);

  MetricsSnapshot before = registry.Snapshot();
  EXPECT_EQ(before.counters.at("a.count"), 7u);
  EXPECT_EQ(before.gauges.at("a.gauge"), 2.5);
  EXPECT_EQ(before.histograms.at("a.lat").count, 1u);

  registry.Reset();
  // Registrations (and handles) survive a reset; values drop to zero.
  MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counters.at("a.count"), 0u);
  EXPECT_EQ(after.gauges.at("a.gauge"), 0.0);
  EXPECT_EQ(after.histograms.at("a.lat").count, 0u);
  registry.GetCounter("a.count")->Add();
  EXPECT_EQ(registry.Snapshot().counters.at("a.count"), 1u);
}

TEST(RegistryTest, ConcurrentRegistrationAndUpdates) {
  MetricRegistry registry;
  {
    ThreadPool pool(8);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(pool.Submit([&registry, i] {
        registry.GetCounter("shared.count")->Add();
        registry.GetCounter("own." + std::to_string(i % 4))->Add();
        registry.GetHistogram("shared.lat")->Observe(1e-4);
      }));
    }
    pool.WaitIdle();
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("shared.count"), 64u);
  EXPECT_EQ(snapshot.histograms.at("shared.lat").count, 64u);
  uint64_t own_total = 0;
  for (int i = 0; i < 4; ++i) {
    own_total += snapshot.counters.at("own." + std::to_string(i));
  }
  EXPECT_EQ(own_total, 64u);
}

TEST(ScopedTimerTest, RecordsOneObservation) {
  Histogram histogram(DefaultLatencyBuckets());
  { ScopedTimer timer(&histogram); }
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1u);
  EXPECT_GE(snapshot.sum, 0.0);
  { ScopedTimer disabled(nullptr); }  // must not crash
}

TEST(ExportTest, JsonRoundTrip) {
  MetricRegistry registry;
  registry.GetCounter("net.transfers")->Add(12);
  registry.GetCounter("cache.hits")->Add(3);
  registry.GetGauge("net.goodput_bps")->Set(8.125e6);
  Histogram* lat = registry.GetHistogram("storage.read_seconds", {1e-3, 0.1});
  lat->Observe(5e-4);
  lat->Observe(0.05);
  lat->Observe(7.0);

  MetricsSnapshot original = registry.Snapshot();
  std::string json = MetricsToJson(original);
  auto parsed = MetricsFromJson(Slice(json));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->counters, original.counters);
  EXPECT_EQ(parsed->gauges, original.gauges);
  ASSERT_EQ(parsed->histograms.size(), original.histograms.size());
  const HistogramSnapshot& got = parsed->histograms.at("storage.read_seconds");
  const HistogramSnapshot& want =
      original.histograms.at("storage.read_seconds");
  EXPECT_EQ(got.bounds, want.bounds);
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
}

TEST(ExportTest, EmptySnapshotIsValidJson) {
  MetricsSnapshot empty;
  auto parsed = MetricsFromJson(Slice(MetricsToJson(empty)));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->empty());
}

TEST(ExportTest, RejectsMalformedJson) {
  EXPECT_FALSE(MetricsFromJson(Slice(std::string(""))).ok());
  EXPECT_FALSE(MetricsFromJson(Slice(std::string("{"))).ok());
  EXPECT_FALSE(MetricsFromJson(Slice(std::string("{\"bogus\": {}}"))).ok());
  EXPECT_FALSE(
      MetricsFromJson(Slice(std::string("{\"counters\": {}}x"))).ok());
  // Histogram with mismatched bucket arrays.
  std::string bad =
      "{\"histograms\": {\"h\": {\"bounds\": [1], \"counts\": [1], "
      "\"count\": 1, \"sum\": 1}}}";
  EXPECT_FALSE(MetricsFromJson(Slice(bad)).ok());
}

TEST(ExportTest, CsvHasHeaderAndRows) {
  MetricRegistry registry;
  registry.GetCounter("a.count")->Add(2);
  registry.GetGauge("b.gauge")->Set(1.5);
  registry.GetHistogram("c.lat", {1.0})->Observe(0.5);
  std::string csv = MetricsToCsv(registry.Snapshot());
  EXPECT_NE(csv.find("type,name,field,value\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,a.count,value,2\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b.gauge,value,1.5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c.lat,count,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c.lat,p95,"), std::string::npos);
}

TEST(ExportTest, GlobalRegistrySnapshotSerializes) {
  // The process-wide registry (whatever other tests populated) must always
  // serialize to parseable JSON.
  auto parsed =
      MetricsFromJson(Slice(MetricsToJson(MetricRegistry::Global().Snapshot())));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

}  // namespace
}  // namespace vc
