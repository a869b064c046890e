#ifndef VC_OBS_METRICS_H_
#define VC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vc {

/// \brief Process-wide metrics: lock-cheap counters, gauges, and fixed-bucket
/// histograms.
///
/// Every subsystem on the streaming hot path (storage cache, network
/// simulator, session loop, predictors) reports through these so that cache
/// hits, stall events, quality downgrades, and predictor misses are visible
/// outside ad-hoc bench prints. Handles returned by the registry are valid for
/// the process lifetime; updates are wait-free on `std::atomic` cells, so
/// instrumentation is safe (and cheap) from concurrent sessions and thread
/// pool workers.

/// Monotonic event counter. Increments land in one of several cache-line-
/// padded shards chosen per thread, so concurrent writers do not contend;
/// `Value()` sums the shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// Each thread gets a stable shard assigned round-robin on first use.
  static unsigned ShardIndex();

  Shard shards_[kShards];
};

/// Last-value metric (e.g. an instantaneous goodput estimate).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-only copy of a histogram's state at snapshot time.
struct HistogramSnapshot {
  /// Upper bounds (inclusive) of the finite buckets; `counts` has one extra
  /// trailing overflow bucket for observations above the last bound.
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;  ///< Total observations.
  double sum = 0.0;    ///< Sum of observed values.

  double Mean() const { return count == 0 ? 0.0 : sum / count; }

  /// Upper bound of the bucket containing the `p`-quantile (p in [0, 1]).
  /// Observations in the overflow bucket report the last finite bound.
  double Percentile(double p) const;
};

/// Fixed-bucket histogram: an observation of value `v` lands in the first
/// bucket whose upper bound satisfies `v <= bound`, or in the trailing
/// overflow bucket. All updates are relaxed atomics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value) { Observe(value, 1); }
  /// Records `count` observations of the same `value` at the cost of one:
  /// one bucket, count and sum update each.
  void Observe(double value, uint64_t count);
  HistogramSnapshot Snapshot() const;
  void Reset();

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  const std::vector<double> bounds_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency buckets (seconds): ~1 µs to 30 s, roughly logarithmic.
const std::vector<double>& DefaultLatencyBuckets();

/// Everything the registry knew at one instant, keyed by metric name.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// \brief Name → metric registry.
///
/// `Global()` is the process-wide instance every subsystem reports to.
/// Get* registers on first use and afterwards returns the same handle, so
/// call sites can cache the pointer (e.g. in a function-local static).
/// Metric names follow `<subsystem>.<event>[_<unit>]`, e.g.
/// `storage.cell_reads`, `net.transfer_seconds`.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  static MetricRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` is only consulted when the histogram does not exist yet.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds =
                              DefaultLatencyBuckets());

  /// Copies every registered metric's current value.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric (registrations and handles stay valid).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace vc

#endif  // VC_OBS_METRICS_H_
