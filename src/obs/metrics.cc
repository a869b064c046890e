#include "obs/metrics.h"

#include <algorithm>

namespace vc {

unsigned Counter::ShardIndex() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0 || bounds.empty()) return 0.0;
  p = std::min(std::max(p, 0.0), 1.0);
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count - 1));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative > rank) {
      return i < bounds.size() ? bounds[i] : bounds.back();
    }
  }
  return bounds.back();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_.reserve(bounds_.size() + 1);
  for (size_t i = 0; i < bounds_.size() + 1; ++i) {
    counts_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
}

void Histogram::Observe(double value, uint64_t count) {
  if (count == 0) return;
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  size_t bucket = static_cast<size_t>(it - bounds_.begin());
  counts_[bucket]->fetch_add(count, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(value * static_cast<double>(count),
                 std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.reserve(counts_.size());
  for (const auto& cell : counts_) {
    snapshot.counts.push_back(cell->load(std::memory_order_relaxed));
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

void Histogram::Reset() {
  for (auto& cell : counts_) cell->store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& DefaultLatencyBuckets() {
  static const std::vector<double> buckets = {
      1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
      5e-3, 1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,  2.0,  5.0,  10.0,
      30.0};
  return buckets;
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  return snapshot;
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace vc
