#include "storage/cell_source.h"

#include <chrono>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "storage/shard_map.h"
#include "storage/storage_manager.h"

namespace vc {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration elapsed) {
  return std::chrono::duration<double>(elapsed).count();
}

/// The storage.* read metrics.
struct ReadMetrics {
  Counter* cell_reads =
      MetricRegistry::Global().GetCounter("storage.cell_reads");
  Counter* cell_read_bytes =
      MetricRegistry::Global().GetCounter("storage.cell_read_bytes");
  Histogram* read_seconds =
      MetricRegistry::Global().GetHistogram("storage.read_seconds");
  Histogram* demand_miss_seconds =
      MetricRegistry::Global().GetHistogram("storage.demand_miss_seconds");
};

const ReadMetrics& Metrics() {
  static const ReadMetrics metrics;
  return metrics;
}

/// One demand read the cache pass did not resolve in place.
struct PendingRead {
  LruCache::AsyncHandle handle;
  double dispatch_seconds = 0.0;  ///< Includes a synchronous inline load.
};

/// Waits on `pending` in order and records a pass's metrics: one 0 s
/// observation per hit, and per pending read its dispatch plus its wait.
/// The waits run back to back, so one clock read closes a wait and opens
/// the next. Returns the first error in order (hits cannot fail).
Status FinishPass(const LruCache::BatchHits& hits,
                  std::span<const PendingRead> pending) {
  uint64_t bytes = hits.bytes;
  Status first_error = Status::OK();
  Clock::time_point waited;
  if (!pending.empty()) waited = Clock::now();
  for (const PendingRead& read : pending) {
    Result<LruCache::Value> value = read.handle.Wait();
    const Clock::time_point now = Clock::now();
    const double seconds = read.dispatch_seconds + Seconds(now - waited);
    waited = now;
    Metrics().read_seconds->Observe(seconds);
    if (!read.handle.hit()) Metrics().demand_miss_seconds->Observe(seconds);
    if (value.ok()) {
      bytes += (*value)->size();
    } else if (first_error.ok()) {
      first_error = value.status();
    }
  }
  Metrics().read_seconds->Observe(0.0, hits.count);
  Metrics().cell_reads->Add(hits.count + pending.size());
  Metrics().cell_read_bytes->Add(bytes);
  return first_error;
}

}  // namespace

TieredCellSource::TieredCellSource(size_t l1_capacity_bytes, LruCache* l2,
                                   std::vector<StorageManager*> backends,
                                   const ShardMap* shard_map)
    : tiers_(l1_capacity_bytes, l2),
      backends_(std::move(backends)),
      shard_map_(shard_map) {}

LruCache::AsyncHandle TieredCellSource::Dispatch(const VideoMetadata& metadata,
                                                 CellKey cell,
                                                 PackedCellKey key,
                                                 LoadKind kind) {
  StorageManager* backend = shard_map_ == nullptr
                                ? backends_[0]
                                : backends_[shard_map_->ShardFor(key)];
  // The loader (path string, owning captures) is built only on a miss
  // that becomes the key's loader.
  return tiers_.GetOrComputeAsync(
      key, [&] { return backend->CellLoader(metadata, cell); },
      backend->io_pool(), kind);
}

Result<LruCache::Value> TieredCellSource::ReadCell(
    const VideoMetadata& metadata, int segment, int tile, int quality) {
  const CellKey cell{segment, tile, quality};
  if (!cell.InRange(metadata)) {
    return Status::InvalidArgument("cell coordinates out of range");
  }
  const Clock::time_point start = Clock::now();
  LruCache::AsyncHandle handle =
      Dispatch(metadata, cell, cell.Packed(metadata), LoadKind::kDemand);
  const PendingRead read{std::move(handle), Seconds(Clock::now() - start)};
  VC_RETURN_IF_ERROR(FinishPass({}, {&read, 1}));
  return read.handle.Wait();
}

Result<LruCache::AsyncHandle> TieredCellSource::ReadCellAsync(
    const VideoMetadata& metadata, int segment, int tile, int quality,
    LoadKind kind) {
  const CellKey cell{segment, tile, quality};
  if (!cell.InRange(metadata)) {
    return Status::InvalidArgument("cell coordinates out of range");
  }
  if (kind == LoadKind::kDemand) Metrics().cell_reads->Add();
  return Dispatch(metadata, cell, cell.Packed(metadata), kind);
}

Status TieredCellSource::ReadPlannedCells(
    const VideoMetadata& metadata, int segment,
    const std::vector<int>& tile_qualities) {
  if (static_cast<int>(tile_qualities.size()) != metadata.tile_count()) {
    return Status::InvalidArgument("one quality per tile required");
  }
  bool in_range = segment >= 0 && segment < metadata.segment_count();
  for (int quality : tile_qualities) {
    in_range = in_range && quality >= 0 && quality < metadata.quality_count();
  }
  if (!in_range) {
    return Status::InvalidArgument("cell coordinates out of range");
  }
  // Keys are packed before the pass, so nothing but the table walk runs
  // under the L1 lock. With I/O pools the cold tiles overlap; without them
  // they load inline, in tile order.
  std::vector<PackedCellKey> keys(tile_qualities.size());
  for (size_t tile = 0; tile < keys.size(); ++tile) {
    keys[tile] = CellKey{segment, static_cast<int>(tile), tile_qualities[tile]}
                     .Packed(metadata);
  }
  std::vector<PendingRead> pending;
  // A miss that directly follows another (no hit between them) starts its
  // dispatch where that one ended: the pass spent the time between on this
  // cell alone, so a run of misses costs one clock read per cell.
  Clock::time_point dispatched;
  size_t next_tile = keys.size();  // No miss yet.
  LruCache::BatchHits hits = tiers_.ReadBatch(keys, [&](size_t i) {
    if (i != next_tile) dispatched = Clock::now();
    const CellKey cell{segment, static_cast<int>(i), tile_qualities[i]};
    LruCache::AsyncHandle handle =
        Dispatch(metadata, cell, keys[i], LoadKind::kDemand);
    const Clock::time_point now = Clock::now();
    pending.push_back({std::move(handle), Seconds(now - dispatched)});
    dispatched = now;
    next_tile = i + 1;
  });
  return FinishPass(hits, pending);
}

}  // namespace vc
