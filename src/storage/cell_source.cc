#include "storage/cell_source.h"

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace vc {

Status PlannedCellRead::Plan(const VideoMetadata& metadata, int segment,
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
  keys_.resize(tile_qualities.size());
  for (size_t tile = 0; tile < keys_.size(); ++tile) {
    keys_[tile] = CellKey{segment, static_cast<int>(tile), tile_qualities[tile]}
                      .Packed(metadata);
  }
  return Status::OK();
}

Status PlannedCellRead::Finish(const LruCache::BatchHits& hits) {
  static Counter* cell_reads =
      MetricRegistry::Global().GetCounter("storage.cell_reads");
  static Counter* cell_read_bytes =
      MetricRegistry::Global().GetCounter("storage.cell_read_bytes");
  static Histogram* read_seconds =
      MetricRegistry::Global().GetHistogram("storage.read_seconds");
  static Histogram* demand_miss_seconds =
      MetricRegistry::Global().GetHistogram("storage.demand_miss_seconds");
  uint64_t bytes = hits.bytes;
  Status first_error = Status::OK();
  for (const Pending& read : pending_) {
    Stopwatch wait;
    Result<LruCache::Value> value = read.handle.Wait();
    const double seconds = read.dispatch_seconds + wait.ElapsedSeconds();
    read_seconds->Observe(seconds);
    if (!read.handle.hit()) demand_miss_seconds->Observe(seconds);
    if (value.ok()) {
      bytes += (*value)->size();
    } else if (first_error.ok()) {
      first_error = value.status();
    }
  }
  read_seconds->Observe(0.0, hits.count);
  cell_reads->Add(hits.count + pending_.size());
  cell_read_bytes->Add(bytes);
  return first_error;
}

}  // namespace vc
