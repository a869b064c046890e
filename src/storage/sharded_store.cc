#include "storage/sharded_store.h"

#include <utility>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "storage/cell_key.h"

namespace vc {

namespace {

// Same metric names as StorageManager's read path: session-level
// observability should not care which topology served the read.
Counter* CellReadsCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("storage.cell_reads");
  return counter;
}
Counter* CellReadBytesCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("storage.cell_read_bytes");
  return counter;
}
Histogram* ReadSecondsHistogram() {
  static Histogram* histogram =
      MetricRegistry::Global().GetHistogram("storage.read_seconds");
  return histogram;
}
Histogram* DemandMissHistogram() {
  static Histogram* histogram =
      MetricRegistry::Global().GetHistogram("storage.demand_miss_seconds");
  return histogram;
}

}  // namespace

Result<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    const ShardedStoreOptions& options) {
  if (options.shards < 1) {
    return Status::InvalidArgument("ShardedStoreOptions.shards must be >= 1");
  }
  if (options.vnodes_per_shard < 1) {
    return Status::InvalidArgument(
        "ShardedStoreOptions.vnodes_per_shard must be >= 1");
  }
  std::vector<std::unique_ptr<StorageManager>> shards;
  shards.reserve(options.shards);
  for (int i = 0; i < options.shards; ++i) {
    StorageOptions backend = options.backend;
    // The tiers own all caching; a backend cache under them would only
    // hide L2 miss costs and distort the hit-rate breakdown.
    backend.cache_capacity_bytes = 0;
    std::unique_ptr<StorageManager> shard;
    VC_ASSIGN_OR_RETURN(shard, StorageManager::Open(backend));
    shards.push_back(std::move(shard));
  }
  return std::unique_ptr<ShardedStore>(
      new ShardedStore(options, std::move(shards)));
}

ShardedStore::ShardedStore(const ShardedStoreOptions& options,
                           std::vector<std::unique_ptr<StorageManager>> shards)
    : options_(options),
      shard_map_(options.shards, options.vnodes_per_shard),
      l2_(LruCacheOptions{options.l2_capacity_bytes,
                          options.l2_admit_on_second_touch}),
      shards_(std::move(shards)) {}

std::unique_ptr<ShardedStore::Node> ShardedStore::CreateNode(
    size_t l1_capacity_bytes) {
  return std::unique_ptr<Node>(
      new Node(this, next_node_id_++, l1_capacity_bytes));
}

ShardedStore::Node::Node(ShardedStore* store, int node_id,
                         size_t l1_capacity_bytes)
    : store_(store), node_id_(node_id), tiers_(l1_capacity_bytes, store->l2()) {}

ThreadPool* ShardedStore::Node::io_pool() const {
  return store_->shards_[0]->io_pool();
}

Result<LruCache::Value> ShardedStore::Node::ReadCell(
    const VideoMetadata& metadata, int segment, int tile, int quality) {
  CellKey cell{segment, tile, quality};
  if (!cell.InRange(metadata)) {
    return Status::InvalidArgument("cell coordinates out of range");
  }
  CellReadsCounter()->Add();
  ScopedTimer timer(ReadSecondsHistogram());
  PackedCellKey key = cell.Packed(metadata);
  StorageManager* backend = store_->shard(store_->shard_map_.ShardFor(key));
  bool was_hit = false;
  Stopwatch stopwatch;
  Result<LruCache::Value> value = tiers_.GetOrCompute(
      key,
      [backend, &metadata, segment, tile,
       quality]() -> Result<LruCache::Value> {
        return backend->CellLoader(metadata, segment, tile, quality)();
      },
      &was_hit);
  if (!was_hit) DemandMissHistogram()->Observe(stopwatch.ElapsedSeconds());
  if (value.ok()) CellReadBytesCounter()->Add((*value)->size());
  return value;
}

Result<LruCache::AsyncHandle> ShardedStore::Node::ReadCellAsync(
    const VideoMetadata& metadata, int segment, int tile, int quality,
    LoadKind kind) {
  CellKey cell{segment, tile, quality};
  if (!cell.InRange(metadata)) {
    return Status::InvalidArgument("cell coordinates out of range");
  }
  if (kind == LoadKind::kDemand) CellReadsCounter()->Add();
  PackedCellKey key = cell.Packed(metadata);
  StorageManager* backend = store_->shard(store_->shard_map_.ShardFor(key));
  // The load is dispatched on the *owning* backend's pool, so each shard's
  // cold-read concurrency is bounded by its own pool regardless of how many
  // nodes route to it. The backend loader is built only on an L1 miss.
  return tiers_.GetOrComputeAsync(
      key,
      [&] { return backend->CellLoader(metadata, segment, tile, quality); },
      backend->io_pool(), kind);
}

Status ShardedStore::Node::ReadPlannedCells(
    const VideoMetadata& metadata, int segment,
    const std::vector<int>& tile_qualities) {
  PlannedCellRead read;
  VC_RETURN_IF_ERROR(read.Plan(metadata, segment, tile_qualities));
  // Same contract as StorageManager::ReadPlannedCells: L1 hits resolve in
  // place, and each other cell is dispatched on its owning shard's pool so
  // cold tiles overlap across shards. A miss is observed as the wait on its
  // handle; a synchronous backend's load runs at dispatch, outside it.
  LruCache::BatchHits hits = tiers_.ReadBatch(read.keys(), [&](size_t i) {
    const int tile = static_cast<int>(i);
    const PackedCellKey key = read.keys()[i];
    StorageManager* backend = store_->shard(store_->shard_map_.ShardFor(key));
    read.AddPending(tiers_.GetOrComputeAsync(
        key,
        [&] {
          return backend->CellLoader(metadata, segment, tile,
                                     tile_qualities[i]);
        },
        backend->io_pool(), LoadKind::kDemand));
  });
  return read.Finish(hits);
}

}  // namespace vc
