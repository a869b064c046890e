#ifndef VC_STORAGE_CELL_SOURCE_H_
#define VC_STORAGE_CELL_SOURCE_H_

#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/cache.h"
#include "storage/cell_key.h"
#include "storage/metadata.h"
#include "storage/tiered_cache.h"

namespace vc {

class ShardMap;
class StorageManager;

/// \brief Read-side interface over stored segment cells.
///
/// Sessions and the prefetcher only ever *read* cells, so this is the seam
/// between the serving layer and the storage topology: a plain
/// StorageManager satisfies it directly, and a sharded store's per-node
/// view (private L1 over a shared L2, cells routed to their owning backend
/// by consistent hash) satisfies it too, both through TieredCellSource
/// below — the session code cannot tell the difference. Implementations are
/// thread-safe.
class CellSource {
 public:
  virtual ~CellSource() = default;

  /// Reads one encoded cell stream (checksum-verified, cached).
  virtual Result<LruCache::Value> ReadCell(const VideoMetadata& metadata,
                                           int segment, int tile,
                                           int quality) = 0;

  /// Asynchronous ReadCell: hands the load to the I/O pool and returns a
  /// handle to its eventual outcome. kPrefetch loads run on the low lane
  /// and stay invisible to demand hit/miss statistics. Synchronous when
  /// there is no I/O pool.
  virtual Result<LruCache::AsyncHandle> ReadCellAsync(
      const VideoMetadata& metadata, int segment, int tile, int quality,
      LoadKind kind = LoadKind::kDemand) = 0;

  /// Demand-reads one cell per tile of `segment` at the planned qualities
  /// (`tile_qualities[t]` is tile t's ladder rung). Returns the first error
  /// in tile order.
  virtual Status ReadPlannedCells(const VideoMetadata& metadata, int segment,
                                  const std::vector<int>& tile_qualities) = 0;

  /// The async cell-load pool, or nullptr when every read is synchronous.
  virtual ThreadPool* io_pool() const = 0;

  /// Statistics of the cache closest to this reader (a node's private L1;
  /// the one and only cache of a plain StorageManager).
  virtual CacheStats cache_stats() const = 0;
};

/// \brief The one cell read: a TieredCache over one or more backends.
///
/// A StorageManager is one with no L2 and itself as its only backend; a
/// ShardedStore node is one with a private L1 over the shared L2 and the
/// shards as backends, routed by the ShardMap. A miss runs the owning
/// backend's CellLoader on that backend's I/O pool (inline without one).
/// ReadPlannedCells makes one cache pass per segment (TieredCache::
/// ReadBatch), and ReadCell is a pass of one cell. The storage.* read
/// metrics are registered here only: a cell not resolved in place is
/// observed as its dispatch, which includes an inline load, plus its wait.
class TieredCellSource : public CellSource {
 public:
  Result<LruCache::Value> ReadCell(const VideoMetadata& metadata, int segment,
                                   int tile, int quality) final;
  Result<LruCache::AsyncHandle> ReadCellAsync(
      const VideoMetadata& metadata, int segment, int tile, int quality,
      LoadKind kind = LoadKind::kDemand) final;
  Status ReadPlannedCells(const VideoMetadata& metadata, int segment,
                          const std::vector<int>& tile_qualities) final;
  /// The L1's statistics.
  CacheStats cache_stats() const final { return tiers_.l1_stats(); }

 protected:
  /// `backends` load the cold cells: `backends[0]` without a `shard_map`,
  /// else `backends[shard_map->ShardFor(key)]`. A null `l2` reads through
  /// the L1 alone. Everything passed in must outlive this.
  TieredCellSource(size_t l1_capacity_bytes, LruCache* l2,
                   std::vector<StorageManager*> backends,
                   const ShardMap* shard_map);

  TieredCache tiers_;

 private:
  /// Reads one in-range cell through the tiers, dispatching a miss on the
  /// pool of the backend that owns `key`.
  LruCache::AsyncHandle Dispatch(const VideoMetadata& metadata, CellKey cell,
                                 PackedCellKey key, LoadKind kind);

  std::vector<StorageManager*> backends_;
  const ShardMap* shard_map_;
};

}  // namespace vc

#endif  // VC_STORAGE_CELL_SOURCE_H_
