#ifndef VC_STORAGE_CELL_SOURCE_H_
#define VC_STORAGE_CELL_SOURCE_H_

#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/cache.h"
#include "storage/cell_key.h"
#include "storage/metadata.h"

namespace vc {

/// \brief Read-side interface over stored segment cells.
///
/// Sessions and the prefetcher only ever *read* cells, so this is the seam
/// between the serving layer and the storage topology: a plain
/// StorageManager satisfies it directly, and a sharded store's per-node
/// view (private L1 over a shared L2, cells routed to their owning backend
/// by consistent hash) satisfies it too — the session code cannot tell the
/// difference. Implementations are thread-safe.
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

/// \brief The bookkeeping every ReadPlannedCells implementation shares:
/// one segment's cells read as a cache batch (LruCache::ReadBatch), plus
/// the loads the batch left pending.
///
/// Metrics are recorded once per batch. `storage.cell_reads` and
/// `storage.cell_read_bytes` get one add each. `storage.read_seconds` gets
/// one 0 s observation per hit, read without any clock, and one timed
/// observation per pending read. A pending read that was not a hit is also
/// observed in `storage.demand_miss_seconds`.
class PlannedCellRead {
 public:
  /// Checks the plan and packs its cells' keys in tile order.
  /// InvalidArgument unless `segment` is a segment of `metadata` and
  /// `tile_qualities` holds one in-range rung per tile.
  Status Plan(const VideoMetadata& metadata, int segment,
              const std::vector<int>& tile_qualities);
  /// The planned cells' keys, in tile order (the batch's input).
  const std::vector<PackedCellKey>& keys() const { return keys_; }

  /// Records one key the batch did not resolve in place, in tile order.
  /// `dispatch_seconds` is time already spent dispatching it (the inline
  /// load of a synchronous store); its observation adds the wait on
  /// `handle`.
  void AddPending(LruCache::AsyncHandle handle,
                  double dispatch_seconds = 0.0) {
    pending_.push_back(Pending{std::move(handle), dispatch_seconds});
  }

  /// Waits on every pending read in tile order and records the batch's
  /// metrics. Returns the first error in tile order (hits cannot fail).
  Status Finish(const LruCache::BatchHits& hits);

 private:
  struct Pending {
    LruCache::AsyncHandle handle;
    double dispatch_seconds = 0.0;
  };
  std::vector<PackedCellKey> keys_;
  std::vector<Pending> pending_;
};

}  // namespace vc

#endif  // VC_STORAGE_CELL_SOURCE_H_
