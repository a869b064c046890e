#ifndef VC_STORAGE_TIERED_CACHE_H_
#define VC_STORAGE_TIERED_CACHE_H_

#include "storage/cache.h"
#include "storage/cell_key.h"

namespace vc {

/// \brief A private L1 LruCache, optionally over a shared L2.
///
/// Every read goes through the L1 first; an L1 miss loads through the L2,
/// which in turn runs the backend loader on a miss. Both tiers keep their
/// single-flight behaviour, so N nodes missing on the same popular cell at
/// once still read it from the backing store exactly once — the L2 coalesces
/// the cross-node loads the way one LruCache coalesces cross-session loads.
/// With a null L2 (a single store's own cache) an L1 miss runs the backend
/// loader directly, and the tier behaves exactly as one LruCache.
///
/// Prefetch attribution stays honest across tiers: a prefetch fills both
/// tiers tagged, and when a demand read consumes the L1 copy the L2 copy is
/// credited too (LruCache::CreditPrefetchConsumption), so an eventual L2
/// eviction of the already-consumed value is not double-counted as wasted.
/// Known corner: a demand read that coalesces with a still-in-flight L1
/// prefetch credits only the L1 — the L2 copy's tag survives and its
/// eviction counts as wasted there. Each tier's own
/// `issued == hits + wasted` invariant still holds.
///
/// Thread-safe; `l2`, when given, is shared with other nodes and must
/// outlive this.
class TieredCache {
 public:
  TieredCache(size_t l1_capacity_bytes, LruCache* l2);

  /// Asynchronous tiered read: the L1 dispatches one task to `pool` (use
  /// the owning backend's I/O pool so load concurrency is bounded per
  /// backend); that task resolves through the L2, coalescing with any other
  /// node's load of the same key. `kind` propagates to both tiers.
  /// `make_loader` runs only on a miss that becomes the loader: an L1 hit or
  /// coalesce builds nothing, and with a null `pool` (the L2 then resolves
  /// inline) neither does an L2 hit or coalesce.
  LruCache::AsyncHandle GetOrComputeAsync(PackedCellKey key,
                                          LruCache::LoaderFactory make_loader,
                                          ThreadPool* pool, LoadKind kind);
  /// As above with a ready-made backend loader.
  LruCache::AsyncHandle GetOrComputeAsync(PackedCellKey key,
                                          LruCache::Loader loader,
                                          ThreadPool* pool, LoadKind kind) {
    return GetOrComputeAsync(
        key, [&loader] { return std::move(loader); }, pool, kind);
  }

  /// LruCache::ReadBatch over the L1: L1 hits resolve in place, and every
  /// other key goes to `read_miss`, which must read it through this
  /// GetOrComputeAsync. Consumed L1 prefetches are credited to the L2 once
  /// the L1 lock is released, before the next miss reaches the L2, so both
  /// tiers' statistics change exactly as under per-key calls.
  LruCache::BatchHits ReadBatch(std::span<const PackedCellKey> keys,
                                FunctionRef<void(size_t)> read_miss);

  CacheStats l1_stats() const { return l1_.stats(); }

  /// Drops the L1 (stats preserved); the shared L2 is left alone.
  void ClearL1() { l1_.Clear(); }

 private:
  LruCache l1_;
  LruCache* l2_;  ///< Null: L1 misses run the backend loader directly.
};

}  // namespace vc

#endif  // VC_STORAGE_TIERED_CACHE_H_
