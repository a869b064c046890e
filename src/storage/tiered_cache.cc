#include "storage/tiered_cache.h"

#include <utility>

namespace vc {

TieredCache::TieredCache(size_t l1_capacity_bytes, LruCache* l2)
    : l1_(l1_capacity_bytes), l2_(l2) {}

Result<LruCache::Value> TieredCache::GetOrCompute(
    PackedCellKey key, FunctionRef<Result<LruCache::Value>()> loader,
    bool* was_hit) {
  bool consumed_l1_prefetch = false;
  Result<LruCache::Value> value = l1_.GetOrCompute(
      key,
      // The reference capture is safe here: a synchronous loader runs
      // inside this call, on this thread.
      [this, key, &loader]() -> Result<LruCache::Value> {
        return l2_->GetOrCompute(key, loader);
      },
      was_hit, &consumed_l1_prefetch);
  if (consumed_l1_prefetch) l2_->CreditPrefetchConsumption(key);
  return value;
}

LruCache::AsyncHandle TieredCache::GetOrComputeAsync(
    PackedCellKey key, LruCache::LoaderFactory make_loader, ThreadPool* pool,
    LoadKind kind) {
  bool consumed_l1_prefetch = false;
  LruCache::AsyncHandle handle = l1_.GetOrComputeAsync(
      key,
      // Called only when the L1 registers us as the loader, and still
      // inside this call, so `make_loader` is alive. The Loader it returns
      // holds owning captures only: it runs on a pool thread after we
      // return. The null pool makes the L2 resolve on that same thread (no
      // double-dispatch), still coalescing with other nodes' loads.
      [this, key, make_loader, kind]() -> LruCache::Loader {
        return [l2 = l2_, key, loader = make_loader(),
                kind]() mutable -> Result<LruCache::Value> {
          return l2->GetOrComputeAsync(key, std::move(loader), nullptr, kind)
              .Wait();
        };
      },
      pool, kind, &consumed_l1_prefetch);
  if (consumed_l1_prefetch) l2_->CreditPrefetchConsumption(key);
  return handle;
}

}  // namespace vc
