#include "storage/tiered_cache.h"

#include <utility>

namespace vc {

TieredCache::TieredCache(size_t l1_capacity_bytes, LruCache* l2)
    : l1_(l1_capacity_bytes), l2_(l2) {}

LruCache::AsyncHandle TieredCache::GetOrComputeAsync(
    PackedCellKey key, LruCache::LoaderFactory make_loader, ThreadPool* pool,
    LoadKind kind) {
  if (l2_ == nullptr) {
    return l1_.GetOrComputeAsync(key, make_loader, pool, kind);
  }
  // Without a pool the L1 runs its loader inline, before the L1 call below
  // returns, so the L2 read can borrow `make_loader` and build the owning
  // backend loader only on an L2 miss.
  auto inline_l2 = [this, key, make_loader, kind]() -> Result<LruCache::Value> {
    return l2_->GetOrComputeAsync(key, make_loader, nullptr, kind).Wait();
  };
  bool consumed_l1_prefetch = false;
  LruCache::AsyncHandle handle = l1_.GetOrComputeAsync(
      key,
      // Called only when the L1 registers us as the loader, and still
      // inside this call, so `make_loader` is alive. A pool load runs on a
      // pool thread after we return, so it holds owning captures only; the
      // null pool makes the L2 resolve on that same thread (no
      // double-dispatch), still coalescing with other nodes' loads.
      [&]() -> LruCache::Loader {
        if (pool == nullptr) {
          return FunctionRef<Result<LruCache::Value>()>(inline_l2);
        }
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

LruCache::BatchHits TieredCache::ReadBatch(
    std::span<const PackedCellKey> keys, FunctionRef<void(size_t)> read_miss) {
  if (l2_ == nullptr) return l1_.ReadBatch(keys, read_miss);
  std::vector<PackedCellKey> consumed;
  auto credit_l2 = [this, &consumed] {
    for (PackedCellKey key : consumed) l2_->CreditPrefetchConsumption(key);
    consumed.clear();
  };
  LruCache::BatchHits hits = l1_.ReadBatch(
      keys,
      [&](size_t i) {
        credit_l2();
        read_miss(i);
      },
      &consumed);
  credit_l2();
  return hits;
}

}  // namespace vc
