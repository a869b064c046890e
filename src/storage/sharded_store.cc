#include "storage/sharded_store.h"

#include <utility>

namespace vc {

namespace {

std::vector<StorageManager*> Backends(
    const std::vector<std::unique_ptr<StorageManager>>& shards) {
  std::vector<StorageManager*> backends;
  for (const auto& shard : shards) backends.push_back(shard.get());
  return backends;
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
      l2_(options.l2_capacity_bytes),
      shards_(std::move(shards)) {}

std::unique_ptr<ShardedStore::Node> ShardedStore::CreateNode(
    size_t l1_capacity_bytes) {
  return std::unique_ptr<Node>(
      new Node(this, next_node_id_++, l1_capacity_bytes));
}

ShardedStore::Node::Node(ShardedStore* store, int node_id,
                         size_t l1_capacity_bytes)
    : TieredCellSource(l1_capacity_bytes, store->l2(),
                       Backends(store->shards_), &store->shard_map_),
      store_(store),
      node_id_(node_id) {}

ThreadPool* ShardedStore::Node::io_pool() const {
  return store_->shards_[0]->io_pool();
}

}  // namespace vc
