#include "server/cluster_server.h"

#include <memory>

#include "server/serve_loop.h"

namespace vc {

Status ClusterOptions::Validate() const {
  if (nodes < 1) {
    return Status::InvalidArgument("ClusterOptions.nodes must be >= 1");
  }
  return node.Validate();
}

namespace {

/// Runs the serve loop with one L1-over-L2 view of `store` per node, and
/// adds the run's shared-L2 activity.
Result<ClusterStats> ServeCluster(ShardedStore* store,
                                  const ClusterOptions& options,
                                  std::vector<const VideoMetadata*> videos,
                                  LiveFeed* live,
                                  const std::vector<ViewerRequest>& viewers,
                                  const SceneGenerator* reference) {
  VC_RETURN_IF_ERROR(options.Validate());
  if (store == nullptr) {
    return Status::InvalidArgument("cluster requires a sharded store");
  }
  const int video_count = live != nullptr ? 1 : static_cast<int>(videos.size());
  for (const ViewerRequest& viewer : viewers) {
    if (viewer.video < 0 || viewer.video >= video_count) {
      return Status::InvalidArgument("viewer video index out of range");
    }
  }

  std::vector<std::unique_ptr<ShardedStore::Node>> views;
  std::vector<CellSource*> sources;
  for (int n = 0; n < options.nodes; ++n) {
    views.push_back(store->CreateNode(options.l1_capacity_bytes));
    sources.push_back(views.back().get());
  }
  const CacheStats l2_before = store->l2_stats();
  ClusterStats stats;
  VC_ASSIGN_OR_RETURN(stats, RunServeLoop(store->shard(0), sources,
                                          options.node, std::move(videos),
                                          live, viewers, reference));
  stats.l2 = store->l2_stats() - l2_before;
  return stats;
}

}  // namespace

ClusterServer::ClusterServer(ShardedStore* store,
                             const ClusterOptions& options)
    : store_(store), options_(options) {}

Result<ClusterStats> ClusterServer::Run(
    const std::vector<VideoMetadata>& videos,
    const std::vector<ViewerRequest>& viewers,
    const SceneGenerator* reference) {
  std::vector<const VideoMetadata*> catalog;
  for (const VideoMetadata& video : videos) catalog.push_back(&video);
  return ServeCluster(store_, options_, std::move(catalog), nullptr, viewers,
                      reference);
}

Result<ClusterStats> ClusterServer::RunLive(
    LiveFeed* feed, const std::vector<ViewerRequest>& viewers,
    const SceneGenerator* reference) {
  return ServeCluster(store_, options_, {}, feed, viewers, reference);
}

}  // namespace vc
