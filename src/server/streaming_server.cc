#include "server/streaming_server.h"

#include "server/serve_loop.h"

namespace vc {

Status ServerOptions::Validate() const {
  if (max_concurrent_sessions < 1) {
    return Status::InvalidArgument("max_concurrent_sessions must be >= 1");
  }
  if (bandwidth_budget_bps < 0) {
    return Status::InvalidArgument("bandwidth_budget_bps must be >= 0");
  }
  if (prefetcher.max_queue < 1) {
    return Status::InvalidArgument("prefetcher.max_queue must be >= 1");
  }
  if (prefetcher.max_inflight < 0) {
    return Status::InvalidArgument("prefetcher.max_inflight must be >= 0");
  }
  return Status::OK();
}

StreamingServer::StreamingServer(StorageManager* storage,
                                 const ServerOptions& options)
    : storage_(storage), options_(options) {}

// The server is the serve loop's one-node configuration: its only cell
// source is the storage manager itself.

Result<ServerStats> StreamingServer::Run(
    const VideoMetadata& metadata, const std::vector<ViewerRequest>& viewers,
    const SceneGenerator* reference) {
  VC_ASSIGN_OR_RETURN(ClusterStats run,
                      RunServeLoop(storage_, {storage_}, options_, {&metadata},
                                   nullptr, viewers, reference));
  return std::move(run.totals);
}

Result<ServerStats> StreamingServer::RunLive(
    LiveFeed* feed, const std::vector<ViewerRequest>& viewers,
    const SceneGenerator* reference) {
  VC_ASSIGN_OR_RETURN(ClusterStats run,
                      RunServeLoop(storage_, {storage_}, options_, {}, feed,
                                   viewers, reference));
  return std::move(run.totals);
}

}  // namespace vc
