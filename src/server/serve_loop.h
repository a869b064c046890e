#ifndef VC_SERVER_SERVE_LOOP_H_
#define VC_SERVER_SERVE_LOOP_H_

#include <vector>

#include "server/cluster_server.h"

namespace vc {

/// \brief The serving scheduler behind StreamingServer and ClusterServer.
///
/// Streams to every viewer in `viewers` from `sources.size()` serving nodes,
/// node n reading cells through `sources[n]` (a viewer's own
/// SessionOptions::cell_source wins over its node's). `storage` is the
/// StorageManager sessions are created against. The catalog is `videos`
/// (`viewers[i].video` indexes it; a one-video catalog serves every viewer
/// that video), or, when `live` is set, the one still-growing video of that
/// freshly created feed (`videos` must then be empty).
///
/// One deterministic discrete-event loop: a min-heap over (time, seq) with
/// seq assigned in push order, publish events first, so the simulated
/// outcome is a pure function of the inputs — byte-identical across host
/// timing, prefetch settings and, when admission never queues, node counts.
/// Arrivals are placed by popularity locality under a balance guard and
/// wait in one FIFO queue when no node can admit them. Returns the totals
/// and per-node stats; `l2` is left for a sharded caller to fill in.
Result<ClusterStats> RunServeLoop(StorageManager* storage,
                                  const std::vector<CellSource*>& sources,
                                  const ServerOptions& options,
                                  std::vector<const VideoMetadata*> videos,
                                  LiveFeed* live,
                                  const std::vector<ViewerRequest>& viewers,
                                  const SceneGenerator* reference);

}  // namespace vc

#endif  // VC_SERVER_SERVE_LOOP_H_
