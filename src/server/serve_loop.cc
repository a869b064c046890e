#include "server/serve_loop.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <queue>
#include <string>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace vc {

namespace {

/// Balance guard on locality placement: a node is only eligible while its
/// active-session count is under total/nodes + 1 + kBalanceSlack, so
/// co-scheduling a hot video cannot pile every viewer onto one node. At
/// one node the limit always exceeds the node's own count.
constexpr int kBalanceSlack = 1;

enum class EventKind { kPublish, kArrival, kStep };

/// One scheduler entry. `seq` (assigned in push order) is unique and breaks
/// time ties, so the event order — and therefore the whole run — is
/// deterministic. Steps carry their session's node; arrivals carry -1
/// (placement decides their node when they pop), and so do publish events,
/// which reuse `viewer` for the segment index.
struct Event {
  double time;
  uint64_t seq;
  EventKind kind;
  int viewer;
  int node;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Mutable per-node serving state.
struct NodeState {
  CellSource* source = nullptr;
  CacheStats source_before;  ///< The source's counters when the run began.
  std::unique_ptr<PredictivePrefetcher> prefetcher;
  int active = 0;
  double admitted_bps = 0.0;
  std::vector<int> video_active;  ///< Active sessions per catalog video.
  ClusterNodeStats stats;
};

}  // namespace

Result<ClusterStats> RunServeLoop(StorageManager* storage,
                                  const std::vector<CellSource*>& sources,
                                  const ServerOptions& options,
                                  std::vector<const VideoMetadata*> videos,
                                  LiveFeed* live,
                                  const std::vector<ViewerRequest>& viewers,
                                  const SceneGenerator* reference) {
  // The argument check every Run() and RunLive() shares.
  VC_RETURN_IF_ERROR(options.Validate());
  if (storage == nullptr) {
    return Status::InvalidArgument("server requires a storage manager");
  }
  if (live != nullptr) {
    if (live->published_segments() != 0) {
      return Status::InvalidArgument("live feed already partially published");
    }
  } else if (videos.empty()) {
    return Status::InvalidArgument(
        "nothing to serve: Run needs a video, RunLive a live feed");
  }
  for (const VideoMetadata* video : videos) {
    if (video->segment_count() == 0) {
      return Status::InvalidArgument("video has no segments");
    }
  }
  for (const ViewerRequest& viewer : viewers) {
    if (viewer.arrival_seconds < 0) {
      return Status::InvalidArgument("viewer arrival_seconds must be >= 0");
    }
  }

  // Under a live feed the catalog grows during the run: its one video is
  // the feed's stable-address snapshot, so every use below reads the
  // newest published state.
  if (live != nullptr) videos = {&live->snapshot()};
  auto video_of = [&](int viewer) {
    return videos.size() == 1 ? 0 : viewers[viewer].video;
  };

  MetricRegistry& registry = MetricRegistry::Global();
  Gauge* active_gauge = registry.GetGauge("server.active_sessions");
  Gauge* queue_gauge = registry.GetGauge("server.queue_depth");
  Counter* admitted_counter = registry.GetCounter("server.sessions_admitted");
  Counter* rejected_counter = registry.GetCounter("server.sessions_rejected");
  Counter* completed_counter =
      registry.GetCounter("server.sessions_completed");
  Counter* locality_counter =
      registry.GetCounter("server.cluster.locality_placements");
  Counter* spillover_counter =
      registry.GetCounter("server.cluster.spillovers");

  const Stopwatch host_clock;

  // One popularity model and one plan cache per catalog video, shared by
  // every node: viewers of a video teach each other where to look, and a
  // session's planning inputs carry no node identity, so any viewer can
  // reuse a plan first computed anywhere. The loop is single-threaded and
  // the model feed order is fixed by the (time, seq) event order, so
  // placement never perturbs either. Plan caching is exact memoization:
  // only host time and `plan` stats move when it is on.
  std::vector<std::unique_ptr<PopularityModel>> popularity;
  std::vector<std::unique_ptr<PlanCache>> plan_caches;
  for (const VideoMetadata* video : videos) {
    popularity.push_back(std::make_unique<PopularityModel>(
        video->tile_grid(), video->segment_duration_seconds(),
        live != nullptr ? live->final_segment_count()
                        : video->segment_count()));
    plan_caches.push_back(std::make_unique<PlanCache>());
  }

  // Speculative loading rides alongside the scheduler: it only warms the
  // node's caches, so the loop stays logically deterministic — identical
  // simulated outcomes with prefetch on or off. Without an I/O pool there
  // is nothing to overlap, so the mode degrades to off.
  std::vector<NodeState> nodes(sources.size());
  for (size_t n = 0; n < nodes.size(); ++n) {
    NodeState& node = nodes[n];
    node.source = sources[n];
    node.source_before = node.source->cache_stats();
    node.video_active.assign(videos.size(), 0);
    node.stats.node_id = static_cast<int>(n);
    if (options.prefetch != PrefetchMode::kOff &&
        node.source->io_pool() != nullptr) {
      PrefetcherOptions prefetch_options = options.prefetcher;
      prefetch_options.mode = options.prefetch;
      node.prefetcher =
          std::make_unique<PredictivePrefetcher>(node.source, prefetch_options);
    }
  }
  const int node_count = static_cast<int>(nodes.size());

  ClusterStats stats;
  ServerStats& totals = stats.totals;
  std::vector<std::unique_ptr<ClientSession>> sessions(viewers.size());
  std::vector<int> placed_on(viewers.size(), -1);
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::deque<int> waiting;  // FIFO queue for the admission limits
  uint64_t seq = 0;
  int total_active = 0;

  // Publish events first: their seqs are the lowest, so at equal times the
  // catalog grows before any viewer arrives or steps — a session blocked
  // at the live edge finds the segment it was waiting for. Arrivals before
  // the first publish are clamped to it (nothing exists to join earlier),
  // mirroring a player that holds its join until the stream goes up.
  if (live != nullptr) {
    for (int s = 0; s < live->final_segment_count(); ++s) {
      events.push(
          Event{live->PublishTimeOf(s), seq++, EventKind::kPublish, s, -1});
    }
  }
  for (size_t i = 0; i < viewers.size(); ++i) {
    double at = viewers[i].arrival_seconds;
    if (live != nullptr) at = std::max(at, live->PublishTimeOf(0));
    events.push(
        Event{at, seq++, EventKind::kArrival, static_cast<int>(i), -1});
  }

  // Popularity-locality placement with a balance guard. Among nodes that
  // can admit the viewer *and* sit under the balance limit, pick the one
  // with the most active sessions of the viewer's video (tie: fewer active
  // sessions, then lower id). Returns -1 when no node can admit.
  auto place = [&](int viewer) -> int {
    const double viewer_bps = viewers[viewer].session.network.bandwidth_bps;
    const int video = video_of(viewer);
    const int limit = total_active / node_count + 1 + kBalanceSlack;
    auto better = [&](int a, int b) {  // is node a a better target than b?
      if (b < 0) return true;
      const NodeState& na = nodes[a];
      const NodeState& nb = nodes[b];
      if (na.video_active[video] != nb.video_active[video]) {
        return na.video_active[video] > nb.video_active[video];
      }
      if (na.active != nb.active) return na.active < nb.active;
      return a < b;
    };
    int preferred = -1;  // locality ideal, ignoring capacity — for counters
    int chosen = -1;
    for (int n = 0; n < node_count; ++n) {
      if (better(n, preferred)) preferred = n;
      const NodeState& node = nodes[n];
      const bool admissible =
          node.active < options.max_concurrent_sessions &&
          (options.bandwidth_budget_bps <= 0 ||
           node.admitted_bps + viewer_bps <=
               options.bandwidth_budget_bps + 1e-9);
      if (admissible && node.active < limit && better(n, chosen)) chosen = n;
    }
    if (chosen < 0) return -1;
    if (nodes[chosen].video_active[video] > 0) {
      ++nodes[chosen].stats.locality_placements;
      locality_counter->Add();
    }
    if (chosen != preferred) {
      ++nodes[chosen].stats.spillovers;
      spillover_counter->Add();
    }
    return chosen;
  };

  // Starts warming the cells `viewer`'s predictor expects it to ask for at
  // its next pacing deadline.
  auto warm = [&](NodeState& node, int viewer, double deadline) {
    if (node.prefetcher == nullptr) return;
    const int video = video_of(viewer);
    node.prefetcher->EnqueueSegment(
        *videos[video], sessions[viewer]->NextPrefetchHint(),
        options.shared_popularity ? popularity[video].get() : nullptr,
        deadline);
  };

  auto admit = [&](int viewer, int node_id, double now) -> Status {
    NodeState& node = nodes[node_id];
    const int video = video_of(viewer);
    SessionOptions session_options = viewers[viewer].session;
    session_options.fetch_cells = true;
    if (session_options.cell_source == nullptr) {
      session_options.cell_source = node.source;
    }
    session_options.live = live;
    if (options.shared_popularity) {
      session_options.popularity = popularity[video].get();
      session_options.popularity_sink = popularity[video].get();
    }
    if (options.share_plans) {
      session_options.plan_cache = plan_caches[video].get();
    }
    const Stopwatch node_clock;
    std::unique_ptr<ClientSession> session;
    VC_ASSIGN_OR_RETURN(
        session, ClientSession::Create(storage, *videos[video],
                                       viewers[viewer].trace, session_options,
                                       reference));
    sessions[viewer] = std::move(session);
    placed_on[viewer] = node_id;
    ++node.active;
    ++total_active;
    ++node.video_active[video];
    ++node.stats.sessions_placed;
    node.stats.max_active_sessions =
        std::max(node.stats.max_active_sessions, node.active);
    node.admitted_bps += viewers[viewer].session.network.bandwidth_bps;
    ++totals.sessions_admitted;
    admitted_counter->Add();
    totals.max_active_sessions =
        std::max(totals.max_active_sessions, total_active);
    active_gauge->Set(total_active);
    const double deadline = std::max(now, sessions[viewer]->NextDeadline());
    events.push(Event{deadline, seq++, EventKind::kStep, viewer, node_id});
    warm(node, viewer, deadline);
    node.stats.host_seconds += node_clock.ElapsedSeconds();
    return Status::OK();
  };

  while (!events.empty()) {
    const Event event = events.top();
    events.pop();

    // Advance speculation to the event's simulated time — the stepping
    // node's, or every node's for an arrival or publish: reap finished
    // loads, cancel requests whose demand moment has arrived, dispatch the
    // best of what remains.
    for (int n = 0; n < node_count; ++n) {
      if (nodes[n].prefetcher != nullptr &&
          (event.node < 0 || event.node == n)) {
        nodes[n].prefetcher->Pump(event.time);
      }
    }

    if (event.kind == EventKind::kPublish) {
      VC_RETURN_IF_ERROR(live->Publish(event.viewer));
      continue;
    }

    if (event.kind == EventKind::kArrival) {
      ++totals.sessions_offered;
      const double viewer_bps =
          viewers[event.viewer].session.network.bandwidth_bps;
      if (options.bandwidth_budget_bps > 0 &&
          viewer_bps > options.bandwidth_budget_bps + 1e-9) {
        // This client alone exceeds a whole node's budget: it could never
        // be admitted, so reject instead of queueing it forever.
        ++totals.sessions_rejected;
        rejected_counter->Add();
        continue;
      }
      const int node_id = place(event.viewer);
      if (node_id < 0) {
        waiting.push_back(event.viewer);
        ++totals.sessions_queued;
        totals.max_queue_depth = std::max(totals.max_queue_depth,
                                          static_cast<int>(waiting.size()));
        queue_gauge->Set(static_cast<double>(waiting.size()));
        continue;
      }
      VC_RETURN_IF_ERROR(admit(event.viewer, node_id, event.time));
      continue;
    }

    NodeState& node = nodes[event.node];
    ClientSession* session = sessions[event.viewer].get();
    const Stopwatch node_clock;
    const Status stepped = session->Step(event.time);
    node.stats.host_seconds += node_clock.ElapsedSeconds();
    VC_RETURN_IF_ERROR(stepped);
    if (!session->done()) {
      // The session just told us when it will want its next segment.
      const double deadline = session->NextDeadline();
      events.push(
          Event{deadline, seq++, EventKind::kStep, event.viewer, event.node});
      warm(node, event.viewer, deadline);
      continue;
    }

    // Session completed: free its node's slot and bandwidth, then admit
    // waiters (head of line first — FIFO fairness over placement greed).
    --node.active;
    --total_active;
    --node.video_active[video_of(event.viewer)];
    node.admitted_bps -= viewers[event.viewer].session.network.bandwidth_bps;
    active_gauge->Set(total_active);
    ++totals.sessions_completed;
    completed_counter->Add();
    totals.wall_seconds =
        std::max(totals.wall_seconds, session->wall_seconds());
    while (!waiting.empty()) {
      const int next = waiting.front();
      const int next_node = place(next);
      if (next_node < 0) break;  // head of line waits for capacity
      waiting.pop_front();
      VC_RETURN_IF_ERROR(admit(next, next_node, event.time));
    }
    queue_gauge->Set(static_cast<double>(waiting.size()));
  }

  for (size_t i = 0; i < viewers.size(); ++i) {
    if (sessions[i] == nullptr) continue;  // rejected
    const SessionStats& session = sessions[i]->stats();
    totals.sessions.push_back(session);
    totals.admitted.push_back(static_cast<int>(i));
    totals.bytes_sent += session.bytes_sent;
    totals.media_seconds += session.duration_seconds;
    totals.stall_seconds += session.stall_seconds;
    totals.stall_events += session.stall_events;
    totals.transfer_faults += session.transfer_faults;
    totals.transfer_retries += session.transfer_retries;
    totals.segments_skipped += session.segments_skipped;
    nodes[placed_on[i]].stats.bytes_sent += session.bytes_sent;
  }

  if (live != nullptr) totals.live = live->stats();

  // Settle speculation before reading each node's cache counters, so every
  // prefetched value has been classified as hit or wasted-so-far.
  stats.nodes.reserve(nodes.size());
  for (NodeState& node : nodes) {
    if (node.prefetcher != nullptr) {
      node.prefetcher->Drain();
      node.stats.prefetch = node.prefetcher->stats();
      totals.prefetch += node.stats.prefetch;
    }
    node.stats.l1 = node.source->cache_stats() - node.source_before;
    totals.cache += node.stats.l1;
    const std::string prefix =
        std::string("server.node.").append(std::to_string(node.stats.node_id));
    registry.GetGauge(prefix + ".cache_hit_rate")
        ->Set(node.stats.l1.HitRate());
    registry.GetGauge(prefix + ".host_seconds")->Set(node.stats.host_seconds);
    stats.nodes.push_back(node.stats);
  }
  for (const std::unique_ptr<PlanCache>& cache : plan_caches) {
    totals.plan += cache->stats();
  }

  registry.GetGauge("server.cache_hit_rate")->Set(totals.cache.HitRate());
  registry.GetGauge("server.rebuffer_ratio")->Set(totals.RebufferRatio());
  registry.GetGauge("server.plan_cache_hit_rate")->Set(totals.plan.HitRate());
  totals.host_seconds = host_clock.ElapsedSeconds();
  return stats;
}

}  // namespace vc
