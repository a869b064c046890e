// vcctl — command-line front end to a persistent VisualCloud store, the
// scriptable equivalent of the demonstration GUI: ingest content, inspect
// the catalog, emit manifests, and run streaming sessions with every knob
// the demo exposed (approach, predictor, tiling, bandwidth, viewer type).
//
//   vcctl                                # canned end-to-end demo
//   vcctl ingest <scene> <name> [tilesRxC] [seconds]
//   vcctl ls
//   vcctl describe <name>
//   vcctl manifest <name>
//   vcctl query '<expr>' [explain]       # declarative query layer
//   vcctl query --standing '<expr>'      # standing query: per-segment replay
//   vcctl view create <name> '<expr>'    # materialized view + maintenance
//   vcctl view list
//   vcctl view refresh <name>
//   vcctl stream <name> [approach] [predictor] [mbps] [archetype]
//   vcctl serve-sim <name> [viewers] [slots] [budget_mbps] [faults/min]
//   vcctl live-sim <scene> <name> [viewers] [seconds] [encode_ms] [lag_ms]
//   vcctl metrics [name] [json|csv]      # subsystem counters snapshot
//   vcctl export <name> <file> [quality]
//   vcctl drop <name>
//   vcctl help
//
// Global flags (any command): --io-threads N sizes the store's async cell
// I/O pool; --prefetch {off,predict,popularity} turns on speculative cell
// loading in serve-sim (needs --io-threads > 0); --nodes N runs serve-sim
// as an N-node cluster over a consistent-hash sharded store, with
// --l1-bytes sizing each node's private cache and --l2-bytes the shared
// second tier.
//
// The store lives in $VCCTL_ROOT (default /tmp/visualcloud-store).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/export.h"
#include "core/session.h"
#include "core/visualcloud.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/parser.h"
#include "view/catalog.h"
#include "view/maintainer.h"
#include "server/cluster_server.h"
#include "server/live_feed.h"
#include "server/streaming_server.h"
#include "storage/sharded_store.h"
#include "streaming/manifest.h"
#include "predict/trace_synthesizer.h"

namespace {

using namespace vc;

void PrintUsage(std::FILE* out) {
  std::fputs(
      "usage: vcctl [global flags] <command> [args]\n"
      "\n"
      "commands:\n"
      "  (none)                        canned end-to-end demo\n"
      "  ingest <scene> <name> [RxC] [seconds]\n"
      "                                synthesize and ingest a 360-degree scene\n"
      "                                (tiles default 4x8, duration 10s)\n"
      "  ls                            list catalog videos\n"
      "  describe <name>               layout, ladder, and versions of a video\n"
      "  manifest <name>               print the VCMPD streaming manifest\n"
      "  query <expr> [explain]        run a declarative query; 'explain' prints\n"
      "                                the optimized plan without executing.\n"
      "                                e.g. \"scan(demo) | timeslice(0,2) |\n"
      "                                viewport(90,90,100,80) | quality(high)\"\n"
      "                                fresh materialized views are offered to\n"
      "                                the optimizer automatically\n"
      "  query --standing <expr>       register a standing query (expr ends in\n"
      "                                subscribe(<name>)) and replay the\n"
      "                                catalog through it, one deterministic\n"
      "                                result per committed segment\n"
      "  view create <name> <expr>     define + materialize view <name>; expr\n"
      "                                sinks into store(<name>), e.g.\n"
      "                                \"scan(demo) | quality(high) | encode |\n"
      "                                store(best)\"\n"
      "  view list                     views, sources, freshness\n"
      "  view refresh <name>           full recompute of a (stale) view\n"
      "  stream <name> [approach] [predictor] [mbps] [archetype]\n"
      "                                simulate one streaming session\n"
      "                                (approach: monolithic, uniform_dash,\n"
      "                                visualcloud, oracle)\n"
      "  serve-sim <name> [viewers] [slots] [budget_mbps] [faults/min]\n"
      "                                multi-viewer server simulation\n"
      "  live-sim <scene> <name> [viewers] [seconds] [encode_ms] [lag_ms]\n"
      "                                live broadcast: ingest the scene\n"
      "                                segment-by-segment while viewers join\n"
      "                                at the live edge; lag_ms > 0 enables\n"
      "                                encoder degradation under that budget\n"
      "  metrics [name] [json|csv]     subsystem counters snapshot (with a\n"
      "                                name: runs a session and a query first\n"
      "                                so the counters are live)\n"
      "  export <name> <file> [quality]\n"
      "                                monolithic no-transcode export\n"
      "  drop <name>                   remove a video and all versions\n"
      "  help                          this text\n"
      "\n"
      "global flags:\n"
      "  --io-threads N                async cell-load I/O pool size (default\n"
      "                                0: synchronous reads)\n"
      "  --prefetch {off,predict,popularity}\n"
      "                                speculative cell loading in serve-sim\n"
      "                                (needs --io-threads > 0)\n"
      "  --nodes N                     run serve-sim as an N-node cluster over\n"
      "                                a consistent-hash sharded store (one\n"
      "                                backend shard per node; default 1:\n"
      "                                single-node server)\n"
      "  --l1-bytes N                  per-node private cache capacity in the\n"
      "                                cluster (default 16 MiB)\n"
      "  --l2-bytes N                  cluster-shared L2 cache capacity\n"
      "                                (default 256 MiB)\n"
      "\n"
      "store root: $VCCTL_ROOT (default /tmp/visualcloud-store)\n",
      out);
}

std::string StoreRoot() {
  const char* root = std::getenv("VCCTL_ROOT");
  return root != nullptr ? root : "/tmp/visualcloud-store";
}

std::unique_ptr<VisualCloud> OpenStore(int io_threads) {
  VisualCloudOptions options;
  options.storage.root = StoreRoot();
  options.storage.io_threads = io_threads;
  auto db = VisualCloud::Open(options);
  if (!db.ok()) {
    std::fprintf(stderr, "vcctl: cannot open store at %s: %s\n",
                 StoreRoot().c_str(), db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*db);
}

[[noreturn]] void Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "vcctl: %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

int CmdIngest(VisualCloud* db, const std::string& scene_name,
              const std::string& video_name, const std::string& tiles,
              int seconds) {
  SceneOptions scene_options;
  scene_options.width = 256;
  scene_options.height = 128;
  auto scene = MakeScene(scene_name, scene_options);
  if (!scene.ok()) Fail(scene.status(), "scene");

  IngestOptions ingest;
  ingest.frames_per_segment = 15;
  ingest.fps = 15.0;
  if (std::sscanf(tiles.c_str(), "%dx%d", &ingest.tile_rows,
                  &ingest.tile_cols) != 2) {
    std::fprintf(stderr, "vcctl: bad tile spec '%s' (want RxC)\n",
                 tiles.c_str());
    return 1;
  }
  auto version = db->IngestScene(video_name, **scene, seconds * 15, ingest);
  if (!version.ok()) Fail(version.status(), "ingest");
  auto metadata = db->Describe(video_name);
  std::printf("ingested '%s' v%u: %ds, %s tiles, %d qualities, %.1f KB\n",
              video_name.c_str(), *version, seconds, tiles.c_str(),
              metadata->quality_count(), metadata->TotalBytes() / 1024.0);

  // The metrics registry is per-process, so this invocation is the only
  // chance to see the ingest-side counters (a later `vcctl metrics` starts
  // from zero). Print the ingest/codec subset.
  MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  std::printf("-- ingest metrics --\n");
  for (const auto& [metric, value] : snapshot.counters) {
    if (metric.rfind("ingest.", 0) == 0 || metric.rfind("codec.", 0) == 0) {
      std::printf("%-28s %llu\n", metric.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  for (const auto& [metric, histogram] : snapshot.histograms) {
    if (metric.rfind("ingest.", 0) == 0) {
      std::printf("%-28s count %llu mean %.4fs p95 %.4fs\n", metric.c_str(),
                  static_cast<unsigned long long>(histogram.count),
                  histogram.Mean(), histogram.Percentile(0.95));
    }
  }
  return 0;
}

int CmdLs(VisualCloud* db) {
  auto videos = db->List();
  if (!videos.ok()) Fail(videos.status(), "list");
  if (videos->empty()) {
    std::printf("(catalog empty — try: vcctl ingest venice myvideo)\n");
    return 0;
  }
  std::printf("%-20s %8s %9s %7s %7s %10s\n", "name", "version", "duration",
              "tiles", "rungs", "stored");
  for (const std::string& name : *videos) {
    auto metadata = db->Describe(name);
    if (!metadata.ok()) continue;
    double seconds = 0;
    for (const SegmentInfo& s : metadata->segments) {
      seconds += s.frame_count / metadata->fps();
    }
    std::printf("%-20s %8u %8.1fs %3dx%-3d %7d %8.1fKB\n", name.c_str(),
                metadata->version, seconds, int{metadata->tile_rows},
                int{metadata->tile_cols}, metadata->quality_count(),
                metadata->TotalBytes() / 1024.0);
  }
  return 0;
}

int CmdDescribe(VisualCloud* db, const std::string& name) {
  auto metadata = db->Describe(name);
  if (!metadata.ok()) Fail(metadata.status(), "describe");
  std::printf("name:      %s\n", metadata->name.c_str());
  std::printf("version:   %u%s\n", metadata->version,
              metadata->streaming ? " (live)" : "");
  std::printf("frames:    %dx%d @ %.2f fps, %s\n", metadata->width,
              metadata->height, metadata->fps(),
              metadata->spherical.stereo == StereoMode::kMono
                  ? "mono"
                  : "stereo top-bottom");
  std::printf("partition: %d segments x %dx%d tiles (%d frames/segment)\n",
              metadata->segment_count(), int{metadata->tile_rows},
              int{metadata->tile_cols}, metadata->frames_per_segment);
  std::printf("ladder:   ");
  for (const QualityLevel& level : metadata->ladder) {
    std::printf(" %s(qp%d)", level.name.c_str(), level.qp);
  }
  std::printf("\nstored:    %.1f KB across %zu cells\n",
              metadata->TotalBytes() / 1024.0, metadata->cells.size());
  auto versions = db->storage()->ListVersions(name);
  std::printf("versions: ");
  for (uint32_t v : *versions) std::printf(" %u", v);
  std::printf("\n");
  return 0;
}

int CmdManifest(VisualCloud* db, const std::string& name) {
  auto metadata = db->Describe(name);
  if (!metadata.ok()) Fail(metadata.status(), "manifest");
  std::fputs(GenerateManifest(*metadata).c_str(), stdout);
  return 0;
}

int CmdStream(VisualCloud* db, const std::string& name,
              const std::string& approach_name, const std::string& predictor,
              double mbps, const std::string& archetype) {
  auto metadata = db->Describe(name);
  if (!metadata.ok()) Fail(metadata.status(), "stream");

  StreamingApproach approach;
  if (approach_name == "monolithic") {
    approach = StreamingApproach::kMonolithicFull;
  } else if (approach_name == "uniform_dash") {
    approach = StreamingApproach::kUniformDash;
  } else if (approach_name == "visualcloud") {
    approach = StreamingApproach::kVisualCloud;
  } else if (approach_name == "oracle") {
    approach = StreamingApproach::kOracle;
  } else {
    std::fprintf(stderr,
                 "vcctl: unknown approach '%s' (monolithic, uniform_dash, "
                 "visualcloud, oracle)\n",
                 approach_name.c_str());
    return 1;
  }

  double seconds = 0;
  for (const SegmentInfo& s : metadata->segments) {
    seconds += s.frame_count / metadata->fps();
  }
  auto trace_options = ArchetypeOptions(archetype, /*seed=*/1);
  if (!trace_options.ok()) Fail(trace_options.status(), "archetype");
  trace_options->duration_seconds = seconds;
  auto trace = SynthesizeTrace(*trace_options);

  SessionOptions session;
  session.approach = approach;
  session.predictor = predictor;
  session.network.bandwidth_bps = mbps * 1e6;
  session.viewport.fov_yaw = DegToRad(90);
  session.viewport.fov_pitch = DegToRad(75);
  auto stats = SimulateSession(db->storage(), *metadata, *trace, session);
  if (!stats.ok()) Fail(stats.status(), "session");

  std::printf("approach:      %s (predictor %s, %s viewer, %.1f Mbps)\n",
              stats->approach.c_str(), predictor.c_str(), archetype.c_str(),
              mbps);
  std::printf("bytes sent:    %llu (%.2f Mbps average)\n",
              static_cast<unsigned long long>(stats->bytes_sent),
              stats->MeanBitrateBps() / 1e6);
  std::printf("startup:       %.2fs, stalls: %.2fs (%d events)\n",
              stats->startup_delay, stats->stall_seconds,
              stats->stall_events);
  std::printf("in-view rung:  %.2f (0 = best of %d)\n",
              stats->mean_inview_quality, metadata->quality_count() - 1);
  return 0;
}

void PrintServeSummary(const ServerStats& stats, PrefetchMode prefetch) {
  std::printf("admission:    admitted=%d queued=%d rejected=%d max_queue=%d\n",
              stats.sessions_admitted, stats.sessions_queued,
              stats.sessions_rejected, stats.max_queue_depth);
  std::printf("throughput:   %.2f Mbps aggregate over %.2fs simulated "
              "(%.3fs host)\n",
              stats.ServedMbps(), stats.wall_seconds, stats.host_seconds);
  std::printf("prefetch:     mode=%s issued=%llu hits=%llu wasted=%llu "
              "cancelled=%llu\n",
              PrefetchModeName(prefetch),
              static_cast<unsigned long long>(stats.cache.prefetch_issued),
              static_cast<unsigned long long>(stats.cache.prefetch_hits),
              static_cast<unsigned long long>(stats.cache.prefetch_wasted),
              static_cast<unsigned long long>(stats.prefetch.cancelled));
  std::printf("churn:        deduped=%llu stale_skipped=%llu "
              "cancellation_ratio=%.3f\n",
              static_cast<unsigned long long>(stats.prefetch.deduped),
              static_cast<unsigned long long>(stats.prefetch.stale_skipped),
              stats.prefetch.CancellationRatio());
  std::printf("plan cache:   hits=%llu misses=%llu hit_rate=%.1f%%\n",
              static_cast<unsigned long long>(stats.plan.hits),
              static_cast<unsigned long long>(stats.plan.misses),
              100.0 * stats.plan.HitRate());
  std::printf("quality:      rebuffer %.2f%% (%d stalls), faults=%d "
              "retries=%d skips=%d\n",
              100.0 * stats.RebufferRatio(), stats.stall_events,
              stats.transfer_faults, stats.transfer_retries,
              stats.segments_skipped);
  if (stats.live.segments_published > 0) {
    std::printf("live ingest:  %d/%d segments published (degraded=%d), "
                "edge lag max=%.3fs mean=%.3fs final=%.3fs\n",
                stats.live.segments_published, stats.live.total_segments,
                stats.live.degraded_segments, stats.live.max_lag_seconds,
                stats.live.mean_lag_seconds, stats.live.final_lag_seconds);
  }
}

// Serves either a static video (`metadata`) or a still-growing live feed
// (`feed` non-null) over an N-node sharded cluster.
int CmdServeCluster(const VideoMetadata* metadata, LiveFeed* feed,
                    const std::vector<ViewerRequest>& viewers,
                    const ServerOptions& server_options, int nodes,
                    size_t l1_bytes, size_t l2_bytes, int io_threads,
                    PrefetchMode prefetch) {
  ShardedStoreOptions store_options;
  store_options.backend.root = StoreRoot();
  store_options.backend.io_threads = io_threads;
  store_options.shards = nodes;  // one backend shard per serving node
  store_options.l2_capacity_bytes = l2_bytes;
  auto store = ShardedStore::Open(store_options);
  if (!store.ok()) Fail(store.status(), "sharded store");

  ClusterOptions cluster_options;
  cluster_options.nodes = nodes;
  cluster_options.l1_capacity_bytes = l1_bytes;
  cluster_options.node = server_options;
  ClusterServer cluster(store->get(), cluster_options);
  auto run = [&] {
    if (feed != nullptr) return cluster.RunLive(feed, viewers);
    std::vector<VideoMetadata> videos = {*metadata};
    return cluster.Run(videos, viewers);
  }();
  if (!run.ok()) Fail(run.status(), "cluster run");

  std::printf("cluster:      %d nodes x %d shards (L1 %.1f MiB/node, L2 "
              "%.1f MiB shared)\n",
              nodes, store->get()->shard_count(), l1_bytes / 1048576.0,
              l2_bytes / 1048576.0);
  PrintServeSummary(run->totals, prefetch);
  std::printf("tiered cache: L1 %.1f%% hit rate, L2 %.1f%% of L1 misses "
              "(%llu hits), spillovers=%d\n",
              100.0 * run->totals.cache.HitRate(), 100.0 * run->l2.HitRate(),
              static_cast<unsigned long long>(run->l2.hits),
              run->spillovers());
  std::printf("%-6s %8s %9s %6s %10s %8s %9s\n", "node", "placed", "locality",
              "spill", "bytes", "l1_hit%", "host_s");
  for (const ClusterNodeStats& node : run->nodes) {
    std::printf("%-6d %8d %9d %6d %10llu %7.1f%% %9.3f\n", node.node_id,
                node.sessions_placed, node.locality_placements,
                node.spillovers,
                static_cast<unsigned long long>(node.bytes_sent),
                100.0 * node.l1.HitRate(), node.host_seconds);
  }
  return 0;
}

int CmdServeSim(VisualCloud* db, const std::string& name, int viewer_count,
                int slots, double budget_mbps, double faults_per_minute,
                PrefetchMode prefetch, int nodes, size_t l1_bytes,
                size_t l2_bytes, int io_threads) {
  auto metadata = db->Describe(name);
  if (!metadata.ok()) Fail(metadata.status(), "serve-sim");
  double seconds = 0;
  for (const SegmentInfo& s : metadata->segments) {
    seconds += s.frame_count / metadata->fps();
  }

  // One viewer per archetype round-robin, arrivals staggered 250 ms apart.
  const std::vector<std::string>& archetypes = ViewerArchetypes();
  std::vector<ViewerRequest> viewers;
  for (int i = 0; i < viewer_count; ++i) {
    auto trace_options =
        ArchetypeOptions(archetypes[i % archetypes.size()], /*seed=*/1 + i);
    if (!trace_options.ok()) Fail(trace_options.status(), "archetype");
    trace_options->duration_seconds = seconds;
    auto trace = SynthesizeTrace(*trace_options);
    if (!trace.ok()) Fail(trace.status(), "trace");
    ViewerRequest viewer;
    viewer.trace = std::move(*trace);
    viewer.session.network.bandwidth_bps = 50e6;
    viewer.session.network.seed = 1000 + i;
    viewer.session.viewport.fov_yaw = DegToRad(90);
    viewer.session.viewport.fov_pitch = DegToRad(75);
    if (faults_per_minute > 0) {
      viewer.session.network.faults.episodes_per_minute = faults_per_minute;
      viewer.session.network.faults.episode_seconds = 2.0;
      viewer.session.network.faults.timeout_seconds = 1.0;
      viewer.session.network.faults.seed = 500 + i;
    }
    viewer.arrival_seconds = 0.25 * i;
    viewers.push_back(std::move(viewer));
  }

  ServerOptions server_options;
  server_options.max_concurrent_sessions = slots;
  server_options.bandwidth_budget_bps = budget_mbps * 1e6;
  server_options.prefetch = prefetch;

  if (nodes > 1) {
    std::printf("served '%s' to %d viewers (%d slots/node, %.0f Mbps "
                "budget/node)\n",
                name.c_str(), viewer_count, slots, budget_mbps);
    return CmdServeCluster(&*metadata, nullptr, viewers, server_options,
                           nodes, l1_bytes, l2_bytes, io_threads, prefetch);
  }

  StreamingServer server(db->storage(), server_options);
  auto stats = server.Run(*metadata, viewers);
  if (!stats.ok()) Fail(stats.status(), "server run");

  std::printf("served '%s' to %d viewers (%d slots, %.0f Mbps budget)\n",
              name.c_str(), viewer_count, slots, budget_mbps);
  PrintServeSummary(*stats, prefetch);
  std::printf("shared cache: %.1f%% hit rate (%llu hits, %llu misses)\n",
              100.0 * stats->cache.HitRate(),
              static_cast<unsigned long long>(stats->cache.hits),
              static_cast<unsigned long long>(stats->cache.misses));
  return 0;
}

// Live broadcast simulation: synthesize a scene, ingest it segment-by-
// segment through a LiveFeed while viewers join mid-stream at the live
// edge. The finished feed stays in the catalog as an ordinary archived
// video (same bytes the offline ingest would have produced).
int CmdLiveSim(VisualCloud* db, const std::string& scene_name,
               const std::string& video_name, int viewer_count, int seconds,
               double encode_ms, double lag_budget_ms, PrefetchMode prefetch,
               int nodes, size_t l1_bytes, size_t l2_bytes, int io_threads) {
  SceneOptions scene_options;
  scene_options.width = 256;
  scene_options.height = 128;
  auto scene = MakeScene(scene_name, scene_options);
  if (!scene.ok()) Fail(scene.status(), "scene");

  IngestOptions ingest;
  ingest.tile_rows = 4;
  ingest.tile_cols = 8;
  ingest.frames_per_segment = 15;
  ingest.fps = 15.0;

  LiveFeedOptions feed_options;
  feed_options.encode_seconds = encode_ms / 1000.0;
  if (lag_budget_ms > 0) {
    feed_options.max_lag_seconds = lag_budget_ms / 1000.0;
    feed_options.degraded_encode_seconds = feed_options.encode_seconds / 4.0;
  }
  int frame_count = seconds * 15;
  auto feed = LiveFeed::Create(db, video_name, **scene, frame_count, ingest,
                               feed_options);
  if (!feed.ok()) Fail(feed.status(), "live feed");
  double duration = frame_count / ingest.fps;

  // Viewers join throughout the first half of the broadcast (archetype
  // round-robin) and stream from the live edge to the end.
  const std::vector<std::string>& archetypes = ViewerArchetypes();
  std::vector<ViewerRequest> viewers;
  for (int i = 0; i < viewer_count; ++i) {
    auto trace_options =
        ArchetypeOptions(archetypes[i % archetypes.size()], /*seed=*/1 + i);
    if (!trace_options.ok()) Fail(trace_options.status(), "archetype");
    trace_options->duration_seconds = duration;
    auto trace = SynthesizeTrace(*trace_options);
    if (!trace.ok()) Fail(trace.status(), "trace");
    ViewerRequest viewer;
    viewer.trace = std::move(*trace);
    viewer.session.network.bandwidth_bps = 50e6;
    viewer.session.network.seed = 1000 + i;
    viewer.session.viewport.fov_yaw = DegToRad(90);
    viewer.session.viewport.fov_pitch = DegToRad(75);
    viewer.arrival_seconds =
        viewer_count > 1 ? duration * 0.5 * i / (viewer_count - 1) : 0.0;
    viewers.push_back(std::move(viewer));
  }

  std::printf("live '%s': %ds broadcast, %d segments, encode %.0f ms%s, "
              "%d viewers joining over %.1fs\n",
              video_name.c_str(), seconds,
              (*feed)->final_segment_count(), encode_ms,
              lag_budget_ms > 0 ? " (degrading)" : "", viewer_count,
              duration * 0.5);

  ServerOptions server_options;
  server_options.prefetch = prefetch;
  if (nodes > 1) {
    return CmdServeCluster(nullptr, feed->get(), viewers, server_options,
                           nodes, l1_bytes, l2_bytes, io_threads, prefetch);
  }

  StreamingServer server(db->storage(), server_options);
  auto stats = server.RunLive(feed->get(), viewers);
  if (!stats.ok()) Fail(stats.status(), "live run");
  PrintServeSummary(*stats, prefetch);
  std::printf("archived:     '%s' v%u now a regular catalog video\n",
              video_name.c_str(), (*feed)->final_version());
  return 0;
}

int CmdMetrics(VisualCloud* db, const std::vector<std::string>& args) {
  std::string format = "json";
  std::string name;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "json" || args[i] == "csv") {
      format = args[i];
    } else {
      name = args[i];
    }
  }

  // With a video name, run one quiet streaming session first so the
  // snapshot carries live counters from every instrumented subsystem.
  if (!name.empty()) {
    auto metadata = db->Describe(name);
    if (!metadata.ok()) Fail(metadata.status(), "metrics");
    double seconds = 0;
    for (const SegmentInfo& s : metadata->segments) {
      seconds += s.frame_count / metadata->fps();
    }
    auto trace_options = ArchetypeOptions("explorer", /*seed=*/1);
    if (!trace_options.ok()) Fail(trace_options.status(), "archetype");
    trace_options->duration_seconds = seconds;
    auto trace = SynthesizeTrace(*trace_options);
    SessionOptions session;
    session.viewport.fov_yaw = DegToRad(90);
    session.viewport.fov_pitch = DegToRad(75);
    auto stats = SimulateSession(db->storage(), *metadata, *trace, session);
    if (!stats.ok()) Fail(stats.status(), "session");

    // One viewport query as well, so the query.* counters are non-zero.
    Query query = Query::Scan(name)
                      .TimeSlice(0.0, metadata->segment_duration_seconds())
                      .Viewport(kPi, kPi / 2, DegToRad(100), DegToRad(80))
                      .QualityFloor(0);
    auto executed = ExecuteQuery(query, db->storage());
    if (!executed.ok()) Fail(executed.status(), "query");
  }

  MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  if (format == "csv") {
    std::fputs(MetricsToCsv(snapshot).c_str(), stdout);
  } else {
    std::printf("%s\n", MetricsToJson(snapshot).c_str());
  }
  return 0;
}

int CmdExport(VisualCloud* db, const std::string& name,
              const std::string& path, int quality) {
  auto metadata = db->Describe(name);
  if (!metadata.ok()) Fail(metadata.status(), "export");
  auto video = ExportMonolithic(db->storage(), *metadata, quality);
  if (!video.ok()) Fail(video.status(), "export");
  auto bytes = video->Serialize();
  if (Status s = Env::Default()->WriteFile(path, Slice(bytes)); !s.ok()) {
    Fail(s, "write");
  }
  std::printf("exported '%s' q%d to %s (%.1f KB, %zu frames, no transcode)\n",
              name.c_str(), quality, path.c_str(), bytes.size() / 1024.0,
              video->frames.size());
  return 0;
}

int CmdQuery(VisualCloud* db, const std::string& expr, bool explain_only) {
  auto parsed = ParseQuery(Slice(expr));
  if (!parsed.ok()) Fail(parsed.status(), "query");

  // Offer every fresh materialized view; subsumed queries serve stored
  // view cells byte-identically instead of re-deriving.
  ViewCatalog views(db->storage()->env(), db->storage()->root());
  auto candidates = views.Candidates(*db->storage());
  if (!candidates.ok()) Fail(candidates.status(), "view catalog");
  OptimizeOptions optimize_options;
  optimize_options.views = &*candidates;

  auto plan = Optimize(*parsed, db->storage(), optimize_options);
  if (!plan.ok()) Fail(plan.status(), "optimize");
  std::fputs(plan->Explain().c_str(), stdout);
  if (explain_only) return 0;

  auto result = ExecutePlan(*plan, db->storage());
  if (!result.ok()) Fail(result.status(), "execute");

  std::printf("executed: %d cells scanned, %d pruned", result->cells_scanned,
              result->cells_pruned);
  if (result->transcodes_avoided > 0) {
    std::printf(", %d transcodes avoided", result->transcodes_avoided);
  }
  if (result->transcodes > 0) {
    std::printf(", %d transcodes", result->transcodes);
  }
  std::printf("\n");
  if (!result->frames.empty()) {
    std::printf("result: %zu decoded frames (%dx%d)\n",
                result->frames.size(), result->frames[0].width(),
                result->frames[0].height());
  }
  if (result->has_encoded) {
    std::printf("result: encoded stream, %zu frames, %.1f KB%s\n",
                result->encoded.frames.size(),
                result->encoded.size_bytes() / 1024.0,
                plan->sink == SinkKind::kToFile
                    ? (" -> " + plan->target).c_str()
                    : "");
  }
  if (plan->sink == SinkKind::kStore) {
    std::printf("stored: '%s' v%u\n", plan->target.c_str(),
                result->stored_version);
  }
  if (!plan->view_served.empty()) {
    std::printf("served from view '%s'\n", plan->view_served.c_str());
  }
  return 0;
}

int CmdQueryStanding(VisualCloud* db, const std::string& expr) {
  ViewMaintainer maintainer(db);
  auto name = maintainer.Register(Slice(expr));
  if (!name.ok()) Fail(name.status(), "standing query");
  // Catch-up replay: one emission per committed defining-plan slice.
  if (Status s = maintainer.Maintain(*name); !s.ok()) Fail(s, "maintain");
  auto results = maintainer.Results(*name);
  if (!results.ok()) Fail(results.status(), "results");
  std::printf("standing '%s': %zu segment results\n", name->c_str(),
              results->size());
  std::printf("%5s %8s %6s %10s %10s %6s\n", "idx", "src_seg", "src_v",
              "bytes", "crc32", "cells");
  for (const StandingQueryResult& r : *results) {
    std::printf("%5d %8d %6u %10llu %10u %6d\n", r.index, r.source_segment,
                r.source_version, static_cast<unsigned long long>(r.bytes),
                r.checksum, r.cells_scanned);
  }
  return 0;
}

int CmdViewCreate(VisualCloud* db, const std::string& name,
                  const std::string& expr) {
  ViewMaintainer maintainer(db);
  if (Status s = maintainer.CreateView(name, Slice(expr)); !s.ok()) {
    Fail(s, "view create");
  }
  if (Status s = maintainer.Maintain(name); !s.ok()) Fail(s, "view create");
  auto def = maintainer.catalog()->Load(name);
  if (!def.ok()) Fail(def.status(), "view create");
  std::printf("view '%s' over '%s' v%u: %d segments materialized\n",
              name.c_str(), def->source.c_str(), def->source_version,
              def->segments);
  std::printf("defining query: %s\n", def->query.c_str());
  return 0;
}

int CmdViewList(VisualCloud* db) {
  ViewCatalog catalog(db->storage()->env(), db->storage()->root());
  auto names = catalog.List();
  if (!names.ok()) Fail(names.status(), "view list");
  if (names->empty()) {
    std::printf("(no views — try: vcctl view create best "
                "'scan(demo) | quality(high) | encode | store(best)')\n");
    return 0;
  }
  std::printf("%-20s %-20s %8s %9s %-6s\n", "view", "source", "src_ver",
              "segments", "state");
  for (const std::string& name : *names) {
    auto def = catalog.Load(name);
    if (!def.ok()) {
      std::printf("%-20s (unreadable: %s)\n", name.c_str(),
                  def.status().ToString().c_str());
      continue;
    }
    const char* state = "stale";
    if (def->source_version == 0) {
      state = "empty";
    } else {
      auto source = db->storage()->GetVideo(def->source);
      if (source.ok() && source->version == def->source_version) {
        state = "fresh";
      }
    }
    std::printf("%-20s %-20s %8u %9d %-6s\n", def->name.c_str(),
                def->source.c_str(), def->source_version, def->segments,
                state);
  }
  return 0;
}

int CmdViewRefresh(VisualCloud* db, const std::string& name) {
  ViewMaintainer maintainer(db);
  if (Status s = maintainer.RefreshView(name); !s.ok()) {
    Fail(s, "view refresh");
  }
  auto def = maintainer.catalog()->Load(name);
  if (!def.ok()) Fail(def.status(), "view refresh");
  std::printf("refreshed view '%s': %d segments over '%s' v%u\n",
              name.c_str(), def->segments, def->source.c_str(),
              def->source_version);
  return 0;
}

int CmdDemo(VisualCloud* db) {
  std::printf("== vcctl demo: ingest + compare approaches ==\n");
  CmdIngest(db, "venice", "demo", "4x8", 10);
  for (const char* approach :
       {"monolithic", "uniform_dash", "visualcloud", "oracle"}) {
    std::printf("\n-- %s --\n", approach);
    CmdStream(db, "demo", approach, "dead_reckoning", 20.0, "explorer");
  }
  std::printf("\n-- metrics (all four sessions) --\n%s\n",
              MetricsToJson(MetricRegistry::Global().Snapshot()).c_str());
  std::printf("\n(store kept at %s; try 'vcctl ls')\n", StoreRoot().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  // Global flags, stripped before command dispatch (they configure the
  // store itself, which opens before any command runs). Any other --flag is
  // an error: print usage and exit non-zero rather than silently treating
  // it as a positional argument.
  int io_threads = 0;
  int nodes = 1;
  size_t l1_bytes = 16ull << 20;
  size_t l2_bytes = 256ull << 20;
  PrefetchMode prefetch = PrefetchMode::kOff;
  bool standing = false;  // query --standing
  // --flag <integer> options share one parse-and-erase path.
  auto int_flag = [&args](size_t i, long long* out) {
    if (i + 1 >= args.size()) {
      std::fprintf(stderr, "vcctl: %s needs a value\n", args[i].c_str());
      PrintUsage(stderr);
      std::exit(2);
    }
    *out = std::atoll(args[i + 1].c_str());
    args.erase(args.begin() + i, args.begin() + i + 2);
  };
  for (size_t i = 0; i < args.size();) {
    if (args[i] == "--help" || args[i] == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    long long value = 0;
    if (args[i] == "--io-threads") {
      int_flag(i, &value);
      io_threads = static_cast<int>(value);
    } else if (args[i] == "--nodes") {
      int_flag(i, &value);
      nodes = static_cast<int>(value);
    } else if (args[i] == "--l1-bytes") {
      int_flag(i, &value);
      l1_bytes = value < 0 ? 0 : static_cast<size_t>(value);
    } else if (args[i] == "--l2-bytes") {
      int_flag(i, &value);
      l2_bytes = value < 0 ? 0 : static_cast<size_t>(value);
    } else if (args[i] == "--prefetch") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "vcctl: --prefetch needs a value\n");
        PrintUsage(stderr);
        return 2;
      }
      const std::string& mode = args[i + 1];
      if (mode == "off") {
        prefetch = PrefetchMode::kOff;
      } else if (mode == "predict") {
        prefetch = PrefetchMode::kPredict;
      } else if (mode == "popularity") {
        prefetch = PrefetchMode::kPopularity;
      } else {
        std::fprintf(stderr,
                     "vcctl: unknown --prefetch mode '%s' (off, predict, "
                     "popularity)\n",
                     mode.c_str());
        PrintUsage(stderr);
        return 2;
      }
      args.erase(args.begin() + i, args.begin() + i + 2);
    } else if (args[i] == "--standing") {
      standing = true;
      args.erase(args.begin() + i);
    } else if (args[i].rfind("--", 0) == 0) {
      std::fprintf(stderr, "vcctl: unknown flag '%s'\n", args[i].c_str());
      PrintUsage(stderr);
      return 2;
    } else {
      ++i;
    }
  }

  if (!args.empty() && args[0] == "help") {
    PrintUsage(stdout);
    return 0;
  }

  auto db = OpenStore(io_threads);
  if (args.empty()) return CmdDemo(db.get());

  const std::string& command = args[0];
  auto arg = [&args](size_t i, const char* fallback) {
    return args.size() > i ? args[i] : std::string(fallback);
  };
  if (command == "ingest" && args.size() >= 3) {
    return CmdIngest(db.get(), args[1], args[2], arg(3, "4x8"),
                     std::atoi(arg(4, "10").c_str()));
  }
  if (command == "ls") return CmdLs(db.get());
  if (command == "describe" && args.size() >= 2) {
    return CmdDescribe(db.get(), args[1]);
  }
  if (command == "manifest" && args.size() >= 2) {
    return CmdManifest(db.get(), args[1]);
  }
  if (command == "stream" && args.size() >= 2) {
    return CmdStream(db.get(), args[1], arg(2, "visualcloud"),
                     arg(3, "dead_reckoning"),
                     std::atof(arg(4, "20").c_str()), arg(5, "explorer"));
  }
  if ((command == "serve-sim" || command == "live-sim") &&
      prefetch != PrefetchMode::kOff && io_threads <= 0) {
    std::fprintf(stderr,
                 "vcctl: --prefetch needs an I/O pool; add --io-threads N "
                 "(continuing without speculation)\n");
  }
  if (command == "serve-sim" && args.size() >= 2) {
    return CmdServeSim(db.get(), args[1], std::atoi(arg(2, "16").c_str()),
                       std::atoi(arg(3, "64").c_str()),
                       std::atof(arg(4, "0").c_str()),
                       std::atof(arg(5, "0").c_str()), prefetch, nodes,
                       l1_bytes, l2_bytes, io_threads);
  }
  if (command == "live-sim" && args.size() >= 3) {
    return CmdLiveSim(db.get(), args[1], args[2],
                      std::atoi(arg(3, "8").c_str()),
                      std::atoi(arg(4, "10").c_str()),
                      std::atof(arg(5, "200").c_str()),
                      std::atof(arg(6, "0").c_str()), prefetch, nodes,
                      l1_bytes, l2_bytes, io_threads);
  }
  if (command == "query" && args.size() >= 2) {
    if (standing) return CmdQueryStanding(db.get(), args[1]);
    return CmdQuery(db.get(), args[1], arg(2, "") == "explain");
  }
  if (command == "view" && args.size() >= 2) {
    const std::string& sub = args[1];
    if (sub == "create" && args.size() >= 4) {
      return CmdViewCreate(db.get(), args[2], args[3]);
    }
    if (sub == "list") return CmdViewList(db.get());
    if (sub == "refresh" && args.size() >= 3) {
      return CmdViewRefresh(db.get(), args[2]);
    }
    std::fprintf(stderr, "vcctl: unknown or incomplete view command '%s'\n",
                 sub.c_str());
    PrintUsage(stderr);
    return 2;
  }
  if (command == "metrics") return CmdMetrics(db.get(), args);
  if (command == "export" && args.size() >= 3) {
    return CmdExport(db.get(), args[1], args[2],
                     std::atoi(arg(3, "0").c_str()));
  }
  if (command == "drop" && args.size() >= 2) {
    if (Status s = db->Drop(args[1]); !s.ok()) Fail(s, "drop");
    std::printf("dropped '%s'\n", args[1].c_str());
    return 0;
  }
  std::fprintf(stderr, "vcctl: unknown or incomplete command '%s'\n",
               command.c_str());
  PrintUsage(stderr);
  return 2;
}
