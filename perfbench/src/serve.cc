// Workloads `serve_hot` and `serve_cold`: one simulated serving run of a
// 1,000-viewer cohort per repeat, repeated for the measured time.
//
// serve_hot  — one-node StreamingServer on a pre-ingested coaster catalog.
//              E11-style cohort cycled from a 48-slot pool of (trace,
//              network) seeds, arrivals on a 25 ms comb, 50 Mbps, shared
//              plans, and a cell cache that holds the whole catalog.
// serve_cold — 4-node ClusterServer over a 4-shard ShardedStore serving all
//              three canonical videos. Every viewer has its own trace,
//              network seed and fault seed; bandwidth cycles 5-40 Mbps with
//              2 fault episodes per minute; arrivals spread over the video
//              length; L1 256 KiB and L2 2 MiB, far under the catalog.
//
// Host time is the wall time of the public Run() call. The simulated outcome
// (bytes, stalls, faults, skips) is the oracle: it must repeat exactly across
// repeats of one seed and between the traced and untraced halves.

#include <algorithm>
#include <optional>

#include "harness.h"
#include "predict/trace_synthesizer.h"
#include "server/cluster_server.h"
#include "server/streaming_server.h"
#include "storage/sharded_store.h"

namespace perfbench {

namespace {

constexpr int kViewers = 1000;

// The deterministic part of a run, and the figures derived from it.
struct Outcome {
  uint64_t digest = 0;
  uint64_t vsegs = 0;  // viewer-segments attempted
  uint64_t bytes = 0;
  double rebuffer_ratio = 0.0;
  double inview_rung = 0.0;
  uint64_t faults = 0, retries = 0, skips = 0, rejected = 0;
};

Outcome Summarize(const vc::ServerStats& stats) {
  Outcome out;
  Digest digest;
  double rung_sum = 0.0;
  for (const vc::SessionStats& s : stats.sessions) {
    out.vsegs += s.segments;
    rung_sum += s.mean_inview_quality * s.segments;
    digest.Add(s.bytes_sent);
    digest.AddDouble(s.stall_seconds);
    digest.Add(s.stall_events);
    digest.AddDouble(s.mean_inview_quality);
  }
  for (int index : stats.admitted) digest.Add(index);
  out.bytes = stats.bytes_sent;
  out.rebuffer_ratio = stats.RebufferRatio();
  out.inview_rung = out.vsegs > 0 ? rung_sum / out.vsegs : 0.0;
  out.faults = stats.transfer_faults;
  out.retries = stats.transfer_retries;
  out.skips = stats.segments_skipped;
  out.rejected = stats.sessions_rejected;
  digest.Add(stats.bytes_sent);
  digest.AddDouble(stats.wall_seconds);
  digest.AddDouble(stats.stall_seconds);
  digest.Add(stats.stall_events);
  digest.Add(out.faults);
  digest.Add(out.retries);
  digest.Add(out.skips);
  digest.Add(stats.sessions_completed);
  digest.Add(out.rejected);
  out.digest = digest.value();
  return out;
}

// Checks one repeat against the reference run and books its operations:
// every viewer-segment of a repeat whose outcome is wrong counts as failed.
// Segments the simulated network made the session skip, and sessions
// admission rejected, are part of the expected outcome, not failures of
// the program; serve_skipped_ratio reports them.
void CheckRepeat(const Outcome& got, const Outcome& reference,
                 Report* report) {
  bool ok = true;
  if (got.digest != reference.digest) {
    report->Fail("simulated outcome differs between repeats of one seed");
    ok = false;
  }
  if (got.faults != got.retries + got.skips) {
    report->Fail("transfer_faults != transfer_retries + segments_skipped");
    ok = false;
  }
  report->Attempt(got.vsegs, ok ? 0 : got.vsegs);
}

// Host-time figures of a measured phase.
struct Phase {
  std::vector<double> cpu_us;   // per repeat: CPU µs per viewer-segment
  std::vector<double> wall_us;  // per repeat: wall µs per viewer-segment
  std::vector<double> run_cpu_ms;  // per repeat: CPU ms of the Run() call
  double host_s = 0.0;             // wall seconds of every Run() call
  double vsegs = 0.0;
  HostSpeed speed;
};

// Repeats `run_once` (one timed Run(); returns its totals and timings)
// until `seconds` have passed. The first repeat of the process becomes the
// reference outcome every later repeat must reproduce exactly.
template <typename RunOnce>
Phase RunPhase(RunOnce&& run_once, double seconds,
               std::optional<Outcome>* reference, Report* report) {
  Phase phase;
  const double deadline = NowSeconds() + seconds;
  do {
    Clocks took;
    Outcome got = Summarize(run_once(&took));
    if (!reference->has_value()) *reference = got;
    CheckRepeat(got, **reference, report);
    phase.cpu_us.push_back(took.cpu * 1e6 / got.vsegs);
    phase.speed.Sample();
    phase.wall_us.push_back(took.wall * 1e6 / got.vsegs);
    phase.run_cpu_ms.push_back(took.cpu * 1e3);
    phase.host_s += took.wall;
    phase.vsegs += got.vsegs;
  } while (NowSeconds() < deadline);
  return phase;
}

void ReportOutcome(const Outcome& reference, const Clocks& setup,
                   const Phase& phase, Report* report) {
  report->EndToEnd("setup_s", setup.cpu);
  const double scale = phase.speed.Scale();
  report->EndToEnd("norm_cpu_us_per_unit", Median(phase.cpu_us) * scale);
  report->EndToEnd("norm_op_cpu_p50_ms",
                   Percentile(phase.run_cpu_ms, 0.5) * scale);
  report->EndToEnd("norm_op_cpu_p90_ms",
                   Percentile(phase.run_cpu_ms, 0.9) * scale);
  report->EndToEnd("bytes_per_unit",
                   static_cast<double>(reference.bytes) / reference.vsegs);
  report->Detail("setup_wall_s", setup.wall, "s", kSetups);
  report->Detail("serve_host_us_per_vseg", Median(phase.wall_us), "us",
                 phase.wall_us.size());
  report->Detail("serve_cpu_us_per_vseg", Median(phase.cpu_us), "us",
                 phase.cpu_us.size());
  ReportHostSpeed(phase.speed, report);
}

void ReportDeterministic(const Outcome& reference, Report* report) {
  report->Detail("serve_bytes_per_vseg",
                 static_cast<double>(reference.bytes) / reference.vsegs,
                 "bytes");
  report->Detail("serve_rebuffer_ratio", reference.rebuffer_ratio, "ratio");
  report->Detail("serve_inview_rung", reference.inview_rung, "rung");
  report->Detail("serve_viewer_segments", static_cast<double>(reference.vsegs),
                 "count");
  report->Detail("serve_transfer_faults", static_cast<double>(reference.faults),
                 "count");
  report->Detail("serve_segments_skipped", static_cast<double>(reference.skips),
                 "count");
  report->Detail("serve_skipped_ratio",
                 static_cast<double>(reference.skips + reference.rejected) /
                     static_cast<double>(reference.vsegs + reference.rejected),
                 "ratio");
  report->SetOutcome(reference.digest);
}

// Per-layer figures both serve workloads share, from one traced phase.
void ReportServeLayers(const RegistryDelta& delta, const Outcome& reference,
                       const vc::ServerStats& last, double vsegs,
                       Report* report) {
  const double plan_s = delta.HistSum("session.plan_seconds");
  report->Layer("core.plan_us", delta.HistMean("session.plan_seconds") * 1e6);
  report->Layer("core.plan_us_per_vseg", plan_s * 1e6 / vsegs);
  report->Layer("core.plan_cache_hit_rate", last.plan.HitRate());
  const std::string predictor = CanonicalSession().predictor;
  const double hits =
      delta.Counter("predict." + predictor + ".viewport_hits");
  const double misses =
      delta.Counter("predict." + predictor + ".viewport_misses");
  report->Layer("predict.viewport_hit_rate",
                hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report->Layer("core.quality_downgrades_per_vseg",
                delta.Counter("session.quality_downgrades") / vsegs);
  report->Layer("streaming.transfer_faults_per_vseg",
                static_cast<double>(reference.faults) / reference.vsegs);
  report->Layer("streaming.retries_per_vseg",
                static_cast<double>(reference.retries) / reference.vsegs);
  report->Layer("storage.backend_read_us",
                delta.HistSum("storage.demand_miss_seconds") * 1e6 / vsegs);
}

vc::HeadTrace Trace(int archetype, uint64_t seed) {
  const std::vector<std::string>& archetypes = vc::ViewerArchetypes();
  auto options = CheckOk(
      vc::ArchetypeOptions(archetypes[archetype % archetypes.size()], seed),
      "trace options");
  options.duration_seconds = kVideoSeconds;
  return CheckOk(vc::SynthesizeTrace(options), "trace");
}

// E11 cohort: viewer i replays pool slot i % 48 and arrives on a 100-slot,
// 25 ms comb.
std::vector<vc::ViewerRequest> HotCohort(uint64_t seed) {
  constexpr int kPool = 48;
  std::vector<vc::HeadTrace> traces;
  for (int p = 0; p < kPool; ++p) {
    traces.push_back(Trace(p, SubSeed(seed, 2, p)));
  }
  std::vector<vc::ViewerRequest> viewers(kViewers);
  for (int i = 0; i < kViewers; ++i) {
    viewers[i].trace = traces[i % kPool];
    viewers[i].session = CanonicalSession();
    viewers[i].session.network.seed = SubSeed(seed, 3, i % kPool);
    viewers[i].arrival_seconds = 0.025 * (i % 100);
  }
  return viewers;
}

// serve_cold cohort: every viewer distinct, spread over the three videos.
std::vector<vc::ViewerRequest> ColdCohort(uint64_t seed) {
  constexpr double kLevels[] = {40e6, 20e6, 10e6, 5e6};
  constexpr double kStepSeconds = 5.0;
  std::vector<vc::ViewerRequest> viewers(kViewers);
  for (int i = 0; i < kViewers; ++i) {
    vc::ViewerRequest& viewer = viewers[i];
    viewer.video = i % 3;
    viewer.trace = Trace(i, SubSeed(seed, 4, i));
    viewer.session = CanonicalSession();
    vc::NetworkOptions& network = viewer.session.network;
    network.seed = SubSeed(seed, 5, i);
    // Bandwidth cycles 40 -> 20 -> 10 -> 5 Mbps every 5 s, phase per viewer.
    for (int step = 0; step < 12; ++step) {
      network.bandwidth_trace.emplace_back(step * kStepSeconds,
                                           kLevels[(step + i) % 4]);
    }
    network.bandwidth_bps = network.bandwidth_trace.front().second;
    network.faults.episodes_per_minute = 2.0;
    network.faults.seed = SubSeed(seed, 6, i);
    viewer.arrival_seconds = kVideoSeconds * static_cast<double>(i) / kViewers;
  }
  return viewers;
}

}  // namespace

void RunServeHot(const Options& options, Report* report) {
  vc::Env* env_base = StoreEnv();
  const std::string root = "/perfbench/serve_hot";
  std::unique_ptr<vc::VisualCloud> db;
  vc::VideoMetadata metadata;
  std::vector<vc::ViewerRequest> viewers;

  vc::ServerOptions server_options;
  server_options.max_concurrent_sessions = kViewers;
  vc::ServerStats last;
  auto run_once = [&](vc::StorageManager* storage,
                      const std::vector<vc::ViewerRequest>& cohort,
                      Clocks* took) {
    storage->ClearCache();
    vc::StreamingServer server(storage, server_options);
    const Clocks start = Clocks::Now();
    last = CheckOk(server.Run(metadata, cohort), "serve run");
    *took = start.Elapsed();
    return last;
  };

  // Set-up: catalog ingest, cohort synthesis, one discarded warm-up run.
  const Clocks setup = TimedSetups([&] {
    db.reset();
    db = OpenFreshStore(env_base, root);
    auto scene = MakeCanonicalScene("coaster", SubSeed(options.seed, 1, 2));
    CheckOk(db->IngestScene("coaster", *scene, kVideoSeconds * kFps,
                            CanonicalIngest())
                .status(),
            "ingest coaster");
    metadata = CheckOk(db->Describe("coaster"), "describe");
    viewers = HotCohort(options.seed);
    Clocks took;
    run_once(db->storage(), viewers, &took);
  });

  std::optional<Outcome> reference;
  auto plain = [&](Clocks* took) {
    return run_once(db->storage(), viewers, took);
  };
  if (!options.trace) {
    Phase phase = RunPhase(plain, options.seconds, &reference, report);
    ReportOutcome(*reference, setup, phase, report);
  } else {
    Phase untraced = RunPhase(plain, options.seconds / 2, &reference, report);
    // Traced half: the same catalog opened through a timing Env, and every
    // session's cell fetches routed through a timing CellSource.
    TimingEnv env(env_base);
    vc::StorageOptions storage_options;
    storage_options.env = &env;
    storage_options.root = root;
    auto storage =
        CheckOk(vc::StorageManager::Open(storage_options), "open traced store");
    TimingCellSource source(storage.get());
    std::vector<vc::ViewerRequest> traced_viewers = viewers;
    for (vc::ViewerRequest& viewer : traced_viewers) {
      viewer.session.cell_source = &source;
    }
    RegistryDelta delta;
    Phase traced = RunPhase(
        [&](Clocks* took) {
          return run_once(storage.get(), traced_viewers, took);
        },
        options.seconds / 2, &reference, report);
    delta.Finish();
    const double vsegs = traced.vsegs;
    const double fetch_us = source.fetch_ns() * 1e-3 / vsegs;
    const double plan_us = delta.HistSum("session.plan_seconds") * 1e6 / vsegs;
    ReportServeLayers(delta, *reference, last, vsegs, report);
    report->Layer("storage.fetch_us_per_vseg", fetch_us);
    report->Layer("storage.l1_hit_rate", last.cache.HitRate());
    report->Layer("storage.backend_reads_per_vseg", env.totals().reads / vsegs);
    report->Layer("storage.env_read_us", env.totals().read_ns * 1e-3 / vsegs);
    report->Layer("storage.evictions_per_vseg",
                  delta.Counter("cache.evictions") / vsegs);
    report->Layer("server.unattributed_us_per_vseg",
                  traced.host_s * 1e6 / vsegs - plan_us - fetch_us);
    ReportOverhead(Median(untraced.cpu_us) * untraced.speed.Scale(),
                   Median(traced.cpu_us) * traced.speed.Scale(), report);
  }
  ReportDeterministic(*reference, report);
  report->EndToEnd("peak_rss_mb", PeakRssMb());
  db.reset();
  CheckOk(env_base->RemoveDirRecursive(root), "remove serve_hot store");
}

void RunServeCold(const Options& options, Report* report) {
  vc::Env* env_base = StoreEnv();
  const std::string root = "/perfbench/serve_cold";
  std::vector<vc::VideoMetadata> videos;
  std::vector<vc::ViewerRequest> viewers;

  auto open_store = [&](vc::Env* env) {
    vc::ShardedStoreOptions store_options;
    store_options.backend.env = env;
    store_options.backend.root = root;
    store_options.shards = 4;
    store_options.l2_capacity_bytes = 2ull << 20;
    return CheckOk(vc::ShardedStore::Open(store_options), "open sharded store");
  };
  vc::ClusterOptions cluster_options;
  cluster_options.nodes = 4;
  cluster_options.l1_capacity_bytes = 256ull << 10;
  cluster_options.node.max_concurrent_sessions = kViewers;
  vc::ClusterStats last;
  auto run_once = [&](vc::ShardedStore* store,
                      const std::vector<vc::ViewerRequest>& cohort,
                      Clocks* took) {
    store->ClearL2();  // every node's L1 is created fresh by Run()
    vc::ClusterServer cluster(store, cluster_options);
    const Clocks start = Clocks::Now();
    last = CheckOk(cluster.Run(videos, cohort), "cluster run");
    *took = start.Elapsed();
    return last.totals;
  };

  // Set-up: catalog ingest, cohort synthesis, and a warm-up run of the
  // first tenth of the cohort (a full run costs seconds here, and repeated
  // set-ups would dominate the run).
  std::unique_ptr<vc::ShardedStore> store;
  const Clocks setup = TimedSetups([&] {
    store.reset();
    {
      std::unique_ptr<vc::VisualCloud> db = OpenFreshStore(env_base, root);
      const std::vector<std::string>& names = vc::StandardSceneNames();
      for (size_t i = 0; i < names.size(); ++i) {
        auto scene = MakeCanonicalScene(names[i], SubSeed(options.seed, 1, i));
        CheckOk(db->IngestScene(names[i], *scene, kVideoSeconds * kFps,
                                CanonicalIngest())
                    .status(),
                "ingest");
      }
    }
    store = open_store(env_base);
    videos.clear();
    for (const std::string& name : vc::StandardSceneNames()) {
      videos.push_back(CheckOk(store->GetVideo(name), "describe"));
    }
    viewers = ColdCohort(options.seed);
    std::vector<vc::ViewerRequest> warm(viewers.begin(),
                                        viewers.begin() + kViewers / 10);
    Clocks took;
    run_once(store.get(), warm, &took);
  });

  std::optional<Outcome> reference;
  auto plain = [&](Clocks* took) {
    return run_once(store.get(), viewers, took);
  };
  if (!options.trace) {
    Phase phase = RunPhase(plain, options.seconds, &reference, report);
    ReportOutcome(*reference, setup, phase, report);
  } else {
    Phase untraced = RunPhase(plain, options.seconds / 2, &reference, report);
    // Traced half: the backends read through a timing Env. ClusterServer
    // installs its own per-node CellSource, so the fetch time is the
    // storage.read_seconds the node views feed (their wait on each cell
    // handle) plus the Env reads of the synchronous backend loads, which
    // run before that wait and outside it.
    TimingEnv env(env_base);
    std::unique_ptr<vc::ShardedStore> traced_store = open_store(&env);
    RegistryDelta delta;
    Phase traced = RunPhase(
        [&](Clocks* took) {
          return run_once(traced_store.get(), viewers, took);
        },
        options.seconds / 2, &reference, report);
    delta.Finish();
    const double vsegs = traced.vsegs;
    const double fetch_us =
        (delta.HistSum("storage.read_seconds") * 1e6 +
         env.totals().read_ns * 1e-3) / vsegs;
    const double plan_us = delta.HistSum("session.plan_seconds") * 1e6 / vsegs;
    ReportServeLayers(delta, *reference, last.totals, vsegs, report);
    report->Layer("storage.fetch_us_per_vseg", fetch_us);
    report->Layer("storage.l1_hit_rate", last.totals.cache.HitRate());
    report->Layer("storage.l2_hit_rate", last.l2.HitRate());
    report->Layer("storage.backend_reads_per_vseg", env.totals().reads / vsegs);
    report->Layer("storage.env_read_us", env.totals().read_ns * 1e-3 / vsegs);
    report->Layer("storage.evictions_per_vseg",
                  delta.Counter("cache.evictions") / vsegs);
    report->Layer("server.unattributed_us_per_vseg",
                  traced.host_s * 1e6 / vsegs - plan_us - fetch_us);
    double max_host = 0.0, sum_host = 0.0;
    int placed = 0, local = 0;
    for (const vc::ClusterNodeStats& node : last.nodes) {
      max_host = std::max(max_host, node.host_seconds);
      sum_host += node.host_seconds;
      placed += node.sessions_placed;
      local += node.locality_placements;
    }
    report->Layer("server.node_host_imbalance",
                  sum_host > 0 ? max_host / (sum_host / last.nodes.size())
                               : 0.0);
    report->Layer("server.locality_placement_rate",
                  placed > 0 ? static_cast<double>(local) / placed : 0.0);
    ReportOverhead(Median(untraced.cpu_us) * untraced.speed.Scale(),
                   Median(traced.cpu_us) * traced.speed.Scale(), report);
  }
  ReportDeterministic(*reference, report);
  report->Detail("serve_l1_hit_rate", last.totals.cache.HitRate(), "ratio");
  report->Detail("serve_l2_hit_rate", last.l2.HitRate(), "ratio");
  report->EndToEnd("peak_rss_mb", PeakRssMb());
  store.reset();
  CheckOk(env_base->RemoveDirRecursive(root), "remove serve_cold store");
}

}  // namespace perfbench
