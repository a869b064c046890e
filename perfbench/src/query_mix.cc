// Workload `query_mix`: closed loop, one client, warm cell cache, over a
// pre-ingested venice catalog. One round runs the E8 queries
// (front-window, seam-crossing, degrade-periphery, parsed-text), the
// full-grid stitched export and the view-served degrade-periphery query,
// then one ViewMaintainer refresh of the materialized view, so re-encode
// and catalog writes sit beside the reads. Each query is timed as its
// public calls: (Candidates +) Optimize + ExecutePlan.
//
// Output checks: pruned results are byte-identical to a naive_full_scan
// execution, the export stays transcode-free and byte-stable, and the
// view-served bytes are byte-identical to a re-encode from the source.

#include "common/math_util.h"
#include "harness.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "view/maintainer.h"

namespace perfbench {

namespace {

constexpr char kVideo[] = "venice";
constexpr char kView[] = "periph";
// Every refresh writes a whole new view version (~0.6 MB) and the
// view-served query caches its cells. The cache holds the working set
// (venice, ~2.1 MB, plus one view version) with room to spare, and old
// versions age out of it, so peak RSS does not grow with the number of
// rounds a run fits. The default 64 MiB would keep every version.
constexpr size_t kCacheBytes = 8u << 20;

enum class Check { kFrames, kExport, kView };

struct MixQuery {
  std::string label;
  vc::Query query;
  Check check;
  // Reference output, built during set-up.
  std::vector<vc::Frame> frames;
  std::vector<uint8_t> bytes;
  int naive_cells = 0;  // cells a naive full scan reads (frames queries)

  MixQuery(std::string l, vc::Query q, Check c)
      : label(std::move(l)), query(std::move(q)), check(c) {}
};

// Deletes every version of `name` but the newest, through the store's
// documented layout (<root>/<video>/metadata.v<N>.vcmf and the data dir the
// newest version names). The catalog has no API to drop one version, and
// without this the in-memory catalog, and the cost of listing versions,
// would grow with every round.
void DropSupersededVersions(vc::StorageManager* storage,
                            const std::string& name) {
  vc::VideoMetadata latest = CheckOk(storage->GetVideo(name), "view version");
  const std::string dir = storage->root() + "/" + name;
  const std::string keep_meta =
      "metadata.v" + std::to_string(latest.version) + ".vcmf";
  vc::Env* env = StoreEnv();  // untraced: this is not the workload's I/O
  for (const std::string& entry : CheckOk(env->ListDir(dir), "list view")) {
    if (entry == keep_meta || entry == latest.DataDir()) continue;
    const std::string path = dir + "/" + entry;
    CheckOk(entry.rfind("metadata.", 0) == 0 ? env->DeleteFile(path)
                                             : env->RemoveDirRecursive(path),
            "drop superseded view version");
  }
}

bool FramesEqual(const std::vector<vc::Frame>& a,
                 const std::vector<vc::Frame>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].SameSize(b[i]) || a[i].y_plane() != b[i].y_plane() ||
        a[i].u_plane() != b[i].u_plane() || a[i].v_plane() != b[i].v_plane()) {
      return false;
    }
  }
  return true;
}

uint64_t OutputBytes(const MixQuery& q) {
  if (q.check != Check::kFrames) return q.bytes.size();
  uint64_t bytes = 0;
  for (const vc::Frame& f : q.frames) {
    bytes += f.y_plane().size() + f.u_plane().size() + f.v_plane().size();
  }
  return bytes;
}

vc::Query ViewChain() {
  return vc::Query::Scan(kVideo)
      .Viewport(vc::kPi / 2, vc::kPi / 2, vc::DegToRad(90), vc::DegToRad(75))
      .QualityFloor("high")
      .Degrade("low");
}

std::vector<MixQuery> BuildMix() {
  const double duration = kVideoSeconds;
  std::vector<MixQuery> mix;
  mix.emplace_back("front-window",
                   vc::Query::Scan(kVideo)
                       .TimeSlice(0.0, duration / 2)
                       .Viewport(vc::kPi, vc::kPi / 2, vc::DegToRad(90),
                                 vc::DegToRad(75))
                       .QualityFloor("high"),
                   Check::kFrames);
  mix.emplace_back("seam-crossing",
                   vc::Query::Scan(kVideo)
                       .TimeSlice(duration / 4, 3 * duration / 4)
                       .Viewport(0.05, vc::kPi / 2, vc::DegToRad(110),
                                 vc::DegToRad(70))
                       .QualityFloor("medium"),
                   Check::kFrames);
  mix.emplace_back("degrade-periphery",
                   vc::Query::Scan(kVideo)
                       .TimeSlice(0.0, duration / 4)
                       .Viewport(vc::kPi / 2, vc::kPi / 2, vc::DegToRad(90),
                                 vc::DegToRad(75))
                       .QualityFloor("high")
                       .Degrade("low"),
                   Check::kFrames);
  const std::string text = "scan(venice) | timeslice(0," +
                           std::to_string(duration / 2) +
                           ") | viewport(270,60,100,80) | quality(low)";
  mix.emplace_back("parsed-text",
                   CheckOk(vc::ParseQuery(vc::Slice(text)), "parse"),
                   Check::kFrames);
  mix.emplace_back("full-grid-export",
                   vc::Query::Scan(kVideo).QualityFloor("medium").Encode(),
                   Check::kExport);
  mix.emplace_back("view-served", ViewChain().Encode(), Check::kView);
  return mix;
}

// One executed query: its timings and whether its output matched.
struct Executed {
  double optimize_ms = 0.0;
  double execute_ms = 0.0;
  double total_ms = 0.0;      // wall
  double total_cpu_ms = 0.0;  // process CPU
  int cells_scanned = 0;
  bool view_hit = false;
  bool ok = false;
};

Executed RunQuery(const MixQuery& q, vc::StorageManager* storage,
                  vc::ViewMaintainer* maintainer, Report* report) {
  Executed out;
  const Clocks start = Clocks::Now();
  const double t0 = start.wall;
  vc::OptimizeOptions optimize_options;
  std::vector<vc::MaterializedViewInfo> views;
  if (q.check == Check::kView) {
    auto candidates = maintainer->catalog()->Candidates(*storage);
    if (!candidates.ok()) {
      report->Fail(q.label + ": candidates: " +
                   candidates.status().ToString());
      return out;
    }
    views = std::move(*candidates);
    optimize_options.views = &views;
  }
  const double t1 = NowSeconds();
  auto plan = vc::Optimize(q.query, storage, optimize_options);
  const double t2 = NowSeconds();
  if (!plan.ok()) {
    report->Fail(q.label + ": optimize: " + plan.status().ToString());
    return out;
  }
  auto result = vc::ExecutePlan(*plan, storage);
  const double t3 = NowSeconds();
  out.optimize_ms = (t2 - t1) * 1e3;
  out.execute_ms = (t3 - t2) * 1e3;
  out.total_ms = (t3 - t0) * 1e3;
  out.total_cpu_ms = start.Elapsed().cpu * 1e3;
  if (!result.ok()) {
    report->Fail(q.label + ": execute: " + result.status().ToString());
    return out;
  }
  out.cells_scanned = result->cells_scanned;
  out.view_hit = plan->view_served == kView;
  switch (q.check) {
    case Check::kFrames:
      out.ok = FramesEqual(result->frames, q.frames);
      break;
    case Check::kExport:
      out.ok = result->transcodes == 0 &&
               result->encoded.Serialize() == q.bytes;
      break;
    case Check::kView:
      out.ok = out.view_hit && result->encoded.Serialize() == q.bytes;
      break;
  }
  if (!out.ok) report->Fail(q.label + ": output differs from reference");
  return out;
}

struct Phase {
  std::vector<double> cpu_us;   // per round: CPU µs per query
  std::vector<double> wall_us;  // per round: wall µs per query
  std::vector<double> query_ms, query_cpu_ms;
  std::vector<double> optimize_ms, execute_ms, maintain_ms;
  double query_total_ms = 0.0;
  double cells_scanned = 0.0;
  double queries = 0.0;
  double view_queries = 0.0, view_hits = 0.0;
  // Cells the E8 queries scanned, and what a naive full scan would.
  double pruned_cells = 0.0, naive_cells = 0.0;
  HostSpeed speed;
};

}  // namespace

void RunQueryMix(const Options& options, Report* report) {
  vc::Env* env_base = StoreEnv();
  const std::string root = "/perfbench/query_mix";
  std::unique_ptr<vc::VisualCloud> db;
  std::unique_ptr<vc::ViewMaintainer> maintainer;
  std::vector<MixQuery> mix;
  std::vector<vc::StandingQueryResult> reference_emissions;
  int view_segments = 0;

  // One round of the mix plus the view refresh.
  auto run_round = [&](vc::StorageManager* storage, vc::ViewMaintainer* m,
                       Phase* phase) {
    const Clocks start = Clocks::Now();
    for (const MixQuery& q : mix) {
      Executed e = RunQuery(q, storage, m, report);
      report->Attempt(1, e.ok ? 0 : 1);
      phase->query_ms.push_back(e.total_ms);
      phase->query_cpu_ms.push_back(e.total_cpu_ms);
      phase->optimize_ms.push_back(e.optimize_ms);
      phase->execute_ms.push_back(e.execute_ms);
      phase->query_total_ms += e.total_ms;
      phase->cells_scanned += e.cells_scanned;
      phase->queries += 1;
      if (q.check == Check::kFrames) {
        phase->pruned_cells += e.cells_scanned;
        phase->naive_cells += q.naive_cells;
      }
      if (q.check == Check::kView) {
        phase->view_queries += 1;
        phase->view_hits += e.view_hit ? 1 : 0;
      }
    }
    const double t0 = NowSeconds();
    vc::Status refreshed = m->RefreshView(kView);
    phase->maintain_ms.push_back((NowSeconds() - t0) * 1e3);
    const Clocks round = start.Elapsed();
    phase->cpu_us.push_back(round.cpu * 1e6 / mix.size());
    phase->speed.Sample();
    phase->wall_us.push_back(round.wall * 1e6 / mix.size());
    bool ok = refreshed.ok();
    if (!ok) {
      report->Fail("refresh view: " + refreshed.ToString());
    } else {
      auto emissions = m->Results(kView);
      ok = emissions.ok() && emissions->size() == reference_emissions.size();
      for (size_t i = 0; ok && i < emissions->size(); ++i) {
        ok = (*emissions)[i].checksum == reference_emissions[i].checksum &&
             (*emissions)[i].bytes == reference_emissions[i].bytes;
      }
      if (!ok) report->Fail("view refresh differs from first maintenance");
    }
    report->Attempt(1, ok ? 0 : 1);
    DropSupersededVersions(storage, kView);
  };

  // Set-up: catalog ingest, view materialization, reference outputs (naive
  // full scans, a re-encode) and one discarded warm-up round.
  const Clocks setup = TimedSetups([&] {
    maintainer.reset();
    db.reset();
    db = OpenFreshStore(env_base, root, kCacheBytes);
    auto scene = MakeCanonicalScene(kVideo, SubSeed(options.seed, 1, 1));
    CheckOk(db->IngestScene(kVideo, *scene, kVideoSeconds * kFps,
                            CanonicalIngest())
                .status(),
            "ingest venice");
    maintainer = std::make_unique<vc::ViewMaintainer>(db.get());
    CheckOk(maintainer->CreateView(
                kView, vc::Slice(ViewChain().Encode().Store(kView).ToString())),
            "create view");
    CheckOk(maintainer->Maintain(kView), "maintain view");
    reference_emissions = CheckOk(maintainer->Results(kView), "view results");
    view_segments = static_cast<int>(reference_emissions.size());

    vc::StorageManager* storage = db->storage();
    mix = BuildMix();
    for (MixQuery& q : mix) {
      vc::PhysicalPlan plan = CheckOk(vc::Optimize(q.query, storage), "plan");
      if (q.check == Check::kFrames) {
        vc::ExecuteOptions naive;
        naive.naive_full_scan = true;
        vc::QueryResult result =
            CheckOk(vc::ExecutePlan(plan, storage, naive), "naive scan");
        q.frames = std::move(result.frames);
        q.naive_cells = result.cells_scanned;
      } else {
        // Export: the stitched bytes of the first execution. View query:
        // the re-encode from the source, planned without views.
        vc::QueryResult result =
            CheckOk(vc::ExecutePlan(plan, storage), "reference execution");
        q.bytes = result.encoded.Serialize();
      }
    }
    Phase warm;
    run_round(storage, maintainer.get(), &warm);
  });

  uint64_t output_bytes = 0;
  Digest digest;
  for (const MixQuery& q : mix) {
    output_bytes += OutputBytes(q);
    digest.Add(OutputBytes(q));
    digest.Add(q.bytes.data(), q.bytes.size());
    for (const vc::Frame& f : q.frames) {
      digest.Add(f.y_plane().data(), f.y_plane().size());
    }
  }
  for (const vc::StandingQueryResult& r : reference_emissions) {
    digest.Add(r.checksum);
  }

  auto run_phase = [&](vc::StorageManager* storage, vc::ViewMaintainer* m,
                       double seconds) {
    Phase phase;
    const double deadline = NowSeconds() + seconds;
    do {
      run_round(storage, m, &phase);
    } while (NowSeconds() < deadline);
    return phase;
  };

  if (!options.trace) {
    Phase phase = run_phase(db->storage(), maintainer.get(), options.seconds);
    report->EndToEnd("setup_s", setup.cpu);
    const double scale = phase.speed.Scale();
    report->EndToEnd("norm_cpu_us_per_unit", Median(phase.cpu_us) * scale);
    report->EndToEnd("norm_op_cpu_p50_ms",
                     Percentile(phase.query_cpu_ms, 0.5) * scale);
    report->EndToEnd("norm_op_cpu_p90_ms",
                     Percentile(phase.query_cpu_ms, 0.9) * scale);
    report->EndToEnd("bytes_per_unit",
                     static_cast<double>(output_bytes) / mix.size());
    report->Detail("setup_wall_s", setup.wall, "s", kSetups);
    report->Detail("query_p50_ms", Percentile(phase.query_ms, 0.5), "ms",
                   phase.query_ms.size());
    report->Detail("query_p90_ms", Percentile(phase.query_ms, 0.9), "ms",
                   phase.query_ms.size());
    report->Detail("query_round_wall_us_per_query", Median(phase.wall_us),
                   "us", phase.wall_us.size());
    report->Detail("query_round_cpu_us_per_query", Median(phase.cpu_us), "us",
                   phase.cpu_us.size());
    ReportHostSpeed(phase.speed, report);
    report->Detail("view_maintain_ms", Median(phase.maintain_ms), "ms",
                   phase.maintain_ms.size());
  } else {
    const double half = options.seconds / 2;
    Phase plain = run_phase(db->storage(), maintainer.get(), half);
    // Traced half: the same catalog reopened through a timing Env, with a
    // maintainer of its own (it reloads the persisted view definition).
    TimingEnv env(env_base);
    vc::VisualCloudOptions traced_options;
    traced_options.storage.env = &env;
    traced_options.storage.root = root;
    traced_options.storage.cache_capacity_bytes = kCacheBytes;
    traced_options.encode_threads = kEncodeThreads;
    auto traced_db =
        CheckOk(vc::VisualCloud::Open(traced_options), "open traced store");
    vc::ViewMaintainer traced_maintainer(traced_db.get());
    Phase warm;
    run_round(traced_db->storage(), &traced_maintainer, &warm);  // warm-up
    const TimingEnv::Totals env_before = env.totals();
    RegistryDelta delta;
    Phase traced = run_phase(traced_db->storage(), &traced_maintainer, half);
    delta.Finish();
    const TimingEnv::Totals env_after = env.totals();
    const double queries = traced.queries;
    const double optimize_ms = Median(traced.optimize_ms);
    const double execute_ms = Median(traced.execute_ms);
    double attributed_ms = 0.0;
    for (size_t i = 0; i < traced.query_ms.size(); ++i) {
      attributed_ms += traced.optimize_ms[i] + traced.execute_ms[i];
    }
    report->Layer("query.optimize_ms", optimize_ms);
    report->Layer("query.execute_ms", execute_ms);
    report->Layer("query.unattributed_ms_per_query",
                  (traced.query_total_ms - attributed_ms) / queries);
    report->Layer("query.pruned_fraction",
                  traced.naive_cells > 0
                      ? 1.0 - traced.pruned_cells / traced.naive_cells
                      : 0.0);
    report->Layer("query.cells_scanned_per_query",
                  traced.cells_scanned / queries);
    report->Layer("query.decode_us_per_cell",
                  delta.HistMean("query.decode_seconds_per_cell") * 1e6);
    report->Layer("query.stitch_us_per_cell",
                  delta.HistMean("query.stitch_seconds_per_cell") * 1e6);
    report->Layer("query.view_hit_rate",
                  traced.view_hits / traced.view_queries);
    report->Layer("view.maintain_ms_per_segment",
                  Median(traced.maintain_ms) / view_segments);
    report->Layer("storage.env_read_us",
                  (env_after.read_ns - env_before.read_ns) * 1e-3 / queries);
    ReportOverhead(Median(plain.cpu_us) * plain.speed.Scale(),
                   Median(traced.cpu_us) * traced.speed.Scale(), report);
  }
  report->Detail("query_output_bytes_per_query",
                 static_cast<double>(output_bytes) / mix.size(), "bytes");
  report->SetOutcome(digest.value());
  report->EndToEnd("peak_rss_mb", PeakRssMb());
  maintainer.reset();
  db.reset();
  CheckOk(env_base->RemoveDirRecursive(root), "remove query_mix store");
}

}  // namespace perfbench
