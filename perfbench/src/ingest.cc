// Workload `ingest`: closed loop, one writer. Each iteration ingests the
// three canonical scenes (timelapse, venice, coaster; 6x8 tiles x the
// default 3-rung ladder, 15 fps, 1-s segments) into a fresh POSIX-Env store.
// Frames are rendered during set-up. Segments are appended one at a time
// through LiveIngestSession, which is exactly what VisualCloud::Ingest does
// (byte-identical), so every 1-s segment append is timed on its own, and
// the final Close() is the timed catalog commit.

#include <cstdio>

#include "harness.h"
#include "image/metrics.h"

namespace perfbench {

namespace {

struct SceneFrames {
  std::string name;
  std::vector<vc::Frame> frames;
};

struct Iteration {
  std::vector<double> segment_cpu_ms;   // per 1-s segment append
  std::vector<double> segment_wall_ms;  // per 1-s segment append
  std::vector<double> commit_ms;        // per video Close() (wall)
  Clocks took;
  int segments = 0;
  int failed_segments = 0;
  uint64_t cell_bytes = 0;
  uint64_t digest = 0;  // every cell's size and CRC, in catalog order
  std::unique_ptr<vc::VisualCloud> db;
};

// Ingests every scene into a fresh store at `root`; only the appends and
// commits are inside the timed region.
Iteration IngestOnce(vc::Env* env, const std::string& root,
                     const std::vector<SceneFrames>& scenes, Report* report) {
  Iteration it;
  it.db = OpenFreshStore(env, root);
  const vc::IngestOptions ingest = CanonicalIngest();
  const Clocks start = Clocks::Now();
  for (const SceneFrames& scene : scenes) {
    const int segments =
        static_cast<int>(scene.frames.size()) / kSegmentFrames;
    auto session = it.db->StartLiveIngest(scene.name, kWidth, kHeight, ingest);
    if (!session.ok()) {
      report->Fail("start ingest " + scene.name + ": " +
                   session.status().ToString());
      it.failed_segments += segments;
      it.segments += segments;
      continue;
    }
    bool healthy = true;
    for (int s = 0; s < segments; ++s) {
      ++it.segments;
      if (!healthy) {
        ++it.failed_segments;
        continue;
      }
      const Clocks t0 = Clocks::Now();
      for (int f = s * kSegmentFrames; f < (s + 1) * kSegmentFrames; ++f) {
        vc::Status status = (*session)->AppendFrame(scene.frames[f]);
        if (!status.ok()) {
          report->Fail("append " + scene.name + ": " + status.ToString());
          healthy = false;
          break;
        }
      }
      if (!healthy) {
        ++it.failed_segments;
        continue;
      }
      const Clocks took = t0.Elapsed();
      it.segment_cpu_ms.push_back(took.cpu * 1e3);
      it.segment_wall_ms.push_back(took.wall * 1e3);
    }
    const double t0 = NowSeconds();
    auto version = (*session)->Close();
    it.commit_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!version.ok()) {
      report->Fail("commit " + scene.name + ": " + version.status().ToString());
    }
  }
  it.took = start.Elapsed();

  Digest digest;
  for (const SceneFrames& scene : scenes) {
    auto metadata = it.db->Describe(scene.name);
    if (!metadata.ok()) {
      report->Fail("describe " + scene.name);
      continue;
    }
    for (const vc::CellInfo& cell : metadata->cells) {
      digest.Add(cell.byte_size);
      digest.Add(cell.crc32);
      it.cell_bytes += cell.byte_size;
    }
  }
  it.digest = digest.value();
  return it;
}

struct Phase {
  std::vector<double> cpu_us;   // per iteration: CPU µs per segment
  std::vector<double> wall_us;  // per iteration: wall µs per segment
  std::vector<double> segment_cpu_ms, segment_wall_ms, commit_ms;
  double wall_s = 0.0;
  int segments = 0;
  uint64_t cell_bytes = 0;
  HostSpeed speed;
};

}  // namespace

void RunIngest(const Options& options, Report* report) {
  vc::Env* env_base = StoreEnv();
  const std::string root = "/perfbench/ingest";

  std::vector<SceneFrames> scenes;
  uint64_t reference_digest = 0;
  uint64_t reference_bytes = 0;
  int iteration_index = 0;
  auto store_dir = [&] {
    return root + "/iter_" + std::to_string(iteration_index++);
  };

  // Set-up: render every scene from the seed, then one discarded warm-up
  // iteration (the first ingest in a process runs ~2.5x slower).
  const Clocks setup = TimedSetups([&] {
    scenes.clear();
    const std::vector<std::string>& names = vc::StandardSceneNames();
    for (size_t i = 0; i < names.size(); ++i) {
      auto scene = MakeCanonicalScene(names[i], SubSeed(options.seed, 1, i));
      scenes.push_back(
          {names[i], vc::RenderScene(*scene, kVideoSeconds * kFps)});
    }
    const std::string dir = store_dir();
    Iteration warm = IngestOnce(env_base, dir, scenes, report);
    reference_digest = warm.digest;
    reference_bytes = warm.cell_bytes;
    warm.db.reset();
    CheckOk(env_base->RemoveDirRecursive(dir), "remove warm-up store");
  });

  TimingEnv timing(env_base);
  std::unique_ptr<vc::VisualCloud> kept;
  std::string kept_dir;
  auto run_phase = [&](vc::Env* env, double seconds) {
    Phase phase;
    const double deadline = NowSeconds() + seconds;
    do {
      const std::string dir = store_dir();
      Iteration it = IngestOnce(env, dir, scenes, report);
      report->Attempt(it.segments, it.failed_segments);
      if (it.digest != reference_digest || it.cell_bytes != reference_bytes) {
        report->Fail("ingest output differs between iterations of one seed");
      }
      phase.cpu_us.push_back(it.took.cpu * 1e6 / it.segments);
      phase.speed.Sample();
      phase.wall_us.push_back(it.took.wall * 1e6 / it.segments);
      auto append = [](std::vector<double>* to, const std::vector<double>& v) {
        to->insert(to->end(), v.begin(), v.end());
      };
      append(&phase.segment_cpu_ms, it.segment_cpu_ms);
      append(&phase.segment_wall_ms, it.segment_wall_ms);
      append(&phase.commit_ms, it.commit_ms);
      phase.wall_s += it.took.wall;
      phase.segments += it.segments;
      phase.cell_bytes += it.cell_bytes;
      // Keep the newest store for the read-back check; delete the rest.
      if (kept != nullptr) {
        kept.reset();
        CheckOk(env_base->RemoveDirRecursive(kept_dir), "remove store");
      }
      kept = std::move(it.db);
      kept_dir = dir;
    } while (NowSeconds() < deadline);
    return phase;
  };

  const double segments_per_iteration =
      static_cast<double>(scenes.size()) * kVideoSeconds;
  if (!options.trace) {
    Phase phase = run_phase(env_base, options.seconds);
    report->EndToEnd("setup_s", setup.cpu);
    const double scale = phase.speed.Scale();
    report->EndToEnd("norm_cpu_us_per_unit", Median(phase.cpu_us) * scale);
    report->EndToEnd("norm_op_cpu_p50_ms",
                     Percentile(phase.segment_cpu_ms, 0.5) * scale);
    report->EndToEnd("norm_op_cpu_p90_ms",
                     Percentile(phase.segment_cpu_ms, 0.9) * scale);
    report->EndToEnd("bytes_per_unit",
                     static_cast<double>(reference_bytes) /
                         segments_per_iteration);
    report->Detail("setup_wall_s", setup.wall, "s", kSetups);
    report->Detail("ingest_segments_per_s", 1e6 / Median(phase.wall_us),
                   "1/s", phase.wall_us.size());
    report->Detail("ingest_segment_p50_ms",
                   Percentile(phase.segment_wall_ms, 0.5), "ms",
                   phase.segment_wall_ms.size());
    report->Detail("ingest_segment_p90_ms",
                   Percentile(phase.segment_wall_ms, 0.9), "ms",
                   phase.segment_wall_ms.size());
    report->Detail("ingest_cpu_ms_per_segment", Median(phase.cpu_us) / 1e3,
                   "ms", phase.cpu_us.size());
    ReportHostSpeed(phase.speed, report);
    report->Detail("ingest_bytes_per_segment",
                   static_cast<double>(reference_bytes) /
                       segments_per_iteration,
                   "bytes");
  } else {
    // Untraced half first (the overhead baseline), then the traced half
    // with the timing Env under the store and a registry window around it.
    Phase plain = run_phase(env_base, options.seconds / 2);
    RegistryDelta delta;
    Phase traced = run_phase(&timing, options.seconds / 2);
    delta.Finish();
    const TimingEnv::Totals env = timing.totals();
    const double segments = traced.segments;
    const double encode_s = delta.HistSum("ingest.cell_encode_seconds");
    const double searches = delta.Counter("codec.search_full") +
                            delta.Counter("codec.search_hinted");
    const double storage_s = (env.write_ns + env.read_ns + env.meta_ns) * 1e-9;
    report->Layer("codec.encode_cell_us",
                  delta.HistMean("ingest.cell_encode_seconds") * 1e6);
    report->Layer("codec.sad_evals_per_search",
                  searches > 0 ? delta.Counter("codec.sad_evals") / searches
                               : 0.0);
    const double hinted = delta.Counter("codec.search_hinted");
    report->Layer("codec.hint_accept_rate",
                  hinted > 0 ? delta.Counter("codec.hints_accepted") / hinted
                             : 0.0);
    report->Layer("core.encode_pool_utilization",
                  encode_s / (traced.wall_s * kEncodeThreads));
    report->Layer("storage.write_ms_per_segment",
                  env.write_ns * 1e-6 / segments);
    report->Layer("storage.files_written_per_segment", env.writes / segments);
    report->Layer("storage.write_amplification",
                  static_cast<double>(env.write_bytes) / traced.cell_bytes);
    report->Layer("storage.commit_ms", Median(traced.commit_ms));
    report->Layer("ingest.unattributed_ms_per_segment",
                  (traced.wall_s - encode_s / kEncodeThreads - storage_s) *
                      1e3 / segments);
    ReportOverhead(Median(plain.cpu_us) * plain.speed.Scale(),
                   Median(traced.cpu_us) * traced.speed.Scale(), report);
    report->Detail("storage.env_ms_per_segment", storage_s * 1e3 / segments,
                   "ms");
  }

  // Output check after timing: every cell of the newest store decodes
  // CRC-clean through ReadFrames at every rung, and its luma PSNR against
  // the rendered source (every 5th frame) is the quality figure.
  double psnr_sum = 0.0;
  int psnr_count = 0;
  const int rungs = static_cast<int>(CanonicalIngest().ladder.size());
  for (const SceneFrames& scene : scenes) {
    const int last = static_cast<int>(scene.frames.size()) - 1;
    for (int q = 0; q < rungs; ++q) {
      auto frames = kept->ReadFrames(scene.name, 0, last, q);
      if (!frames.ok() || static_cast<int>(frames->size()) != last + 1) {
        report->Fail("read back " + scene.name + " rung " +
                     std::to_string(q) + ": " +
                     (frames.ok() ? "short" : frames.status().ToString()));
        continue;
      }
      for (int f = 0; f <= last; f += 5) {
        auto psnr = vc::LumaPsnr(scene.frames[f], (*frames)[f]);
        if (!psnr.ok()) {
          report->Fail("psnr " + scene.name);
          continue;
        }
        psnr_sum += *psnr;
        ++psnr_count;
      }
    }
  }
  const double psnr = psnr_count > 0 ? psnr_sum / psnr_count : 0.0;
  report->Detail("ingest_psnr_db", psnr, "dB");
  kept.reset();
  CheckOk(env_base->RemoveDirRecursive(root), "remove ingest stores");

  Digest outcome;
  outcome.Add(reference_digest);
  outcome.AddDouble(psnr);
  report->SetOutcome(outcome.value());
  report->EndToEnd("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
