#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the repository benchmark: options, the canonical
// workload parameters, measurement-side decorators (timing Env, timing
// CellSource), registry snapshot deltas, and the result report.
//
// Everything here sits *outside* the program: it times calls into public
// functions and the public seams (Env, CellSource) and differences the
// process-wide MetricRegistry. Nothing under src/ knows it is measured.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/session.h"
#include "core/visualcloud.h"
#include "image/scene.h"
#include "obs/metrics.h"
#include "storage/cell_source.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< Measured time; split in half when tracing.
  bool trace = false;     ///< Per-layer (traced) run instead of end-to-end.
  std::string commit = "unknown";
};

// Canonical workload parameters (the same shapes the repository's bench
// binaries use, so numbers compare with EXPERIMENTS.md).
inline constexpr int kWidth = 256;
inline constexpr int kHeight = 128;
inline constexpr int kFps = 15;
inline constexpr int kSegmentFrames = 15;  // 1-second segments
inline constexpr int kVideoSeconds = 20;
inline constexpr int kTileRows = 6;
inline constexpr int kTileCols = 8;
inline constexpr int kEncodeThreads = 4;

vc::IngestOptions CanonicalIngest();
vc::SessionOptions CanonicalSession();

/// Deterministic sub-seed: stream `stream`, element `index` of `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index);

/// A canonical scene whose procedural texture placement follows `seed`.
std::unique_ptr<vc::SceneGenerator> MakeCanonicalScene(const std::string& name,
                                                       uint64_t seed);

double NowSeconds();

/// Both clocks the benchmark reads. `cpu` is the process CPU time of all
/// threads; unlike `wall` it excludes the time the host runs other tenants
/// on this machine's vCPUs (steal), which swings wall time 2-3x between
/// runs on a shared host. End-to-end costs are CPU time; README.md says why.
struct Clocks {
  double wall = 0.0;
  double cpu = 0.0;
  static Clocks Now();
  /// Time elapsed on both clocks since this reading.
  Clocks Elapsed() const;
};
/// Host-speed correction for CPU figures. On a shared host, CPU time per
/// instruction still moves by 5-20% between runs with what other tenants
/// run on the same physical cores. After every measured repeat the
/// benchmark times a fixed kernel of its own (table-driven CRC-32 and an
/// insertion sort: integer work, lookups, branches) on the calling thread,
/// and scales the phase's CPU figures by kReferenceKernelMs over the
/// median kernel time. The kernel is benchmark code, so a change to the
/// program moves the scaled figures and never the scale.
class HostSpeed {
 public:
  /// The kernel's thread CPU time on the host these figures were set on.
  static constexpr double kReferenceKernelMs = 10.0;
  /// Times the kernel once (thread CPU time; ~10 ms).
  void Sample();
  /// kReferenceKernelMs / median kernel time: multiply CPU figures by it.
  double Scale() const;
  double MedianMs() const;
  size_t samples() const { return kernel_ms_.size(); }

 private:
  std::vector<double> kernel_ms_;
  uint32_t checksum_ = 0;
};

/// Linear-interpolated percentile (p in [0, 1]); 0 for an empty vector.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double PeakRssMb();

/// 64-bit FNV-1a accumulator for outcome digests.
class Digest {
 public:
  void Add(const void* data, size_t size);
  void Add(uint64_t value) { Add(&value, sizeof(value)); }
  void AddDouble(double value) { Add(&value, sizeof(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// Difference of the process-wide registry between construction and
/// Finish(). The registry is never reset, so every measured window takes
/// its own snapshot pair and workloads or repeats never mix counters.
class RegistryDelta {
 public:
  RegistryDelta();
  void Finish();
  double Counter(const std::string& name) const;
  double HistCount(const std::string& name) const;
  double HistSum(const std::string& name) const;
  /// Mean observation of the window; 0 when there was none.
  double HistMean(const std::string& name) const;

 private:
  vc::MetricsSnapshot before_;
  vc::MetricsSnapshot after_;
};

/// Env decorator that times and counts every call by class: reads,
/// file writes (WriteFile/AppendFile) and metadata operations.
class TimingEnv final : public vc::Env {
 public:
  explicit TimingEnv(vc::Env* base) : base_(base) {}

  struct Totals {
    uint64_t read_ns = 0, reads = 0;
    uint64_t write_ns = 0, writes = 0, write_bytes = 0;
    uint64_t meta_ns = 0;
  };
  Totals totals() const;

  vc::Status WriteFile(const std::string& path, vc::Slice contents) override;
  vc::Status AppendFile(const std::string& path, vc::Slice contents) override;
  vc::Result<std::vector<uint8_t>> ReadFile(const std::string& path) override;
  vc::Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                                 uint64_t offset,
                                                 uint64_t length) override;
  vc::Result<uint64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  vc::Status DeleteFile(const std::string& path) override;
  vc::Status RenameFile(const std::string& from,
                        const std::string& to) override;
  vc::Status CreateDirs(const std::string& path) override;
  vc::Result<std::vector<std::string>> ListDir(
      const std::string& path) override;
  vc::Status RemoveDirRecursive(const std::string& path) override;

 private:
  vc::Env* base_;
  std::atomic<uint64_t> read_ns_{0}, reads_{0};
  std::atomic<uint64_t> write_ns_{0}, writes_{0}, write_bytes_{0};
  std::atomic<uint64_t> meta_ns_{0};
};

/// CellSource decorator timing the session's per-segment demand fetch.
class TimingCellSource final : public vc::CellSource {
 public:
  explicit TimingCellSource(vc::CellSource* base) : base_(base) {}

  uint64_t fetch_ns() const { return fetch_ns_.load(); }

  vc::Result<vc::LruCache::Value> ReadCell(const vc::VideoMetadata& metadata,
                                           int segment, int tile,
                                           int quality) override;
  vc::Result<vc::LruCache::AsyncHandle> ReadCellAsync(
      const vc::VideoMetadata& metadata, int segment, int tile, int quality,
      vc::LoadKind kind) override;
  vc::Status ReadPlannedCells(const vc::VideoMetadata& metadata, int segment,
                              const std::vector<int>& tile_qualities) override;
  vc::ThreadPool* io_pool() const override { return base_->io_pool(); }
  vc::CacheStats cache_stats() const override { return base_->cache_stats(); }

 private:
  vc::CellSource* base_;
  std::atomic<uint64_t> fetch_ns_{0};
};

/// What a run measured and checked.
class Report {
 public:
  /// An end-to-end metric of BENCHMARK.json (reported with tracing off).
  void EndToEnd(const std::string& name, double value);
  /// A per-layer metric of BENCHMARK.json (reported by the traced run).
  void Layer(const std::string& name, double value);
  /// A figure printed for humans under the workload's own name, with
  /// its unit and the number of samples behind it (0 = deterministic).
  void Detail(const std::string& name, double value, const std::string& unit,
              size_t samples = 0);
  void Fail(const std::string& why);
  void Attempt(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void SetOutcome(uint64_t digest) { outcome_ = digest; }
  bool correct() const { return errors_.empty(); }

  /// Prints the detail table, the outcome digest and the final JSON line.
  void Print(const Options& options, const std::string& stamp_json) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  static const Entry* Find(const std::vector<Entry>& entries,
                           const char* name);
  std::vector<Entry> end_to_end_;
  std::vector<Entry> layers_;
  std::vector<Entry> details_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t outcome_ = 0;
};

/// Environment stamp: compiler, flags, build type, SIMD tier, nproc,
/// encode threads, Env kind, seed and commit, as one JSON object.
std::string StampJson(const Options& options);

/// The filesystem every catalog lives in: one process-wide in-memory Env.
/// (Writing through the POSIX Env made ingest time swing tenfold between
/// runs on a shared virtual disk; see README.md.)
vc::Env* StoreEnv();
inline constexpr char kEnvKind[] = "mem";

/// Opens a VisualCloud (kEncodeThreads encode workers) on a fresh, empty
/// store directory `root` of `env`, with a `cache_bytes` cell cache.
std::unique_ptr<vc::VisualCloud> OpenFreshStore(
    vc::Env* env, const std::string& root,
    size_t cache_bytes = vc::StorageOptions().cache_capacity_bytes);

/// Reports the tracing overhead: the traced half's host-speed-scaled median
/// CPU cost per unit of work over the untraced half's, minus 1, in percent.
void ReportOverhead(double untraced_cpu_us, double traced_cpu_us,
                    Report* report);

/// Prints the host-speed scale behind a phase's scaled CPU figures.
void ReportHostSpeed(const HostSpeed& speed, Report* report);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

/// Runs `setup` kSetups times (each one a complete set-up of the workload,
/// warm-up included) and returns the median duration on each clock. The
/// state of the last set-up is what the measured loop uses.
Clocks TimedSetups(const std::function<void()>& setup);

/// Aborts the run (no result line) when a set-up step fails.
void CheckOk(const vc::Status& status, const char* what);
template <typename T>
T CheckOk(vc::Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

// Workloads. Each fills the report: end-to-end metrics when untraced,
// per-layer metrics (plus tracing overhead) when traced.
void RunIngest(const Options& options, Report* report);
void RunServeHot(const Options& options, Report* report);
void RunServeCold(const Options& options, Report* report);
void RunQueryMix(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
