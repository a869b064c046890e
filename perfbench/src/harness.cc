#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <time.h>

#include "codec/simd.h"
#include "predict/trace_synthesizer.h"

namespace perfbench {

namespace {

// The metric sets BENCHMARK.json lists; run.py checks the final line
// against it. End-to-end metrics are generic, so every workload reports each
// of them; README.md maps them to the workload-specific names.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* moves = "";  // per-layer: the end-to-end figure it should move
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"norm_cpu_us_per_unit", "us"},
    {"norm_op_cpu_p50_ms", "ms"},
    {"norm_op_cpu_p90_ms", "ms"},
    {"bytes_per_unit", "bytes"},
};

constexpr MetricSpec kLayers[] = {
    // ingest
    {"codec.encode_cell_us", "us", "norm_cpu_us_per_unit, norm_op_cpu_p*_ms"},
    {"codec.sad_evals_per_search", "count",
     "norm_cpu_us_per_unit, norm_op_cpu_p*_ms"},
    {"codec.hint_accept_rate", "ratio",
     "norm_cpu_us_per_unit, norm_op_cpu_p*_ms"},
    {"core.encode_pool_utilization", "ratio", "ingest_segments_per_s (wall)"},
    {"storage.write_ms_per_segment", "ms", "norm_cpu_us_per_unit"},
    {"storage.files_written_per_segment", "count", "norm_cpu_us_per_unit"},
    {"storage.write_amplification", "ratio", "bytes_per_unit"},
    {"storage.commit_ms", "ms", "norm_cpu_us_per_unit"},
    {"ingest.unattributed_ms_per_segment", "ms", "-"},
    // serve_hot / serve_cold
    {"core.plan_cache_hit_rate", "ratio", "norm_cpu_us_per_unit"},
    {"core.plan_us", "us", "norm_cpu_us_per_unit"},
    {"core.plan_us_per_vseg", "us", "norm_cpu_us_per_unit"},
    {"storage.fetch_us_per_vseg", "us", "norm_cpu_us_per_unit"},
    {"storage.l1_hit_rate", "ratio", "norm_cpu_us_per_unit"},
    {"storage.l2_hit_rate", "ratio", "norm_cpu_us_per_unit"},
    {"storage.backend_reads_per_vseg", "count", "norm_cpu_us_per_unit"},
    {"storage.backend_read_us", "us", "norm_cpu_us_per_unit"},
    {"storage.env_read_us", "us", "norm_cpu_us_per_unit, norm_op_cpu_p*_ms"},
    {"storage.evictions_per_vseg", "count", "norm_cpu_us_per_unit"},
    {"server.unattributed_us_per_vseg", "us", "-"},
    {"server.node_host_imbalance", "ratio", "norm_cpu_us_per_unit"},
    {"server.locality_placement_rate", "ratio", "norm_cpu_us_per_unit"},
    {"predict.viewport_hit_rate", "ratio", "bytes_per_unit, serve_inview_rung"},
    {"core.quality_downgrades_per_vseg", "count",
     "bytes_per_unit, serve_inview_rung"},
    {"streaming.transfer_faults_per_vseg", "count",
     "serve_rebuffer_ratio, failed_ratio"},
    {"streaming.retries_per_vseg", "count",
     "serve_rebuffer_ratio, failed_ratio"},
    // query_mix
    {"query.optimize_ms", "ms", "norm_op_cpu_p*_ms"},
    {"query.execute_ms", "ms", "norm_op_cpu_p*_ms"},
    {"query.pruned_fraction", "ratio", "norm_op_cpu_p*_ms"},
    {"query.cells_scanned_per_query", "count", "norm_op_cpu_p*_ms"},
    {"query.decode_us_per_cell", "us", "norm_op_cpu_p*_ms"},
    {"query.stitch_us_per_cell", "us", "norm_op_cpu_p*_ms"},
    {"query.view_hit_rate", "ratio", "norm_op_cpu_p*_ms"},
    {"view.maintain_ms_per_segment", "ms", "norm_cpu_us_per_unit"},
    {"query.unattributed_ms_per_query", "ms", "-"},
    // every workload
    {"trace.overhead_pct", "%", "-"},
};

template <size_t N>
const char* UnitOf(const MetricSpec (&specs)[N], const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return spec.unit;
  }
  std::fprintf(stderr, "perfbench: unknown metric '%s'\n", name.c_str());
  std::exit(2);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Shortest round-trip text for a double (all its digits, as measured).
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

vc::IngestOptions CanonicalIngest() {
  vc::IngestOptions options;
  options.tile_rows = kTileRows;
  options.tile_cols = kTileCols;
  options.frames_per_segment = kSegmentFrames;
  options.fps = kFps;
  options.ladder = vc::DefaultQualityLadder();
  return options;
}

vc::SessionOptions CanonicalSession() {
  vc::SessionOptions options;
  options.approach = vc::StreamingApproach::kVisualCloud;
  options.network.bandwidth_bps = 50e6;
  options.network.latency_seconds = 0.02;
  options.viewport.fov_yaw = vc::DegToRad(90.0);
  options.viewport.fov_pitch = vc::DegToRad(75.0);
  options.viewport.width = 64;
  options.viewport.height = 48;
  return options;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  return SplitMix64(SplitMix64(seed ^ (stream << 48)) + index);
}

std::unique_ptr<vc::SceneGenerator> MakeCanonicalScene(const std::string& name,
                                                       uint64_t seed) {
  vc::SceneOptions options;
  options.width = kWidth;
  options.height = kHeight;
  options.fps = kFps;
  options.seed = seed;
  return CheckOk(vc::MakeScene(name, options), "scene");
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Clocks Clocks::Now() {
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  return {NowSeconds(), static_cast<double>(cpu.tv_sec) + cpu.tv_nsec * 1e-9};
}

Clocks Clocks::Elapsed() const {
  Clocks now = Now();
  return {now.wall - wall, now.cpu - cpu};
}

void HostSpeed::Sample() {
  static const std::vector<uint8_t> buffer = [] {
    std::vector<uint8_t> b(64 << 10);
    for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<uint8_t>(i * 131);
    return b;
  }();
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  timespec start{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  uint32_t crc = 0xFFFFFFFFu;
  std::vector<uint32_t> keys(512);
  for (int rep = 0; rep < 40; ++rep) {
    for (uint8_t byte : buffer) crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
    uint32_t x = crc | 1;
    for (uint32_t& key : keys) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      key = x;
    }
    for (size_t i = 1; i < keys.size(); ++i) {
      const uint32_t key = keys[i];
      size_t j = i;
      for (; j > 0 && keys[j - 1] > key; --j) keys[j] = keys[j - 1];
      keys[j] = key;
    }
    crc ^= keys[keys.size() / 2];
  }
  timespec end{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
  checksum_ ^= crc;  // keeps the kernel observable
  kernel_ms_.push_back((end.tv_sec - start.tv_sec) * 1e3 +
                       (end.tv_nsec - start.tv_nsec) * 1e-6);
}

double HostSpeed::MedianMs() const { return Median(kernel_ms_); }

double HostSpeed::Scale() const {
  const double median = MedianMs();
  return median > 0 ? kReferenceKernelMs / median : 1.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void Digest::Add(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

RegistryDelta::RegistryDelta()
    : before_(vc::MetricRegistry::Global().Snapshot()) {}

void RegistryDelta::Finish() {
  after_ = vc::MetricRegistry::Global().Snapshot();
}

double RegistryDelta::Counter(const std::string& name) const {
  auto value = [&](const vc::MetricsSnapshot& s) -> double {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  return value(after_) - value(before_);
}

double RegistryDelta::HistCount(const std::string& name) const {
  auto value = [&](const vc::MetricsSnapshot& s) -> double {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0.0
                                    : static_cast<double>(it->second.count);
  };
  return value(after_) - value(before_);
}

double RegistryDelta::HistSum(const std::string& name) const {
  auto value = [&](const vc::MetricsSnapshot& s) -> double {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0.0 : it->second.sum;
  };
  return value(after_) - value(before_);
}

double RegistryDelta::HistMean(const std::string& name) const {
  const double count = HistCount(name);
  return count > 0 ? HistSum(name) / count : 0.0;
}

TimingEnv::Totals TimingEnv::totals() const {
  Totals t;
  t.read_ns = read_ns_.load();
  t.reads = reads_.load();
  t.write_ns = write_ns_.load();
  t.writes = writes_.load();
  t.write_bytes = write_bytes_.load();
  t.meta_ns = meta_ns_.load();
  return t;
}

vc::Status TimingEnv::WriteFile(const std::string& path, vc::Slice contents) {
  auto start = std::chrono::steady_clock::now();
  vc::Status status = base_->WriteFile(path, contents);
  write_ns_ += ElapsedNs(start);
  ++writes_;
  write_bytes_ += contents.size();
  return status;
}

vc::Status TimingEnv::AppendFile(const std::string& path, vc::Slice contents) {
  auto start = std::chrono::steady_clock::now();
  vc::Status status = base_->AppendFile(path, contents);
  write_ns_ += ElapsedNs(start);
  ++writes_;
  write_bytes_ += contents.size();
  return status;
}

vc::Result<std::vector<uint8_t>> TimingEnv::ReadFile(const std::string& path) {
  auto start = std::chrono::steady_clock::now();
  auto result = base_->ReadFile(path);
  read_ns_ += ElapsedNs(start);
  ++reads_;
  return result;
}

vc::Result<std::vector<uint8_t>> TimingEnv::ReadFileRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  auto start = std::chrono::steady_clock::now();
  auto result = base_->ReadFileRange(path, offset, length);
  read_ns_ += ElapsedNs(start);
  ++reads_;
  return result;
}

#define PERFBENCH_TIMED_META(call)               \
  auto start = std::chrono::steady_clock::now(); \
  auto result = call;                            \
  meta_ns_ += ElapsedNs(start);                  \
  return result

vc::Result<uint64_t> TimingEnv::FileSize(const std::string& path) {
  PERFBENCH_TIMED_META(base_->FileSize(path));
}
bool TimingEnv::FileExists(const std::string& path) {
  PERFBENCH_TIMED_META(base_->FileExists(path));
}
vc::Status TimingEnv::DeleteFile(const std::string& path) {
  PERFBENCH_TIMED_META(base_->DeleteFile(path));
}
vc::Status TimingEnv::RenameFile(const std::string& from,
                                 const std::string& to) {
  PERFBENCH_TIMED_META(base_->RenameFile(from, to));
}
vc::Status TimingEnv::CreateDirs(const std::string& path) {
  PERFBENCH_TIMED_META(base_->CreateDirs(path));
}
vc::Result<std::vector<std::string>> TimingEnv::ListDir(
    const std::string& path) {
  PERFBENCH_TIMED_META(base_->ListDir(path));
}
vc::Status TimingEnv::RemoveDirRecursive(const std::string& path) {
  PERFBENCH_TIMED_META(base_->RemoveDirRecursive(path));
}

#undef PERFBENCH_TIMED_META

vc::Result<vc::LruCache::Value> TimingCellSource::ReadCell(
    const vc::VideoMetadata& metadata, int segment, int tile, int quality) {
  auto start = std::chrono::steady_clock::now();
  auto result = base_->ReadCell(metadata, segment, tile, quality);
  fetch_ns_ += ElapsedNs(start);
  return result;
}

vc::Result<vc::LruCache::AsyncHandle> TimingCellSource::ReadCellAsync(
    const vc::VideoMetadata& metadata, int segment, int tile, int quality,
    vc::LoadKind kind) {
  auto start = std::chrono::steady_clock::now();
  auto result = base_->ReadCellAsync(metadata, segment, tile, quality, kind);
  fetch_ns_ += ElapsedNs(start);
  return result;
}

vc::Status TimingCellSource::ReadPlannedCells(
    const vc::VideoMetadata& metadata, int segment,
    const std::vector<int>& tile_qualities) {
  auto start = std::chrono::steady_clock::now();
  vc::Status status =
      base_->ReadPlannedCells(metadata, segment, tile_qualities);
  fetch_ns_ += ElapsedNs(start);
  return status;
}

void Report::EndToEnd(const std::string& name, double value) {
  end_to_end_.push_back({name, value, UnitOf(kEndToEnd, name), 0});
}

void Report::Layer(const std::string& name, double value) {
  layers_.push_back({name, value, UnitOf(kLayers, name), 0});
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  details_.push_back({name, value, unit, samples});
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  errors_.push_back(why);
}

const Report::Entry* Report::Find(const std::vector<Entry>& entries,
                                  const char* name) {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void Report::Print(const Options& options,
                   const std::string& stamp_json) const {
  std::printf("workload %s  seed %llu  %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced (per-layer)" : "untraced (end-to-end)");
  for (const Entry& e : details_) {
    if (e.samples > 0) {
      std::printf("  %-36s %14.4f %-8s (n=%zu)\n", e.name.c_str(),
                  e.value, e.unit.c_str(), e.samples);
    } else {
      std::printf("  %-36s %14.4f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::printf("  %-36s %14.6f ratio (%llu of %llu operations)\n",
              "failed_ratio",
              attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::string& error : errors_) {
    std::printf("  CHECK FAILED: %s\n", error.c_str());
  }
  if (options.trace) {
    std::printf("  per-layer metric                               value unit"
                "    -> should move\n");
    for (const MetricSpec& spec : kLayers) {
      const Entry* e = Find(layers_, spec.name);
      if (e == nullptr) continue;  // a layer this workload bypasses
      std::printf("  %-36s %14.4f %-7s -> %s\n", spec.name, e->value,
                  spec.unit, spec.moves);
    }
  }
  std::printf("STAMP %s\n", stamp_json.c_str());
  std::printf("OUTCOME %016llx\n", static_cast<unsigned long long>(outcome_));

  // The final line: BENCHMARK.json's metric set for this mode, in order.
  std::string metrics;
  auto append = [&](const std::string& name, double value, const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + Number(value) +
               ", \"unit\": " + JsonString(unit) + "}";
  };
  bool complete = true;
  auto emit = [&](const auto& specs, const std::vector<Entry>& entries,
                  bool required) {
    for (const MetricSpec& spec : specs) {
      // A layer this workload bypasses does no work: 0. A missing
      // end-to-end metric is a harness bug.
      const Entry* e = Find(entries, spec.name);
      if (e == nullptr && required) complete = false;
      append(spec.name, e != nullptr ? e->value : 0.0, spec.unit);
    }
  };
  if (options.trace) {
    emit(kLayers, layers_, false);
  } else {
    emit(kEndToEnd, end_to_end_, true);
  }
  if (!complete) {
    std::fprintf(stderr, "perfbench: end-to-end metric set incomplete\n");
    std::exit(2);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct() && attempted_ > 0 ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

std::string StampJson(const Options& options) {
  std::string json = "{";
  json += "\"compiler\": " + JsonString(PERFBENCH_COMPILER);
  json += ", \"flags\": " + JsonString(PERFBENCH_FLAGS);
  json += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  json += ", \"simd\": " +
          JsonString(vc::simd::LevelName(vc::simd::ActiveLevel()));
  json += ", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency());
  json += ", \"encode_threads\": " + std::to_string(kEncodeThreads);
  json += ", \"env\": " + JsonString(kEnvKind);
  json += ", \"workload\": " + JsonString(options.workload);
  json += ", \"seed\": " + std::to_string(options.seed);
  json += ", \"seconds\": " + Number(options.seconds);
  json += ", \"commit\": " + JsonString(options.commit);
  return json + "}";
}

vc::Env* StoreEnv() {
  static vc::Env* env = vc::NewMemEnv().release();
  return env;
}

std::unique_ptr<vc::VisualCloud> OpenFreshStore(vc::Env* env,
                                               const std::string& root,
                                               size_t cache_bytes) {
  CheckOk(env->RemoveDirRecursive(root), "clear store dir");
  vc::VisualCloudOptions options;
  options.storage.env = env;
  options.storage.root = root;
  options.storage.cache_capacity_bytes = cache_bytes;
  options.encode_threads = kEncodeThreads;
  return CheckOk(vc::VisualCloud::Open(options), "open store");
}

void ReportOverhead(double untraced_cpu_us, double traced_cpu_us,
                    Report* report) {
  report->Layer("trace.overhead_pct",
                (traced_cpu_us / untraced_cpu_us - 1) * 100);
  report->Detail("untraced_norm_cpu_us_per_unit", untraced_cpu_us, "us");
  report->Detail("traced_norm_cpu_us_per_unit", traced_cpu_us, "us");
}

void ReportHostSpeed(const HostSpeed& speed, Report* report) {
  report->Detail("host_kernel_cpu_ms", speed.MedianMs(), "ms",
                 speed.samples());
  report->Detail("host_speed_scale", speed.Scale(), "ratio");
}

Clocks TimedSetups(const std::function<void()>& setup) {
  std::vector<double> wall, cpu;
  for (int i = 0; i < kSetups; ++i) {
    const Clocks start = Clocks::Now();
    setup();
    const Clocks took = start.Elapsed();
    wall.push_back(took.wall);
    cpu.push_back(took.cpu);
  }
  return {Median(wall), Median(cpu)};
}

void CheckOk(const vc::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace perfbench
