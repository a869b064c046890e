#ifndef VC_CORE_PLAN_CACHE_H_
#define VC_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/reconstruct.h"

namespace vc {

/// \brief Everything a segment plan is a function of, for one video.
///
/// Two sessions with equal keys would compute byte-identical
/// TileQualityPlans, so the plan can be computed once and shared — the
/// VisualCloud thesis (plan centrally, serve many viewers) applied to the
/// planner itself. Equality is EXACT, doubles included: the cache is a pure
/// memoizer, never an approximation, which is what makes served bytes/QoE
/// provably identical with the cache on or off. Orientation and budget
/// quantization exist only inside PlanKeyHash, to bucket nearby keys; they
/// can only affect hit rate, never the returned plan.
///
/// A PlanKey carries no video identity: use one PlanCache per video (the
/// server keeps a per-video map, like the shared popularity model). Live
/// growth is safe — a published segment's cell sizes never change, so a
/// cached plan stays valid for the video's lifetime.
struct PlanKey {
  int segment = 0;
  int approach = 0;  ///< static_cast<int>(StreamingApproach).
  bool adaptive = false;
  int high_quality = 0;
  double fov_yaw = 0.0;
  double fov_pitch = 0.0;
  double margin = 0.0;
  /// Predicted gaze the plan is built around (zeroed for view-agnostic
  /// approaches so all sessions share one key per segment/budget).
  double yaw = 0.0;
  double pitch = 0.0;
  double budget_bytes = 0.0;
  /// Popularity-overlay tile indices forced to the high rung, in the
  /// deterministic order PopularTiles returns them.
  std::vector<int> popular;

  bool operator==(const PlanKey&) const = default;
};

/// Hash bucketing for PlanKey: exact discrete fields, quantized continuous
/// ones (orientation to ~0.008 rad, budget to 4 KiB tiers). Exactly equal
/// keys always collide into the same bucket; nearby-but-unequal keys often
/// do too, which costs an equality check, never correctness.
struct PlanKeyHash {
  size_t operator()(const PlanKey& key) const;
};

/// \brief Shared memoization of segment plans across a video's sessions.
///
/// Thread-safe. Eviction is generational: when the table reaches
/// `max_entries` it is dropped wholesale — plans are cheap to recompute and
/// a generation flush can only cause extra misses, never a wrong plan.
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    double HitRate() const {
      uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
    Stats& operator+=(const Stats& other) {
      hits += other.hits;
      misses += other.misses;
      return *this;
    }
  };

  /// A cached plan, the bytes it transfers, and the downgrade count budget
  /// fitting produced. A hit needs no PlanBytes pass, and the session
  /// replays the `session.quality_downgrades` metric from it, so
  /// observability is identical cached or not.
  struct Entry {
    TileQualityPlan plan;
    uint64_t bytes = 0;  ///< PlanBytes of `plan` for the key's segment.
    int downgrades = 0;
  };

  explicit PlanCache(size_t max_entries = 1 << 16);

  /// True and fills `*out` when `key` is cached (counts a hit; else a miss).
  bool Lookup(const PlanKey& key, Entry* out);

  /// Stores the computed plan for `key`.
  void Insert(const PlanKey& key, Entry entry);

  Stats stats() const;
  size_t size() const;

 private:
  const size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<PlanKey, Entry, PlanKeyHash> map_;
  Stats stats_;
};

}  // namespace vc

#endif  // VC_CORE_PLAN_CACHE_H_
