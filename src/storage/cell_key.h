#ifndef VC_STORAGE_CELL_KEY_H_
#define VC_STORAGE_CELL_KEY_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "storage/metadata.h"

namespace vc {

/// \brief A cell's identity packed into one machine word.
///
/// Every cache, shard, and prefetch structure on the serving hot path keys
/// on this instead of a formatted string, so a lookup is one integer hash
/// instead of a snprintf + string hash + byte-wise compare. Layout (MSB to
/// LSB): keyspace:18 | segment:22 | tile:16 | quality:8. The keyspace is a
/// process-interned id for (video name, data directory) — data directory,
/// not version, because live checkpoints publish versions that share cell
/// files. Coordinates that overflow a field fall back to interning the full
/// coordinate string as its own keyspace, so the mapping stays exact.
using PackedCellKey = uint64_t;

inline constexpr int kPackedQualityBits = 8;
inline constexpr int kPackedTileBits = 16;
inline constexpr int kPackedSegmentBits = 22;
inline constexpr int kPackedKeyspaceBits = 18;

/// splitmix64 finalizer: full-avalanche mix so sequential packed keys
/// spread across hash-table buckets and shard rings.
inline uint64_t MixCellKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Hash functor for PackedCellKey-keyed tables. Counts invocations in a
/// process-wide relaxed atomic so tests can assert the single-hash property
/// of the unified cache index (one hash per lookup, hit or miss).
struct CellKeyHash {
  static std::atomic<uint64_t> invocations;

  size_t operator()(PackedCellKey key) const {
    invocations.fetch_add(1, std::memory_order_relaxed);
    return static_cast<size_t>(MixCellKey(key));
  }
};

/// Interns an arbitrary identity string into the process-wide keyspace
/// registry. Returns a stable id >= 1 (0 means "not interned" in memo
/// slots). Thread-safe.
uint32_t InternCellKeyspace(const std::string& identity);

/// \brief The (segment, tile, quality) coordinates of one stored cell —
/// the unit every layer above the storage manager addresses.
///
/// Centralizes the key formatting that the buffer cache, the
/// prefetcher, and the query executor all need, so there is exactly one
/// definition of what identifies a cell.
struct CellKey {
  int segment = 0;
  int tile = 0;
  int quality = 0;

  bool operator==(const CellKey& o) const {
    return segment == o.segment && tile == o.tile && quality == o.quality;
  }
  bool operator<(const CellKey& o) const {
    if (segment != o.segment) return segment < o.segment;
    if (tile != o.tile) return tile < o.tile;
    return quality < o.quality;
  }

  /// True when the coordinates address a cell of `metadata`.
  bool InRange(const VideoMetadata& metadata) const {
    return segment >= 0 && segment < metadata.segment_count() && tile >= 0 &&
           tile < metadata.tile_count() && quality >= 0 &&
           quality < metadata.quality_count();
  }

  /// Flat index into `metadata.cells`.
  size_t Index(const VideoMetadata& metadata) const {
    return metadata.CellIndex(segment, tile, quality);
  }

  /// Packed cache/shard key. The video's keyspace id is memoized on the
  /// metadata after the first call, so the steady-state cost is three
  /// shifts and an OR.
  PackedCellKey Packed(const VideoMetadata& metadata) const;

  /// Human-readable key for logs and error messages — the storage/debug
  /// boundary; never used on the hot path.
  std::string DebugString(const VideoMetadata& metadata) const;
};

}  // namespace vc

#endif  // VC_STORAGE_CELL_KEY_H_
