#ifndef VC_CODEC_SIMD_H_
#define VC_CODEC_SIMD_H_

// Portable-intrinsics layer for the codec hot kernels.
//
// Selection happens at two levels:
//  - Compile time: the best ISA the compiler was asked to target (SSE2 is
//    the x86-64 baseline, SSE4.1 under -msse4.1, NEON on aarch64). Building
//    with -DVC_DISABLE_SIMD removes every intrinsics path outright, leaving
//    the scalar fallbacks — the configuration the CI `simd` leg uses to
//    prove both paths bit-identical.
//  - Run time: a capability guard (`ActiveLevel`) verifies the CPU actually
//    supports what was compiled in and exposes a kill-switch
//    (`SetEnabled(false)`, or VC_SIMD=off in the environment) so a single
//    binary can run either path — which is how the bit-exactness tests and
//    the scalar-vs-SIMD micro-benchmarks compare them.
//
// Every vector kernel in the codec is *bit-identical* to its scalar
// fallback: all of them, the transform included, are exact integer
// arithmetic whose intermediates never overflow, so evaluation order cannot
// matter. Tests enforce this; see codec_test.cc (SimdTest.*).

#include <atomic>

#if !defined(VC_DISABLE_SIMD)
#if defined(__x86_64__) || defined(_M_X64) || defined(__SSE2__)
#define VC_SIMD_X86 1
#include <emmintrin.h>
#if defined(__SSE4_1__)
#define VC_SIMD_X86_SSE41 1
#include <smmintrin.h>
#endif
#if defined(__GNUC__) || defined(__clang__)
// GCC/Clang support per-function ISA selection (`target` attribute), so even
// an SSE2-baseline binary carries AVX2 variants of the hottest kernels and
// picks them at run time behind the capability guard. MSVC has no equivalent;
// there the SSE2 paths are the ceiling.
#define VC_SIMD_X86_AVX2_DISPATCH 1
#define VC_AVX2_FN __attribute__((target("avx2")))
#include <immintrin.h>
#endif
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define VC_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !VC_DISABLE_SIMD

#if defined(VC_SIMD_X86) || defined(VC_SIMD_NEON)
#define VC_SIMD_ANY 1
#endif

namespace vc {
namespace simd {

/// Instruction-set tiers the codec kernels dispatch over, in strength order.
enum class Level { kScalar = 0, kSse2 = 1, kSse41 = 2, kAvx2 = 3, kNeon = 4 };

/// The best tier with code compiled into this binary. With GCC/Clang on
/// x86-64 this is kAvx2 even for an SSE2-baseline build, because the AVX2
/// kernel variants are compiled via per-function `target` attributes and
/// only dispatched to when the host CPU passes the capability probe.
Level CompiledLevel();

/// The tier kernels actually run at: `CompiledLevel()` clamped by the
/// runtime capability guard (a binary carrying AVX2 or SSE4.1 paths refuses
/// to dispatch them on a CPU without that extension rather than fault), by
/// the `SetLevelCap` ceiling, and by the `SetEnabled` kill-switch.
Level ActiveLevel();

/// Human-readable tier name ("scalar", "sse2", "sse4.1", "avx2", "neon").
const char* LevelName(Level level);

/// Caps `ActiveLevel` at `level` (e.g. kSse2 forces the SSE2 paths on an
/// AVX2 host, which is how the bit-exactness tests and the tier-by-tier
/// micro-benchmarks exercise every compiled path on one machine). Also
/// settable at startup via VC_SIMD=scalar|sse2|sse4.1|avx2|neon. Only
/// kernels with multiple vector tiers consult the cap; baseline-tier
/// kernels (e.g. the SSE2 SAD) consult just the `SetEnabled` kill-switch,
/// which remains the way to force fully scalar execution. Returns the
/// resulting `ActiveLevel`.
Level SetLevelCap(Level level);

/// The current `SetLevelCap` ceiling (defaults to the strongest tier).
Level LevelCap();

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// Whether vector kernels are active. Inline and branch-predictable: the
/// codec checks it once per kernel invocation.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Runtime kill-switch. Enabling is a no-op when the binary has no vector
/// paths or the CPU fails the capability guard. Returns the resulting state.
bool SetEnabled(bool enabled);

#if defined(VC_SIMD_X86)

/// Horizontal sum of the two 64-bit SAD accumulators psadbw produces.
inline uint32_t HorizontalSadSum(__m128i sad) {
  return static_cast<uint32_t>(
      _mm_cvtsi128_si32(_mm_add_epi32(sad, _mm_srli_si128(sad, 8))));
}

/// Transposes an 8x8 block of int16 held as 8 rows (`m[r]` = row r, lane c =
/// column c): three rounds of interleaves at 16-, 32- and 64-bit width. Pure
/// data movement, so it cannot perturb bit-exactness.
inline void Transpose8x8(__m128i m[8]) {
  __m128i a[8], b[8];
#pragma GCC unroll 8
  for (int r = 0; r < 8; r += 2) {
    a[r / 2] = _mm_unpacklo_epi16(m[r], m[r + 1]);      // columns 0-3
    a[4 + r / 2] = _mm_unpackhi_epi16(m[r], m[r + 1]);  // columns 4-7
  }
#pragma GCC unroll 8
  for (int h = 0; h < 8; h += 4) {
    b[h] = _mm_unpacklo_epi32(a[h], a[h + 1]);
    b[h + 1] = _mm_unpackhi_epi32(a[h], a[h + 1]);
    b[h + 2] = _mm_unpacklo_epi32(a[h + 2], a[h + 3]);
    b[h + 3] = _mm_unpackhi_epi32(a[h + 2], a[h + 3]);
  }
  // b[h + j] (j < 2) holds columns h + 2j and h + 2j + 1 of rows 0-3;
  // b[h + 2 + j] holds the same columns of rows 4-7.
#pragma GCC unroll 8
  for (int h = 0; h < 8; h += 4) {
#pragma GCC unroll 8
    for (int j = 0; j < 2; ++j) {
      const int col = h + 2 * j;
      m[col] = _mm_unpacklo_epi64(b[h + j], b[h + 2 + j]);
      m[col + 1] = _mm_unpackhi_epi64(b[h + j], b[h + 2 + j]);
    }
  }
}

#endif  // VC_SIMD_X86

}  // namespace simd
}  // namespace vc

#endif  // VC_CODEC_SIMD_H_
