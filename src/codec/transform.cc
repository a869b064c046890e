#include "codec/transform.h"

#include <bit>
#include <cmath>

#include "codec/simd.h"
#include "common/math_util.h"

namespace vc {

namespace {

constexpr int kHalf = kBlockSize / 2;

/// The 8-point core transform matrix, kCoef[k][n] for frequency k and sample
/// n: 64·√8 times the orthonormal DCT-II basis, rounded so that every row
/// keeps the cosine symmetry kCoef[k][7−n] = (−1)ᵏ·kCoef[k][n] and a squared
/// norm within 0.1% of 2¹⁵. The symmetry is what the even/odd partial
/// butterflies below exploit.
constexpr int16_t kCoef[kBlockSize][kBlockSize] = {
    {64, 64, 64, 64, 64, 64, 64, 64},
    {89, 75, 50, 18, -18, -50, -75, -89},
    {83, 36, -36, -83, -83, -36, 36, 83},
    {75, -18, -89, -50, 50, 89, 18, -75},
    {64, -64, -64, 64, 64, -64, -64, 64},
    {50, -89, 18, 75, -75, -18, 89, -50},
    {36, -83, 83, -36, -36, 83, -83, 36},
    {18, -50, 75, -89, 89, -75, 50, -18},
};

// Shift schedule. The forward stages keep residual × 64√8 × 64√8 / 2¹¹ =
// 16× the orthonormal scale; the inverse stages remove the same gain.
// Every stage sums at most 8 products of an int16 by a coefficient whose
// row L1 norm is ≤ 512, so |sum| ≤ 512·32768 = 2²⁴ and int32 never
// overflows, whatever int16 input (including corrupt dequantized levels)
// arrives.
constexpr int kForwardShift1 = 2;
constexpr int kForwardShift2 = 9;
constexpr int kInverseShift1 = 7;
constexpr int kInverseShift2 = 12;

inline int16_t Sat16(int32_t v) {
  return static_cast<int16_t>(Clamp<int32_t>(v, -32768, 32767));
}

/// One forward 8-point partial butterfly: dst[k·dst_stride] =
/// sat16((Σₙ kCoef[k][n]·src[n] + round) >> shift).
inline void ForwardButterfly8(const int16_t* src, int shift, int16_t* dst,
                              int dst_stride) {
  const int32_t round = 1 << (shift - 1);
  int32_t e[kHalf], o[kHalf];
  for (int i = 0; i < kHalf; ++i) {
    e[i] = src[i] + src[kBlockSize - 1 - i];
    o[i] = src[i] - src[kBlockSize - 1 - i];
  }
  const int32_t ee0 = e[0] + e[3], eo0 = e[0] - e[3];
  const int32_t ee1 = e[1] + e[2], eo1 = e[1] - e[2];
  int32_t sum[kBlockSize];
  sum[0] = 64 * ee0 + 64 * ee1;
  sum[4] = 64 * ee0 - 64 * ee1;
  sum[2] = 83 * eo0 + 36 * eo1;
  sum[6] = 36 * eo0 - 83 * eo1;
  for (int k = 1; k < kBlockSize; k += 2) {
    sum[k] = kCoef[k][0] * o[0] + kCoef[k][1] * o[1] + kCoef[k][2] * o[2] +
             kCoef[k][3] * o[3];
  }
  for (int k = 0; k < kBlockSize; ++k) {
    dst[k * dst_stride] = Sat16((sum[k] + round) >> shift);
  }
}

/// One inverse 8-point partial butterfly: dst[n] =
/// sat16((Σₖ kCoef[k][n]·src[k·src_stride] + round) >> shift).
inline void InverseButterfly8(const int16_t* src, int src_stride, int shift,
                              int16_t* dst) {
  const int32_t round = 1 << (shift - 1);
  int32_t s[kBlockSize];
  for (int k = 0; k < kBlockSize; ++k) s[k] = src[k * src_stride];
  const int32_t ee0 = 64 * s[0] + 64 * s[4], ee1 = 64 * s[0] - 64 * s[4];
  const int32_t eo0 = 83 * s[2] + 36 * s[6], eo1 = 36 * s[2] - 83 * s[6];
  const int32_t e[kHalf] = {ee0 + eo0, ee1 + eo1, ee1 - eo1, ee0 - eo0};
  for (int n = 0; n < kHalf; ++n) {
    const int32_t o = kCoef[1][n] * s[1] + kCoef[3][n] * s[3] +
                      kCoef[5][n] * s[5] + kCoef[7][n] * s[7];
    dst[n] = Sat16((e[n] + o + round) >> shift);
    dst[kBlockSize - 1 - n] = Sat16((e[n] - o + round) >> shift);
  }
}

void ForwardDctScalar(const ResidualBlock& input, CoeffBlock* output) {
  int16_t temp[kBlockPixels];  // temp[u·8 + y]: row transform of row y
  for (int y = 0; y < kBlockSize; ++y) {
    ForwardButterfly8(&input[y * kBlockSize], kForwardShift1, temp + y,
                      kBlockSize);
  }
  for (int u = 0; u < kBlockSize; ++u) {
    ForwardButterfly8(temp + u * kBlockSize, kForwardShift2, output->data() + u,
                      kBlockSize);
  }
}

void InverseDctScalar(const CoeffBlock& input, ResidualBlock* output) {
  int16_t temp[kBlockPixels];  // temp[y·8 + u]: column transform of column u
  for (int u = 0; u < kBlockSize; ++u) {
    int16_t column[kBlockSize];
    InverseButterfly8(input.data() + u, kBlockSize, kInverseShift1, column);
    for (int y = 0; y < kBlockSize; ++y) temp[y * kBlockSize + u] = column[y];
  }
  for (int y = 0; y < kBlockSize; ++y) {
    InverseButterfly8(temp + y * kBlockSize, 1, kInverseShift2,
                      &(*output)[y * kBlockSize]);
  }
}

// Quantizer tables (HEVC): f[qp%6]·g[qp%6] ≈ 2²⁰ and f[4] = 2¹⁴, so QP 4
// is a unit step in orthonormal units; each further 6 QP doubles the step
// through the qp/6 shift. kQuantShift = 14 (precision of f) + 4 (the
// transform's 16× gain).
constexpr int32_t kQuantScale[6] = {26214, 23302, 20560, 18396, 16384, 14564};
constexpr int32_t kDequantScale[6] = {40, 45, 51, 57, 64, 72};
constexpr int kQuantShift = 18;

struct QuantParams {
  int32_t scale;  // f[qp%6]
  int shift;      // kQuantShift + qp/6, ≤ 26
  int32_t round;  // ⌊0.4·2^shift⌋: the dead zone
};

constexpr QuantParams QuantParamsFor(int qp) {
  qp = Clamp(qp, 0, kMaxQp);
  const int shift = kQuantShift + qp / 6;
  return QuantParams{kQuantScale[qp % 6], shift,
                     static_cast<int32_t>((int64_t{2} << shift) / 5)};
}

/// ZeroLevelLimit per QP: the largest |c| with |c|·f + round < 2^shift.
constexpr std::array<int, kMaxQp + 1> kZeroLevelLimit = [] {
  std::array<int, kMaxQp + 1> limits{};
  for (int qp = 0; qp <= kMaxQp; ++qp) {
    const QuantParams p = QuantParamsFor(qp);
    limits[qp] = ((int32_t{1} << p.shift) - p.round - 1) / p.scale;
  }
  return limits;
}();

/// g[qp%6] << qp/6 ≤ 57·2⁸ = 14592: fits an int16 multiplier lane.
int32_t DequantScaleFor(int qp) {
  qp = Clamp(qp, 0, kMaxQp);
  return kDequantScale[qp % 6] << (qp / 6);
}

// Quantize: |c| ≤ 2¹⁵ and f < 2¹⁵, so |c|·f + round < 2³⁰ + 2²⁵ fits int32.
int QuantizeScalar(const CoeffBlock& coeffs, const QuantParams& p,
                   LevelBlock* levels) {
  int nonzero = 0;
  for (int i = 0; i < kBlockPixels; ++i) {
    const int32_t c = coeffs[i];
    const int32_t magnitude = ((c < 0 ? -c : c) * p.scale + p.round) >> p.shift;
    (*levels)[i] = c < 0 ? -magnitude : magnitude;
    nonzero += magnitude != 0;
  }
  return nonzero;
}

// Dequantize: the level saturates to int16 first, so |l·scale + 2| ≤
// 2¹⁵·14592 + 2 < 2³¹.
void DequantizeScalar(const LevelBlock& levels, int32_t scale,
                      CoeffBlock* coeffs) {
  for (int i = 0; i < kBlockPixels; ++i) {
    const int32_t level = Clamp<int32_t>(levels[i], -32768, 32767);
    (*coeffs)[i] = Sat16((level * scale + 2) >> 2);
  }
}

#if defined(VC_SIMD_X86)

// The vector transform works "column-parallel": each stage runs the 8-point
// butterfly on all 8 columns at once, one column per int16 lane, and
// _mm_madd_epi16 forms two products and their sum per int32 lane. Two 8×8
// transposes put the data in lane order for each stage. The arithmetic is
// exact integer arithmetic with the same rounding and saturation as the
// scalar butterflies (packs_epi32 saturates exactly like Sat16), so every
// tier is bit-identical to the scalar path. The loops are fully unrolled so
// the working set stays in registers and every multiplier pair is a
// compile-time constant.

/// A madd multiplier pair: int32 lane = (a in the low word, b in the high
/// word), so madd(unpack(x, y), Pair(a, b)) = a·x + b·y per lane.
inline __m128i Pair(int a, int b) {
  return _mm_set1_epi32(static_cast<int32_t>(
      static_cast<uint16_t>(a) | (uint32_t{static_cast<uint16_t>(b)} << 16)));
}

/// Forward stage: out[k] = sat16((Σᵢ kCoef[k][i]·in[i] + round) >> kShift),
/// lane-wise. Inputs are paired (i, 7−i) so no int16 sum can overflow.
template <int kShift>
inline void ForwardStage(const __m128i in[8], __m128i out[8]) {
  const __m128i round = _mm_set1_epi32(1 << (kShift - 1));
  __m128i lo[kHalf], hi[kHalf];
#pragma GCC unroll 8
  for (int i = 0; i < kHalf; ++i) {
    lo[i] = _mm_unpacklo_epi16(in[i], in[kBlockSize - 1 - i]);
    hi[i] = _mm_unpackhi_epi16(in[i], in[kBlockSize - 1 - i]);
  }
#pragma GCC unroll 8
  for (int k = 0; k < kBlockSize; ++k) {
    __m128i acc_lo = round, acc_hi = round;
#pragma GCC unroll 8
    for (int i = 0; i < kHalf; ++i) {
      const __m128i coef = Pair(kCoef[k][i], kCoef[k][kBlockSize - 1 - i]);
      acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(lo[i], coef));
      acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(hi[i], coef));
    }
    out[k] = _mm_packs_epi32(_mm_srai_epi32(acc_lo, kShift),
                             _mm_srai_epi32(acc_hi, kShift));
  }
}

/// Inverse stage: out[n] = sat16((Σₖ kCoef[k][n]·in[k] + round) >> kShift),
/// lane-wise, as even part ± odd part for the symmetric pair (n, 7−n).
template <int kShift>
inline void InverseStage(const __m128i in[8], __m128i out[8]) {
  const __m128i round = _mm_set1_epi32(1 << (kShift - 1));
  // Input pairs: (0, 4) and (2, 6) feed the even part, (1, 3) and (5, 7)
  // the odd part.
  constexpr int kPairs[4][2] = {{0, 4}, {2, 6}, {1, 3}, {5, 7}};
  __m128i lo[4], hi[4];
#pragma GCC unroll 8
  for (int p = 0; p < 4; ++p) {
    lo[p] = _mm_unpacklo_epi16(in[kPairs[p][0]], in[kPairs[p][1]]);
    hi[p] = _mm_unpackhi_epi16(in[kPairs[p][0]], in[kPairs[p][1]]);
  }
#pragma GCC unroll 8
  for (int n = 0; n < kHalf; ++n) {
    __m128i coef[4];
#pragma GCC unroll 8
    for (int p = 0; p < 4; ++p) {
      coef[p] = Pair(kCoef[kPairs[p][0]][n], kCoef[kPairs[p][1]][n]);
    }
    const __m128i e_lo = _mm_add_epi32(
        _mm_add_epi32(_mm_madd_epi16(lo[0], coef[0]),
                      _mm_madd_epi16(lo[1], coef[1])),
        round);
    const __m128i e_hi = _mm_add_epi32(
        _mm_add_epi32(_mm_madd_epi16(hi[0], coef[0]),
                      _mm_madd_epi16(hi[1], coef[1])),
        round);
    const __m128i o_lo = _mm_add_epi32(_mm_madd_epi16(lo[2], coef[2]),
                                       _mm_madd_epi16(lo[3], coef[3]));
    const __m128i o_hi = _mm_add_epi32(_mm_madd_epi16(hi[2], coef[2]),
                                       _mm_madd_epi16(hi[3], coef[3]));
    out[n] = _mm_packs_epi32(_mm_srai_epi32(_mm_add_epi32(e_lo, o_lo), kShift),
                             _mm_srai_epi32(_mm_add_epi32(e_hi, o_hi), kShift));
    out[kBlockSize - 1 - n] =
        _mm_packs_epi32(_mm_srai_epi32(_mm_sub_epi32(e_lo, o_lo), kShift),
                        _mm_srai_epi32(_mm_sub_epi32(e_hi, o_hi), kShift));
  }
}

inline void LoadRows(const int16_t* block, __m128i m[8]) {
#pragma GCC unroll 8
  for (int r = 0; r < kBlockSize; ++r) {
    m[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(block + r * kBlockSize));
  }
}

inline void StoreRows(const __m128i m[8], int16_t* block) {
#pragma GCC unroll 8
  for (int r = 0; r < kBlockSize; ++r) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(block + r * kBlockSize), m[r]);
  }
}

void ForwardDctSse2(const ResidualBlock& input, CoeffBlock* output) {
  __m128i m[8], t[8];
  LoadRows(input.data(), m);
  simd::Transpose8x8(m);               // m[x]: sample x of every row y
  ForwardStage<kForwardShift1>(m, t);  // t[u]: row frequency u, lanes y
  simd::Transpose8x8(t);               // t[y]: lanes u
  ForwardStage<kForwardShift2>(t, m);  // m[v]: output row v
  StoreRows(m, output->data());
}

void InverseDctSse2(const CoeffBlock& input, ResidualBlock* output) {
  __m128i m[8], t[8];
  LoadRows(input.data(), m);           // m[v]: coefficient row v, lanes u
  InverseStage<kInverseShift1>(m, t);  // t[y]: column transform, lanes u
  simd::Transpose8x8(t);               // t[u]: lanes y
  InverseStage<kInverseShift2>(t, m);  // m[x]: lanes y
  simd::Transpose8x8(m);               // m[y]: output row y
  StoreRows(m, output->data());
}

int QuantizeSse2(const CoeffBlock& coeffs, const QuantParams& p,
                 LevelBlock* levels) {
  // |c| as uint16 (|−32768| = 0x8000 is still exact unsigned), times
  // f < 2¹⁵ as a full 32-bit product from the low and high halves.
  const __m128i scale = _mm_set1_epi16(static_cast<int16_t>(p.scale));
  const __m128i round = _mm_set1_epi32(p.round);
  const __m128i shift = _mm_cvtsi32_si128(p.shift);
  const __m128i zero = _mm_setzero_si128();
  int zero_bits = 0;
  for (int i = 0; i < kBlockPixels; i += 8) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&coeffs[i]));
    const __m128i sign = _mm_srai_epi16(c, 15);
    const __m128i abs = _mm_sub_epi16(_mm_xor_si128(c, sign), sign);
    const __m128i prod_lo = _mm_mullo_epi16(abs, scale);
    const __m128i prod_hi = _mm_mulhi_epu16(abs, scale);
    const __m128i mag0 = _mm_srl_epi32(
        _mm_add_epi32(_mm_unpacklo_epi16(prod_lo, prod_hi), round), shift);
    const __m128i mag1 = _mm_srl_epi32(
        _mm_add_epi32(_mm_unpackhi_epi16(prod_lo, prod_hi), round), shift);
    const __m128i sign0 = _mm_unpacklo_epi16(sign, sign);
    const __m128i sign1 = _mm_unpackhi_epi16(sign, sign);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&(*levels)[i]),
                     _mm_sub_epi32(_mm_xor_si128(mag0, sign0), sign0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&(*levels)[i + 4]),
                     _mm_sub_epi32(_mm_xor_si128(mag1, sign1), sign1));
    // Magnitudes are < 2¹⁵ (|c|·f >> 18 with f < 2¹⁵), so the pack is exact.
    const __m128i is_zero = _mm_cmpeq_epi16(_mm_packs_epi32(mag0, mag1), zero);
    zero_bits +=
        std::popcount(static_cast<unsigned>(_mm_movemask_epi8(is_zero)));
  }
  return kBlockPixels - zero_bits / 2;
}

void DequantizeSse2(const LevelBlock& levels, int32_t scale,
                    CoeffBlock* coeffs) {
  // packs_epi32 saturates levels to int16 exactly as the scalar clamp; the
  // madd pair (scale, 2) against (level, 1) adds the rounding term.
  const __m128i coef = Pair(scale, 2);
  const __m128i one = _mm_set1_epi16(1);
  for (int i = 0; i < kBlockPixels; i += 8) {
    const __m128i level = _mm_packs_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&levels[i])),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&levels[i + 4])));
    const __m128i lo =
        _mm_srai_epi32(_mm_madd_epi16(_mm_unpacklo_epi16(level, one), coef), 2);
    const __m128i hi =
        _mm_srai_epi32(_mm_madd_epi16(_mm_unpackhi_epi16(level, one), coef), 2);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&(*coeffs)[i]),
                     _mm_packs_epi32(lo, hi));
  }
}

#if defined(VC_SIMD_X86_AVX2_DISPATCH)

// AVX2 variants of the forward transform and the quantizer: the same
// stages with both 4-lane halves of a row in one ymm register, so each madd
// covers all 8 columns. Same exact integer arithmetic, so still
// bit-identical.

/// Interleaves rows a and b for madd: low half columns 0-3, high half 4-7.
VC_AVX2_FN inline __m256i PairRows(__m128i a, __m128i b) {
  return _mm256_inserti128_si256(
      _mm256_castsi128_si256(_mm_unpacklo_epi16(a, b)),
      _mm_unpackhi_epi16(a, b), 1);
}

/// Shifts 8 int32 sums right and saturates them back to one int16 row.
template <int kShift>
VC_AVX2_FN inline __m128i NarrowRow(__m256i acc) {
  acc = _mm256_srai_epi32(acc, kShift);
  return _mm_packs_epi32(_mm256_castsi256_si128(acc),
                         _mm256_extracti128_si256(acc, 1));
}

template <int kShift>
VC_AVX2_FN inline void ForwardStageAvx2(const __m128i in[8], __m128i out[8]) {
  const __m256i round = _mm256_set1_epi32(1 << (kShift - 1));
  __m256i pairs[kHalf];
#pragma GCC unroll 8
  for (int i = 0; i < kHalf; ++i) {
    pairs[i] = PairRows(in[i], in[kBlockSize - 1 - i]);
  }
#pragma GCC unroll 8
  for (int k = 0; k < kBlockSize; ++k) {
    __m256i acc = round;
#pragma GCC unroll 8
    for (int i = 0; i < kHalf; ++i) {
      const __m256i coef = _mm256_broadcastsi128_si256(
          Pair(kCoef[k][i], kCoef[k][kBlockSize - 1 - i]));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs[i], coef));
    }
    out[k] = NarrowRow<kShift>(acc);
  }
}

VC_AVX2_FN void ForwardDctAvx2(const ResidualBlock& input, CoeffBlock* output) {
  __m128i m[8], t[8];
  LoadRows(input.data(), m);
  simd::Transpose8x8(m);
  ForwardStageAvx2<kForwardShift1>(m, t);
  simd::Transpose8x8(t);
  ForwardStageAvx2<kForwardShift2>(t, m);
  StoreRows(m, output->data());
}

VC_AVX2_FN int QuantizeAvx2(const CoeffBlock& coeffs, const QuantParams& p,
                            LevelBlock* levels) {
  const __m256i scale = _mm256_set1_epi32(p.scale);
  const __m256i round = _mm256_set1_epi32(p.round);
  const __m128i shift = _mm_cvtsi32_si128(p.shift);
  const __m256i zero = _mm256_setzero_si256();
  int zero_lanes = 0;
  for (int i = 0; i < kBlockPixels; i += 8) {
    const __m256i c = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&coeffs[i])));
    const __m256i magnitude = _mm256_srl_epi32(
        _mm256_add_epi32(_mm256_mullo_epi32(_mm256_abs_epi32(c), scale),
                         round),
        shift);
    // sign_epi32 negates where c < 0 (and zeroes where c == 0, where the
    // magnitude is already 0).
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&(*levels)[i]),
                        _mm256_sign_epi32(magnitude, c));
    zero_lanes += std::popcount(static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(magnitude, zero)))));
  }
  return kBlockPixels - zero_lanes;
}

/// Whether the tiered kernels should take their AVX2 variant.
inline bool DispatchAvx2() {
  return simd::ActiveLevel() >= simd::Level::kAvx2;
}

#endif  // VC_SIMD_X86_AVX2_DISPATCH

#endif  // VC_SIMD_X86

}  // namespace

void ForwardDct(const ResidualBlock& input, CoeffBlock* output) {
#if defined(VC_SIMD_X86)
  if (simd::Enabled()) {
#if defined(VC_SIMD_X86_AVX2_DISPATCH)
    if (DispatchAvx2()) {
      ForwardDctAvx2(input, output);
      return;
    }
#endif
    ForwardDctSse2(input, output);
    return;
  }
#endif
  ForwardDctScalar(input, output);
}

void InverseDct(const CoeffBlock& input, ResidualBlock* output) {
#if defined(VC_SIMD_X86)
  if (simd::Enabled()) {
    // No AVX2 tier: the inverse stage's even/odd split already needs only
    // half the madds of the forward one, and widening it to ymm measured no
    // faster than SSE2.
    InverseDctSse2(input, output);
    return;
  }
#endif
  InverseDctScalar(input, output);
}

double QStepForQp(int qp) {
  qp = Clamp(qp, 0, kMaxQp);
  return 0.625 * std::pow(2.0, qp / 6.0);
}

int Quantize(const CoeffBlock& coeffs, int qp, LevelBlock* levels) {
  const QuantParams params = QuantParamsFor(qp);
#if defined(VC_SIMD_X86)
  if (simd::Enabled()) {
#if defined(VC_SIMD_X86_AVX2_DISPATCH)
    if (DispatchAvx2()) return QuantizeAvx2(coeffs, params, levels);
#endif
    return QuantizeSse2(coeffs, params, levels);
  }
#endif
  return QuantizeScalar(coeffs, params, levels);
}

int ZeroLevelLimit(int qp) { return kZeroLevelLimit[Clamp(qp, 0, kMaxQp)]; }

void Dequantize(const LevelBlock& levels, int qp, CoeffBlock* coeffs) {
  const int32_t scale = DequantScaleFor(qp);
#if defined(VC_SIMD_X86)
  if (simd::Enabled()) {
    DequantizeSse2(levels, scale, coeffs);
    return;
  }
#endif
  DequantizeScalar(levels, scale, coeffs);
}

const std::array<int, kBlockPixels>& ZigzagOrder() {
  static const std::array<int, kBlockPixels> order = [] {
    std::array<int, kBlockPixels> o{};
    int index = 0;
    for (int s = 0; s < 2 * kBlockSize - 1; ++s) {
      if (s % 2 == 0) {
        // Walk up-right on even anti-diagonals.
        int y = s < kBlockSize ? s : kBlockSize - 1;
        int x = s - y;
        while (y >= 0 && x < kBlockSize) {
          o[index++] = y * kBlockSize + x;
          --y;
          ++x;
        }
      } else {
        int x = s < kBlockSize ? s : kBlockSize - 1;
        int y = s - x;
        while (x >= 0 && y < kBlockSize) {
          o[index++] = y * kBlockSize + x;
          --x;
          ++y;
        }
      }
    }
    return o;
  }();
  return order;
}

}  // namespace vc
