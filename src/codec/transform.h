#ifndef VC_CODEC_TRANSFORM_H_
#define VC_CODEC_TRANSFORM_H_

#include <array>
#include <cstdint>

namespace vc {

/// Residual/coefficient block edge length used throughout the codec.
inline constexpr int kBlockSize = 8;
inline constexpr int kBlockPixels = kBlockSize * kBlockSize;

/// A spatial-domain residual block (row-major).
using ResidualBlock = std::array<int16_t, kBlockPixels>;
/// A frequency-domain coefficient block (row-major before zigzag), at 16×
/// the scale of the orthonormal DCT-II (see ForwardDct).
using CoeffBlock = std::array<int16_t, kBlockPixels>;
/// A quantized-level block (what the entropy coder sees).
using LevelBlock = std::array<int32_t, kBlockPixels>;

/// Forward 8×8 exact-integer core transform (HEVC-style partial butterfly
/// with coefficients 64/83/36/89/75/50/18): rows, then columns, rounding
/// right shifts of 2 and 9 with int16 saturation after each stage. The
/// result is the orthonormal DCT-II scaled by 16, to within rounding. Pure
/// integer arithmetic, so every SIMD tier is bit-identical to the scalar
/// path.
void ForwardDct(const ResidualBlock& input, CoeffBlock* output);

/// Inverse of ForwardDct: columns, then rows, rounding right shifts of 7 and
/// 12 with int16 saturation after each stage.
void InverseDct(const CoeffBlock& input, ResidualBlock* output);

/// Gains of ForwardDct, rounding included, for any residual block `r`:
/// every coefficient satisfies |c| ≤ kForwardDctMaxGain·max|r| and
/// |c| ≤ 16·‖r‖₂ + 1. The encoder's zero-block predetection rests on these.
inline constexpr int kForwardDctMaxGain = 128;

/// Nominal quantizer step size for quantization parameter `qp` ∈ [0, 51] in
/// orthonormal-DCT units; doubles every 6 QP steps, as in H.264/HEVC. The
/// integer quantizer reproduces it to within 1.2%; the encoder's mode
/// decision uses it as its Lagrangian weight.
double QStepForQp(int qp);

/// Maximum supported quantization parameter.
inline constexpr int kMaxQp = 51;

/// Quantizes coefficients to integer levels with a 0.4-step dead-zone
/// rounding: level = sign(c)·((|c|·f[qp%6] + round) >> (18 + qp/6)), with
/// HEVC's forward scales f and round = ⌊0.4·2^(18 + qp/6)⌋. Returns the
/// number of nonzero levels.
int Quantize(const CoeffBlock& coeffs, int qp, LevelBlock* levels);

/// Largest |c| that Quantize at `qp` maps to level 0.
int ZeroLevelLimit(int qp);

/// Reconstructs coefficients from levels: c = sat16((l·(g[qp%6] << qp/6) +
/// 2) >> 2) with HEVC's inverse scales g and l saturated to int16 first, so
/// arbitrary (corrupt) levels cannot overflow. Bit-exact mirror of the
/// decoder.
void Dequantize(const LevelBlock& levels, int qp, CoeffBlock* coeffs);

/// Zigzag scan order for an 8×8 block (index i gives the raster position of
/// the i-th scanned coefficient).
const std::array<int, kBlockPixels>& ZigzagOrder();

}  // namespace vc

#endif  // VC_CODEC_TRANSFORM_H_
