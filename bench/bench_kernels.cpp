// M1k — codec kernel microbenchmark: scalar vs SIMD throughput for each hot
// kernel (SAD, the integer forward/inverse transform, quantization, and the
// four chained as the encoder runs them), plus entropy-coder
// throughput and density (Exp-Golomb vs canonical Huffman).
//
// Expected shape: the SIMD columns are several-fold faster than scalar for
// every vectorized kernel (the issue targets >=3x aggregate); Huffman emits
// fewer bits per block than Exp-Golomb at identical reconstruction, at a
// comparable encode rate and a faster table-driven decode than bit-serial
// Exp-Golomb on dense blocks.
//
// Every lap re-verifies that the SIMD and scalar kernels produce identical
// outputs (and that both entropy coders round-trip) before timing — a
// throughput number for a wrong kernel is worse than none. `--smoke` runs
// the verification on shrunk workloads and skips the JSON snapshot; CI
// registers it so the agreement checks run on every build.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codec/entropy.h"
#include "codec/motion.h"
#include "codec/simd.h"
#include "codec/transform.h"
#include "common/bitio.h"
#include "common/random.h"
#include "common/stopwatch.h"

using namespace vc;
using namespace vc::bench;

namespace {

bool g_smoke = false;

/// Fastest of `reps` laps of `fn` (deterministic kernels; the minimum is the
/// least noisy estimator of the true cost).
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    fn();
    double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_kernels: %s MISMATCH\n", what);
    std::exit(1);
  }
}

/// One kernel's per-tier result, in MB/s of 8-bit pixels processed (64 bytes
/// per 8x8 block, 256 per 16x16 SAD) so rates are comparable across kernels.
/// `sse2_mbs` is only populated on hosts whose best tier is above the x86
/// baseline (i.e. when AVX2 dispatch kicks in), so the table shows what each
/// tier buys.
struct KernelRow {
  std::string name;
  double scalar_mbs = 0.0;
  double sse2_mbs = 0.0;
  double simd_mbs = 0.0;  // strongest dispatchable tier
  double speedup() const { return simd_mbs / scalar_mbs; }
};

/// Times `fn` at every dispatchable tier. `bytes` is the pixel volume one
/// call of `fn` processes.
template <typename Fn>
KernelRow TimeKernel(const std::string& name, double bytes, int reps,
                     Fn&& fn) {
  KernelRow row;
  row.name = name;
  simd::SetEnabled(false);
  row.scalar_mbs = bytes / BestSeconds(reps, fn) / 1e6;
  simd::SetEnabled(true);
  if (simd::ActiveLevel() == simd::Level::kAvx2) {
    const simd::Level cap = simd::LevelCap();
    simd::SetLevelCap(simd::Level::kSse2);
    row.sse2_mbs = bytes / BestSeconds(reps, fn) / 1e6;
    simd::SetLevelCap(cap);
  }
  row.simd_mbs = bytes / BestSeconds(reps, fn) / 1e6;
  return row;
}

// ------------------------------------------------------------ SAD kernels

KernelRow BenchSad(int size, bool bounded, int blocks, int reps) {
  constexpr int kDim = 512;
  Random rng(7001);
  std::vector<uint8_t> a(kDim * kDim), b(kDim * kDim);
  for (auto& v : a) v = static_cast<uint8_t>(rng.Uniform(256));
  for (auto& v : b) v = static_cast<uint8_t>(rng.Uniform(256));
  PlaneView pa{a.data(), kDim}, pb{b.data(), kDim};
  std::vector<int> xs(blocks), ys(blocks);
  std::vector<uint32_t> limits(blocks);
  for (int i = 0; i < blocks; ++i) {
    xs[i] = static_cast<int>(rng.Uniform(kDim - size));
    ys[i] = static_cast<int>(rng.Uniform(kDim - size));
    // Realistic bounded-SAD limits: most candidates lose mid-block.
    limits[i] = 1 + static_cast<uint32_t>(
                        rng.Uniform(size * size * 30u));
  }

  // Agreement check (both paths, all probes).
  std::vector<uint32_t> expect(blocks);
  simd::SetEnabled(false);
  for (int i = 0; i < blocks; ++i) {
    expect[i] = bounded ? BlockSadBounded(pa, xs[i], ys[i], pb, ys[i], xs[i],
                                          size, limits[i])
                        : BlockSad(pa, xs[i], ys[i], pb, ys[i], xs[i], size);
  }
  simd::SetEnabled(true);
  for (int i = 0; i < blocks; ++i) {
    uint32_t got = bounded ? BlockSadBounded(pa, xs[i], ys[i], pb, ys[i],
                                             xs[i], size, limits[i])
                           : BlockSad(pa, xs[i], ys[i], pb, ys[i], xs[i],
                                      size);
    Check(got == expect[i], "SAD scalar/SIMD");
  }

  uint64_t sink = 0;
  auto run = [&] {
    uint64_t acc = 0;
    for (int i = 0; i < blocks; ++i) {
      acc += bounded ? BlockSadBounded(pa, xs[i], ys[i], pb, ys[i], xs[i],
                                       size, limits[i])
                     : BlockSad(pa, xs[i], ys[i], pb, ys[i], xs[i], size);
    }
    sink += acc;
  };
  std::string name = "sad" + std::to_string(size) +
                     (bounded ? "_bounded" : "");
  KernelRow row = TimeKernel(
      name, static_cast<double>(blocks) * size * size, reps, run);
  if (sink == 0) std::printf("(impossible)\n");
  return row;
}

// ------------------------------------------------- transform/quant kernels

struct TransformData {
  std::vector<ResidualBlock> residuals;
  std::vector<CoeffBlock> coeffs;        // ForwardDct output
  std::vector<LevelBlock> levels;        // Quantize output
  std::vector<CoeffBlock> dequantized;   // Dequantize output
  std::vector<int> nonzero;
  int qp = 28;
};

TransformData MakeTransformData(int blocks) {
  TransformData data;
  Random rng(7002);
  data.residuals.resize(blocks);
  data.coeffs.resize(blocks);
  data.levels.resize(blocks);
  data.dequantized.resize(blocks);
  data.nonzero.resize(blocks);
  for (int i = 0; i < blocks; ++i) {
    // Smooth-ish residuals so quantized blocks have codec-like sparsity.
    int16_t base = static_cast<int16_t>(rng.Uniform(61)) - 30;
    for (int p = 0; p < kBlockPixels; ++p) {
      data.residuals[i][p] =
          static_cast<int16_t>(base + static_cast<int>(rng.Uniform(25)) - 12);
    }
    ForwardDct(data.residuals[i], &data.coeffs[i]);
    data.nonzero[i] = Quantize(data.coeffs[i], data.qp, &data.levels[i]);
    Dequantize(data.levels[i], data.qp, &data.dequantized[i]);
  }
  return data;
}

template <typename Block, typename Fn>
void CheckBlockwiseAgreement(int blocks, std::vector<Block>* out, Fn&& fn,
                             const char* what) {
  std::vector<Block> expect(blocks);
  simd::SetEnabled(false);
  for (int i = 0; i < blocks; ++i) fn(i, &expect[i]);
  simd::SetEnabled(true);
  for (int i = 0; i < blocks; ++i) {
    fn(i, &(*out)[i]);
    Check((*out)[i] == expect[i], what);
  }
}

std::vector<KernelRow> BenchTransforms(const TransformData& data, int reps) {
  const int blocks = static_cast<int>(data.residuals.size());
  const double bytes = static_cast<double>(blocks) * kBlockPixels;
  std::vector<KernelRow> rows;

  std::vector<CoeffBlock> coeff_out(blocks);
  CheckBlockwiseAgreement(
      blocks, &coeff_out,
      [&](int i, CoeffBlock* out) { ForwardDct(data.residuals[i], out); },
      "ForwardDct scalar/SIMD");
  rows.push_back(TimeKernel("fdct_int", bytes, reps, [&] {
    for (int i = 0; i < blocks; ++i) {
      ForwardDct(data.residuals[i], &coeff_out[i]);
    }
  }));

  std::vector<ResidualBlock> res_out(blocks);
  CheckBlockwiseAgreement(
      blocks, &res_out,
      [&](int i, ResidualBlock* out) { InverseDct(data.dequantized[i], out); },
      "InverseDct scalar/SIMD");
  rows.push_back(TimeKernel("idct_int", bytes, reps, [&] {
    for (int i = 0; i < blocks; ++i) {
      InverseDct(data.dequantized[i], &res_out[i]);
    }
  }));

  std::vector<LevelBlock> level_out(blocks);
  CheckBlockwiseAgreement(
      blocks, &level_out,
      [&](int i, LevelBlock* out) {
        Check(Quantize(data.coeffs[i], data.qp, out) == data.nonzero[i],
              "Quantize nonzero count");
      },
      "Quantize scalar/SIMD");
  rows.push_back(TimeKernel("quant", bytes, reps, [&] {
    for (int i = 0; i < blocks; ++i) {
      Quantize(data.coeffs[i], data.qp, &level_out[i]);
    }
  }));

  std::vector<CoeffBlock> deq_out(blocks);
  CheckBlockwiseAgreement(
      blocks, &deq_out,
      [&](int i, CoeffBlock* out) { Dequantize(data.levels[i], data.qp, out); },
      "Dequantize scalar/SIMD");
  rows.push_back(TimeKernel("dequant", bytes, reps, [&] {
    for (int i = 0; i < blocks; ++i) {
      Dequantize(data.levels[i], data.qp, &deq_out[i]);
    }
  }));

  // The whole per-block codec path as the encoder runs it on a coded block.
  std::vector<ResidualBlock> recon_out(blocks);
  auto block_path = [&](int i, ResidualBlock* out) {
    CoeffBlock coeffs;
    LevelBlock levels;
    ForwardDct(data.residuals[i], &coeffs);
    Quantize(coeffs, data.qp, &levels);
    Dequantize(levels, data.qp, &coeffs);
    InverseDct(coeffs, out);
  };
  CheckBlockwiseAgreement(blocks, &recon_out, block_path,
                          "transform+quant path scalar/SIMD");
  rows.push_back(TimeKernel("fq_dq_idct", bytes, reps, [&] {
    for (int i = 0; i < blocks; ++i) block_path(i, &recon_out[i]);
  }));

  return rows;
}

// --------------------------------------------------------- entropy coders

struct EntropyRow {
  std::string name;
  double encode_mbs = 0.0;
  double decode_mbs = 0.0;
  double bits_per_block = 0.0;
};

std::vector<EntropyRow> BenchEntropy(const TransformData& data, int reps) {
  const int blocks = static_cast<int>(data.levels.size());
  const double bytes = static_cast<double>(blocks) * kBlockPixels;
  std::vector<CodedBlock> coded(blocks);
  for (int i = 0; i < blocks; ++i) {
    coded[i].nonzero = data.nonzero[i];
    if (data.nonzero[i] > 0) coded[i].levels = data.levels[i];
  }

  std::vector<EntropyRow> rows;

  // Exp-Golomb.
  EntropyRow eg;
  eg.name = "expgolomb";
  std::vector<uint8_t> eg_bytes;
  eg.encode_mbs = bytes / BestSeconds(reps, [&] {
    BitWriter writer;
    for (int i = 0; i < blocks; ++i) {
      if (coded[i].nonzero == 0) {
        writer.WriteUE(0);
      } else {
        EncodeLevelBlock(coded[i].levels, &writer);
      }
    }
    eg_bytes = writer.Finish();
  }) / 1e6;
  eg.bits_per_block = static_cast<double>(eg_bytes.size()) * 8 / blocks;
  LevelBlock scratch;
  eg.decode_mbs = bytes / BestSeconds(reps, [&] {
    BitReader reader{Slice(eg_bytes)};
    for (int i = 0; i < blocks; ++i) {
      CheckOk(DecodeLevelBlock(&reader, &scratch), "eg decode");
    }
  }) / 1e6;
  // Round-trip check on the last lap's state.
  {
    BitReader reader{Slice(eg_bytes)};
    for (int i = 0; i < blocks; ++i) {
      CheckOk(DecodeLevelBlock(&reader, &scratch), "eg decode");
      Check(coded[i].nonzero == 0 || scratch == coded[i].levels,
            "Exp-Golomb round-trip");
    }
  }
  rows.push_back(eg);

  // Canonical Huffman (per-payload table, as the tile encoder uses it).
  EntropyRow hf;
  hf.name = "huffman";
  HuffmanBlockEncoder encoder;
  for (const CodedBlock& block : coded) encoder.CountBlock(block);
  encoder.Finalize();
  std::vector<uint8_t> hf_bytes;
  hf.encode_mbs = bytes / BestSeconds(reps, [&] {
    BitWriter writer;
    encoder.WriteTable(&writer);
    for (const CodedBlock& block : coded) encoder.WriteBlock(block, &writer);
    hf_bytes = writer.Finish();
  }) / 1e6;
  hf.bits_per_block = static_cast<double>(hf_bytes.size()) * 8 / blocks;
  HuffmanBlockDecoder decoder;
  hf.decode_mbs = bytes / BestSeconds(reps, [&] {
    BitReader reader{Slice(hf_bytes)};
    CheckOk(decoder.Init(&reader), "huffman table");
    for (int i = 0; i < blocks; ++i) {
      CheckOk(decoder.DecodeBlock(&reader, &scratch), "huffman decode");
    }
  }) / 1e6;
  {
    BitReader reader{Slice(hf_bytes)};
    CheckOk(decoder.Init(&reader), "huffman table");
    for (int i = 0; i < blocks; ++i) {
      CheckOk(decoder.DecodeBlock(&reader, &scratch), "huffman decode");
      Check(coded[i].nonzero == 0 || scratch == coded[i].levels,
            "Huffman round-trip");
      Check(coded[i].nonzero != 0 ||
                std::all_of(scratch.begin(), scratch.end(),
                            [](int32_t v) { return v == 0; }),
            "Huffman zero block");
    }
  }
  rows.push_back(hf);
  return rows;
}

std::string Escape(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", v);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  }
  const int blocks = g_smoke ? 512 : 16384;
  const int sad_blocks = g_smoke ? 512 : 32768;
  const int reps = g_smoke ? 2 : 7;

  Banner("M1k: codec kernel throughput (scalar vs SIMD) and entropy coders",
         "expect: multi-x SIMD speedups at bit-identical outputs; Huffman "
         "denser than Exp-Golomb");
  std::printf("compiled SIMD level: %s, active: %s\n",
              simd::LevelName(simd::CompiledLevel()),
              simd::LevelName(simd::ActiveLevel()));

  const bool simd_was_enabled = simd::Enabled();
  std::vector<KernelRow> rows;
  rows.push_back(BenchSad(16, false, sad_blocks, reps));
  rows.push_back(BenchSad(16, true, sad_blocks, reps));
  rows.push_back(BenchSad(8, false, sad_blocks, reps));
  TransformData data = MakeTransformData(blocks);
  for (KernelRow& row : BenchTransforms(data, reps)) {
    rows.push_back(std::move(row));
  }

  bool has_mid_tier = false;
  for (const KernelRow& row : rows) has_mid_tier |= row.sse2_mbs > 0;
  double geomean = 1.0;
  if (has_mid_tier) {
    std::printf("\n%-13s %13s %13s %13s %9s\n", "kernel", "scalar MB/s",
                "sse2 MB/s", "best MB/s", "speedup");
    for (const KernelRow& row : rows) {
      std::printf("%-13s %13.1f %13.1f %13.1f %8.2fx\n", row.name.c_str(),
                  row.scalar_mbs, row.sse2_mbs, row.simd_mbs, row.speedup());
      geomean *= row.speedup();
    }
    geomean = std::pow(geomean, 1.0 / static_cast<double>(rows.size()));
    std::printf("%-13s %51.2fx (geomean)\n", "", geomean);
  } else {
    std::printf("\n%-13s %13s %13s %9s\n", "kernel", "scalar MB/s",
                "SIMD MB/s", "speedup");
    for (const KernelRow& row : rows) {
      std::printf("%-13s %13.1f %13.1f %8.2fx\n", row.name.c_str(),
                  row.scalar_mbs, row.simd_mbs, row.speedup());
      geomean *= row.speedup();
    }
    geomean = std::pow(geomean, 1.0 / static_cast<double>(rows.size()));
    std::printf("%-13s %37.2fx (geomean)\n", "", geomean);
  }

  simd::SetEnabled(true);
  std::vector<EntropyRow> entropy = BenchEntropy(data, reps);
  std::printf("\n%-13s %13s %13s %11s\n", "entropy", "enc MB/s", "dec MB/s",
              "bits/block");
  for (const EntropyRow& row : entropy) {
    std::printf("%-13s %13.1f %13.1f %11.1f\n", row.name.c_str(),
                row.encode_mbs, row.decode_mbs, row.bits_per_block);
  }
  std::printf("Huffman density vs Exp-Golomb: %.1f%% of the bits\n\n",
              100.0 * entropy[1].bits_per_block / entropy[0].bits_per_block);

  simd::SetEnabled(simd_was_enabled);
  if (g_smoke) {
    std::printf("smoke: all scalar/SIMD agreement and round-trip checks "
                "passed\n");
    return 0;
  }

  std::string kernels_json = std::string("{\n  \"env\": ")
                                 .append(EnvStampJson())
                                 .append(",\n  \"best_tier\": \"");
  kernels_json += simd::LevelName(simd::ActiveLevel());
  kernels_json += "\",\n  \"pixel_mb_per_s\": {";
  for (size_t i = 0; i < rows.size(); ++i) {
    char buffer[320];
    if (rows[i].sse2_mbs > 0) {
      std::snprintf(buffer, sizeof(buffer),
                    "%s\n   \"%s\": {\"scalar\": %s, \"sse2\": %s, "
                    "\"best\": %s, \"speedup\": %.2f}",
                    i == 0 ? "" : ",", rows[i].name.c_str(),
                    Escape(rows[i].scalar_mbs).c_str(),
                    Escape(rows[i].sse2_mbs).c_str(),
                    Escape(rows[i].simd_mbs).c_str(), rows[i].speedup());
    } else {
      std::snprintf(buffer, sizeof(buffer),
                    "%s\n   \"%s\": {\"scalar\": %s, \"best\": %s, "
                    "\"speedup\": %.2f}",
                    i == 0 ? "" : ",", rows[i].name.c_str(),
                    Escape(rows[i].scalar_mbs).c_str(),
                    Escape(rows[i].simd_mbs).c_str(), rows[i].speedup());
    }
    kernels_json += buffer;
  }
  char tail[512];
  std::snprintf(
      tail, sizeof(tail),
      "},\n  \"speedup_geomean\": %.2f,\n  \"entropy\": {\n"
      "   \"expgolomb\": {\"encode_mb_per_s\": %s, \"decode_mb_per_s\": %s, "
      "\"bits_per_block\": %.1f},\n"
      "   \"huffman\": {\"encode_mb_per_s\": %s, \"decode_mb_per_s\": %s, "
      "\"bits_per_block\": %.1f}}\n }",
      geomean, Escape(entropy[0].encode_mbs).c_str(),
      Escape(entropy[0].decode_mbs).c_str(), entropy[0].bits_per_block,
      Escape(entropy[1].encode_mbs).c_str(),
      Escape(entropy[1].decode_mbs).c_str(), entropy[1].bits_per_block);
  kernels_json += tail;
  WriteBenchJsonKey("BENCH_codec.json", "kernels", kernels_json);
  return 0;
}
