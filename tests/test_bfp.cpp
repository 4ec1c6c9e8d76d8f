// Tests for the block-floating-point format and reference arithmetic
// (Eqns 1-3), including property sweeps over block geometries.
#include "numerics/bfp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "numerics/format/format_spec.hpp"
#include "numerics/quantizer.hpp"

namespace bfpsim {
namespace {

std::vector<float> random_tile(Rng& rng, const BfpFormat& fmt, float scale) {
  return rng.normal_vec(static_cast<std::size_t>(fmt.elements()), 0.0F,
                        scale);
}

TEST(BfpFormat, Bfp8Defaults) {
  const BfpFormat f = bfp8_format();
  EXPECT_EQ(f.mant_bits, 8);
  EXPECT_EQ(f.exp_bits, 8);
  EXPECT_EQ(f.rows, 8);
  EXPECT_EQ(f.cols, 8);
  EXPECT_EQ(f.mant_max(), 127);
  EXPECT_EQ(f.mant_min(), -127);  // symmetric: -128 excluded
  EXPECT_EQ(f.exp_max(), 127);
  EXPECT_EQ(f.exp_min(), -128);
}

TEST(BfpFormat, AsymmetricRange) {
  BfpFormat f = bfp8_format();
  f.symmetric = false;
  EXPECT_EQ(f.mant_min(), -128);
}

TEST(BfpQuantize, ZeroTile) {
  const BfpFormat f = bfp8_format();
  std::vector<float> tile(64, 0.0F);
  const BfpBlock b = quantize_block(tile, f);
  EXPECT_TRUE(b.well_formed());
  for (float v : b.dequantize()) EXPECT_EQ(v, 0.0F);
}

TEST(BfpQuantize, ExactPowersOfTwo) {
  const BfpFormat f = bfp8_format();
  std::vector<float> tile(64, 0.0F);
  tile[0] = 31.0F;
  tile[1] = -16.0F;
  tile[2] = 0.25F;
  const BfpBlock b = quantize_block(tile, f);
  EXPECT_TRUE(b.well_formed());
  // max_abs = 31 -> expb = -2 (31 * 4 = 124 <= 127): all values exact.
  EXPECT_EQ(b.expb, -2);
  EXPECT_EQ(b.value(0, 0), 31.0F);
  EXPECT_EQ(b.value(0, 1), -16.0F);
  EXPECT_EQ(b.value(0, 2), 0.25F);
}

TEST(BfpQuantize, MantissasStayInSymmetricRange) {
  Rng rng(11);
  const BfpFormat f = bfp8_format();
  for (int trial = 0; trial < 200; ++trial) {
    const float scale = std::exp(rng.uniform(-10.0F, 10.0F));
    const BfpBlock b = quantize_block(random_tile(rng, f, scale), f);
    EXPECT_TRUE(b.well_formed());
  }
}

TEST(BfpQuantize, RejectsNonFinite) {
  const BfpFormat f = bfp8_format();
  std::vector<float> tile(64, 0.0F);
  tile[7] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(quantize_block(tile, f), Error);
}

TEST(BfpQuantize, QuantizationErrorBounded) {
  // Relative error of the largest element is at most ~1/254 (7-bit+sign
  // symmetric mantissa), and every element's absolute error is at most
  // half an ulp of the shared scale.
  Rng rng(12);
  const BfpFormat f = bfp8_format();
  for (int trial = 0; trial < 100; ++trial) {
    const auto tile = random_tile(rng, f, 3.0F);
    const BfpBlock b = quantize_block(tile, f);
    const auto back = b.dequantize();
    const float ulp = std::ldexp(1.0F, b.expb);
    for (std::size_t i = 0; i < tile.size(); ++i) {
      EXPECT_LE(std::fabs(back[i] - tile[i]), 0.5F * ulp + 1e-12F);
    }
  }
}

TEST(BfpMatmulBlock, MatchesFloatReference) {
  Rng rng(13);
  const BfpFormat f = bfp8_format();
  for (int trial = 0; trial < 50; ++trial) {
    const BfpBlock x = quantize_block(random_tile(rng, f, 1.0F), f);
    const BfpBlock y = quantize_block(random_tile(rng, f, 1.0F), f);
    const WideBlock z = bfp_matmul_block(x, y);
    EXPECT_EQ(z.expb, x.expb + y.expb);
    // The wide product must equal the exact product of the dequantized
    // blocks (no information is lost before normalization).
    const auto xv = x.dequantize();
    const auto yv = y.dequantize();
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        double acc = 0.0;
        for (int kk = 0; kk < 8; ++kk) {
          acc += static_cast<double>(xv[static_cast<std::size_t>(i * 8 + kk)]) *
                 yv[static_cast<std::size_t>(kk * 8 + j)];
        }
        const double got = std::ldexp(static_cast<double>(z.at(i, j)), z.expb);
        EXPECT_NEAR(got, acc, 1e-6 * std::max(1.0, std::fabs(acc)));
      }
    }
  }
}

TEST(PsuAccumulate, AlignsExponents) {
  WideBlock a(2, 2);
  a.expb = 0;
  a.at(0, 0) = 100;
  WideBlock b(2, 2);
  b.expb = 2;  // each unit worth 4x
  b.at(0, 0) = 25;
  psu_accumulate(a, b, 32);
  // Result exponent is max(0,2)=2; a's 100 shifts right by 2 -> 25; 25+25.
  EXPECT_EQ(a.expb, 2);
  EXPECT_EQ(a.at(0, 0), 50);
}

TEST(PsuAccumulate, OverflowThrows) {
  WideBlock a(1, 1);
  a.expb = 0;
  a.at(0, 0) = (std::int64_t{1} << 30);
  WideBlock b(1, 1);
  b.expb = 0;
  b.at(0, 0) = (std::int64_t{1} << 30);
  EXPECT_THROW(psu_accumulate(a, b, 32), HardwareContractError);
}

TEST(NormalizeBlock, FitsFormatAndPreservesScale) {
  Rng rng(14);
  const BfpFormat f = bfp8_format();
  const BfpBlock x = quantize_block(random_tile(rng, f, 1.0F), f);
  const BfpBlock y = quantize_block(random_tile(rng, f, 1.0F), f);
  const WideBlock z = bfp_matmul_block(x, y);
  const BfpBlock nz = normalize_block(z, f);
  EXPECT_TRUE(nz.well_formed());
  // Normalized values approximate the wide values to within the new ulp.
  const float ulp = std::ldexp(1.0F, nz.expb);
  const auto wide = z.dequantize();
  const auto narrow = nz.dequantize();
  for (std::size_t i = 0; i < wide.size(); ++i) {
    EXPECT_LE(std::fabs(narrow[i] - wide[i]), 0.5F * ulp + 1e-12F);
  }
}

TEST(BfpAddBlock, MatchesFloatAddition) {
  Rng rng(15);
  const BfpFormat f = bfp8_format();
  for (int trial = 0; trial < 50; ++trial) {
    const BfpBlock x = quantize_block(random_tile(rng, f, 1.0F), f);
    const BfpBlock y =
        quantize_block(random_tile(rng, f, 4.0F), f);  // different exponent
    const BfpBlock z = bfp_add_block(x, y);
    EXPECT_TRUE(z.well_formed());
    const auto xs = x.dequantize();
    const auto ys = y.dequantize();
    const auto zs = z.dequantize();
    const float ulp = std::ldexp(1.0F, z.expb);
    for (std::size_t i = 0; i < zs.size(); ++i) {
      // Alignment truncation plus normalization rounding: within ~1.5 ulp.
      EXPECT_LE(std::fabs(zs[i] - (xs[i] + ys[i])), 1.5F * ulp);
    }
  }
}

TEST(QuantizeMatrix, PadsToBlockMultiples) {
  Rng rng(16);
  const BfpFormat f = bfp8_format();
  const int rows = 13;
  const int cols = 19;
  const auto data =
      rng.normal_vec(static_cast<std::size_t>(rows) * cols, 0.0F, 1.0F);
  const BfpMatrix m = quantize_matrix(data, rows, cols, f);
  EXPECT_EQ(m.rows, 16);
  EXPECT_EQ(m.cols, 24);
  EXPECT_EQ(m.blocks.size(), 6u);
  const auto back = dequantize_matrix(m, rows, cols);
  const ErrorStats s = compute_error_stats(back, data);
  EXPECT_LT(s.rel_rmse, 0.01);
}

TEST(BfpGemmReference, MatchesDoubleGemmClosely) {
  Rng rng(17);
  const BfpFormat f = bfp8_format();
  const int m = 24;
  const int k = 40;
  const int n = 16;
  const auto a = rng.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
  const auto b = rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 1.0F);
  const BfpMatrix am = quantize_matrix(a, m, k, f);
  const BfpMatrix bm = quantize_matrix(b, k, n, f);
  const auto c = bfp_gemm_reference(am, bm, m, n);

  // Double-precision GEMM of the *quantized* inputs: the bfp pipeline loses
  // only alignment-truncation bits relative to this.
  const auto aq = dequantize_matrix(am, m, k);
  const auto bq = dequantize_matrix(bm, k, n);
  std::vector<float> ref(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int x = 0; x < k; ++x) {
        acc += static_cast<double>(aq[static_cast<std::size_t>(i) * k + x]) *
               bq[static_cast<std::size_t>(x) * n + j];
      }
      ref[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
  // Bound depends on the seeded data (cancellation in a few outputs
  // amplifies truncation loss); 5e-4 still means only low-order bits moved.
  const ErrorStats s = compute_error_stats(c, ref);
  EXPECT_LT(s.rel_rmse, 5e-4);
}

/// ------- parent-pinned quantizer digests (captured once, never
/// regenerated: a quantizer rewrite must reproduce these bits exactly) -----

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a_byte(std::uint8_t x, std::uint64_t h) {
  return (h ^ x) * 0x100000001b3ULL;
}

/// FNV-1a over a 32-bit word, little-endian.
std::uint64_t fnv1a_u32(std::uint32_t v, std::uint64_t h) {
  for (int i = 0; i < 4; ++i) {
    h = fnv1a_byte(static_cast<std::uint8_t>(v >> (8 * i)), h);
  }
  return h;
}

/// FNV-1a over a block: shared exponent then every mantissa, little-endian.
std::uint64_t fnv1a_block(const BfpBlock& b, std::uint64_t h) {
  h = fnv1a_u32(static_cast<std::uint32_t>(b.expb), h);
  for (const std::int16_t m : b.man) {
    const auto u = static_cast<std::uint16_t>(m);
    h = fnv1a_byte(static_cast<std::uint8_t>(u), h);
    h = fnv1a_byte(static_cast<std::uint8_t>(u >> 8), h);
  }
  return h;
}

/// A zero word, the padded dims as rows * 2^16 + cols, then every block in
/// grid order.
std::uint64_t fnv1a_matrix(const BfpMatrix& m) {
  std::uint64_t h = fnv1a_u32(0, kFnvOffset);
  h = fnv1a_u32(static_cast<std::uint32_t>(m.rows * 65536 + m.cols), h);
  for (const BfpBlock& b : m.blocks) h = fnv1a_block(b, h);
  return h;
}

struct CorpusDigest {
  int rows;
  int cols;
  bool weight;  ///< weight-like N(0, 0.02) vs activation-like with outliers
  std::uint64_t digest;
};

/// Seeded operand corpus of one GEMM operand shape.
std::vector<float> corpus(const CorpusDigest& c) {
  Rng rng(static_cast<std::uint64_t>(c.rows) * 7919 + c.cols);
  const auto n = static_cast<std::size_t>(c.rows) * c.cols;
  return c.weight ? rng.normal_vec(n, 0.0F, 0.02F)
                  : rng.transformer_like_vec(n, 1.0F, 0.01, 40.0F);
}

TEST(QuantizerDigest, DeitSmallGemmOperands) {
  // RNE symmetric bfp8 (the production path) on every operand shape of a
  // DeiT-Small forward: patch embed, qkv, proj, fc1, fc2, q.k^T, attn.v.
  const std::vector<CorpusDigest> cases{
      {196, 768, false, 0xd9b3baaf6dcfe44bULL},
      {768, 384, true, 0x2685f8f9d0a5c1e5ULL},
      {197, 384, false, 0x892495001b650c13ULL},
      {384, 1152, true, 0x1d28f79cbdc14809ULL},
      {384, 384, true, 0x6346a1112c9c8ceaULL},
      {384, 1536, true, 0x23aa82574a3b9088ULL},
      {197, 1536, false, 0x7e669fae74d9d0fcULL},
      {1536, 384, true, 0x6a1d0ab42b5aa72bULL},
      {197, 64, false, 0x3809c63e12b88faaULL},
      {64, 197, false, 0xcfc52f16963534aeULL},
      {197, 197, false, 0x89361f08da4fdf7fULL},
  };
  for (const CorpusDigest& c : cases) {
    const BfpMatrix m = quantize_matrix(corpus(c), c.rows, c.cols,
                                        bfp8_format(),
                                        RoundMode::kNearestEven);
    EXPECT_EQ(fnv1a_matrix(m), c.digest)
        << c.rows << "x" << c.cols << " got 0x" << std::hex
        << fnv1a_matrix(m);
  }
}

TEST(QuantizerDigest, VitTestTinyGemmOperands) {
  const std::vector<CorpusDigest> cases{
      {16, 192, false, 0x10d5ac688b013e6fULL},
      {192, 64, true, 0x301dbd0a4dcb1c2bULL},
      {17, 64, false, 0x3ed7e61a0ab8b9dcULL},
      {64, 192, true, 0x3db0679a1c1af416ULL},
      {64, 64, true, 0x0fd277e94cc504bbULL},
      {64, 256, true, 0x85e6215d91787b63ULL},
      {17, 256, false, 0xc0dd3828014c21faULL},
      {256, 64, true, 0x6954f4e7923363d8ULL},
      {17, 32, false, 0x10786145f722e882ULL},
      {32, 17, false, 0x3bed04cba0417ecbULL},
      {17, 17, false, 0x60f37c10f8d6ef1dULL},
  };
  for (const CorpusDigest& c : cases) {
    const BfpMatrix m = quantize_matrix(corpus(c), c.rows, c.cols,
                                        bfp8_format(),
                                        RoundMode::kNearestEven);
    EXPECT_EQ(fnv1a_matrix(m), c.digest)
        << c.rows << "x" << c.cols << " got 0x" << std::hex
        << fnv1a_matrix(m);
  }
}

TEST(QuantizerDigest, FormatSpecBlockEncode) {
  // encode_block, the block ENCODE behind the registry's shared-exponent
  // modes, at the spec's default RNE rounding over several geometries.
  struct Case {
    FormatSpec spec;
    int rows;
    int cols;
    std::uint64_t digest;
  };
  const std::vector<Case> cases{
      {FormatSpec::bfp8(), 8, 8, 0x7fc95070e53a954fULL},
      {FormatSpec::bfp_block(8, 4, 16), 4, 4, 0x8e24e077fed22847ULL},
      {FormatSpec::bfp_block(6, 6, 64), 4, 16, 0x2787b8a72feba85bULL},
      {FormatSpec::bfp_block(5, 12, 16), 2, 8, 0xc5622cba0aeb2fb7ULL},
  };
  for (const Case& c : cases) {
    Rng rng(static_cast<std::uint64_t>(c.spec.we * 100 + c.spec.wm * 10 +
                                       c.rows));
    std::uint64_t h = kFnvOffset;
    for (int t = 0; t < 256; ++t) {
      const auto tile = rng.transformer_like_vec(
          static_cast<std::size_t>(c.rows * c.cols),
          std::ldexp(1.0F, static_cast<int>(rng.uniform_int(-6, 6))), 0.05,
          16.0F);
      h = fnv1a_block(encode_block(tile, c.spec, c.rows, c.cols), h);
    }
    EXPECT_EQ(h, c.digest) << to_string(c.spec) << " " << c.rows << "x"
                           << c.cols << " got 0x" << std::hex << h;
  }
}

/// Property sweep: quantize/dequantize round trip stays bounded for many
/// block geometries and mantissa widths.
class BfpFormatSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BfpFormatSweep, RoundTripBounded) {
  const auto [mant_bits, rows, cols] = GetParam();
  BfpFormat f;
  f.mant_bits = mant_bits;
  f.rows = rows;
  f.cols = cols;
  Rng rng(static_cast<std::uint64_t>(mant_bits * 1000 + rows * 10 + cols));
  const auto tile = rng.normal_vec(
      static_cast<std::size_t>(f.elements()), 0.0F, 2.0F);
  const BfpBlock b = quantize_block(tile, f);
  EXPECT_TRUE(b.well_formed());
  const auto back = b.dequantize();
  const float ulp = std::ldexp(1.0F, b.expb);
  for (std::size_t i = 0; i < tile.size(); ++i) {
    EXPECT_LE(std::fabs(back[i] - tile[i]), 0.5F * ulp + 1e-12F)
        << "mant_bits=" << mant_bits << " rows=" << rows << " cols=" << cols;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BfpFormatSweep,
    ::testing::Combine(::testing::Values(4, 6, 8, 10, 12),
                       ::testing::Values(2, 4, 8, 16),
                       ::testing::Values(2, 4, 8, 16)));

}  // namespace
}  // namespace bfpsim
