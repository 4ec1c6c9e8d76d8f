// Cross-cutting property and failure-injection tests:
//  * randomized shape sweep pinning the cycle-accurate GEMM to the golden
//    fast path (TEST_P),
//  * rounding-mode properties of the quantizer,
//  * hardware-contract violations surfacing as exceptions, not silent
//    corruption,
//  * randomized executor programs vs direct evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/dsp48e2.hpp"
#include "isa/executor.hpp"
#include "numerics/quantizer.hpp"
#include "pu/processing_unit.hpp"

namespace bfpsim {
namespace {

/// -------- GEMM shape sweep: cycle path == golden path --------

class GemmShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeSweep, CyclePathMatchesGoldenPath) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  ProcessingUnit pu;
  const auto a = rng.normal_vec(
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k), 0.0F, 1.0F);
  const auto b = rng.normal_vec(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n), 0.0F, 1.0F);
  const GemmRun cyc = pu.gemm_bfp8(a, m, k, b, n);
  const GemmRun fast = pu.gemm_bfp8_fast(a, m, k, b, n);
  ASSERT_EQ(cyc.c.size(), fast.c.size());
  for (std::size_t i = 0; i < cyc.c.size(); ++i) {
    ASSERT_EQ(cyc.c[i], fast.c[i]) << m << "x" << k << "x" << n << " @" << i;
  }
  EXPECT_EQ(cyc.compute_cycles, fast.compute_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(8, 8, 8),
                      std::make_tuple(8, 8, 16), std::make_tuple(16, 8, 8),
                      std::make_tuple(3, 5, 7), std::make_tuple(9, 17, 33),
                      std::make_tuple(25, 24, 23),
                      std::make_tuple(40, 8, 40),
                      std::make_tuple(7, 64, 9)));

/// -------- quantizer rounding-mode properties --------

class RoundModeSweep : public ::testing::TestWithParam<RoundMode> {};

TEST_P(RoundModeSweep, QuantizeNeverOverflowsAndBoundsError) {
  const RoundMode mode = GetParam();
  Rng rng(static_cast<std::uint64_t>(mode) + 77);
  const BfpFormat fmt = bfp8_format();
  for (int trial = 0; trial < 100; ++trial) {
    const float scale = std::exp(rng.uniform(-8.0F, 8.0F));
    const auto tile = rng.normal_vec(64, 0.0F, scale);
    const BfpBlock b = quantize_block(tile, fmt, mode);
    ASSERT_TRUE(b.well_formed());
    const auto back = b.dequantize();
    const float ulp = std::ldexp(1.0F, b.expb);
    for (std::size_t i = 0; i < tile.size(); ++i) {
      // Truncation: within 1 ulp below; nearest modes: within 0.5+eps ulp.
      const float bound =
          mode == RoundMode::kTruncate ? 1.0F * ulp : 0.51F * ulp;
      ASSERT_LE(std::fabs(back[i] - tile[i]), bound + 1e-12F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, RoundModeSweep,
                         ::testing::Values(RoundMode::kTruncate,
                                           RoundMode::kNearestEven,
                                           RoundMode::kHalfAway));

TEST(QuantizerProperty, TruncationNeverIncreasesMagnitudeOfPositive) {
  Rng rng(88);
  const BfpFormat fmt = bfp8_format();
  for (int trial = 0; trial < 50; ++trial) {
    auto tile = rng.uniform_vec(64, 0.0F, 10.0F);  // non-negative
    const BfpBlock b = quantize_block(tile, fmt, RoundMode::kTruncate);
    const auto back = b.dequantize();
    for (std::size_t i = 0; i < tile.size(); ++i) {
      ASSERT_LE(back[i], tile[i] + 1e-6F);
    }
  }
}

/// -------- failure injection: contracts throw, never corrupt --------

TEST(FailureInjection, PsuOverflowSurfacesFromPublicApi) {
  // Force a PSU overflow: gemm with a huge K so aligned partial sums
  // exceed a deliberately narrow carrier, through both the cycle-stepped
  // and the functional GEMM.
  PuConfig cfg;
  cfg.psu_bits = 16;  // absurdly narrow accumulator
  ProcessingUnit pu(cfg);
  Rng rng(89);
  const int m = 8;
  const int k = 512;  // 64 k-tiles of worst-case magnitude sums
  const int n = 8;
  std::vector<float> a(static_cast<std::size_t>(m) * k, 1.0F);
  std::vector<float> b(static_cast<std::size_t>(k) * n, 1.0F);
  EXPECT_THROW(pu.gemm_bfp8(a, m, k, b, n), HardwareContractError);
  EXPECT_THROW(pu.gemm_bfp8_fast(a, m, k, b, n), HardwareContractError);
}

TEST(FailureInjection, AccOverflowInFp32Add) {
  PuConfig cfg;
  cfg.psu_bits = 24;  // narrower than a 24-bit mantissa sum needs
  ProcessingUnit pu(cfg);
  std::vector<float> x = {1.9999999F};
  std::vector<float> y = {1.9999999F};
  EXPECT_THROW(pu.fp32_add_stream(x, y), Error);
}

TEST(FailureInjection, DspRejectsOutOfRangeAfterManualPacking) {
  // pack_dual would produce a value that fits, but corrupting the packed
  // word must trip the DSP port check instead of wrapping.
  Dsp48e2 d;
  EXPECT_THROW(
      d.eval(std::int64_t{1} << 27, 1, 0, 0, 0, DspAccSrc::kZero, false),
      HardwareContractError);
}

TEST(FailureInjection, NonFiniteInputsRejectedEverywhere) {
  ProcessingUnit pu;
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> bad = {inf};
  std::vector<float> good = {1.0F};
  EXPECT_THROW(pu.fp32_mul_stream(bad, good), Error);
  EXPECT_THROW(pu.fp32_add_stream(good, bad), Error);
  std::vector<float> a(64, 1.0F);
  a[3] = inf;
  std::vector<float> b(64, 1.0F);
  EXPECT_THROW(pu.gemm_bfp8(a, 8, 8, b, 8), Error);
}

/// -------- randomized executor programs --------

TEST(ExecutorFuzz, RandomElementwiseChainsMatchDirectEvaluation) {
  Rng rng(90);
  const AcceleratorSystem system;
  for (int trial = 0; trial < 25; ++trial) {
    const int rows = static_cast<int>(rng.uniform_int(1, 6));
    const int cols = static_cast<int>(rng.uniform_int(1, 24));
    const auto x0 = rng.normal_vec(
        static_cast<std::size_t>(rows) * cols, 0.0F, 1.0F);
    Executor ex(system);
    ex.set_tensor(0, rows, cols, x0);

    // Apply a random chain of safe elementwise ops to register 0 -> 1,
    // mirroring them on a host-side vector.
    std::vector<float> ref = x0;
    ProgramBuilder pb;
    int cur = 0;
    const int steps = static_cast<int>(rng.uniform_int(1, 6));
    for (int s = 0; s < steps; ++s) {
      const int next = 10 + s;
      const int pick = static_cast<int>(rng.uniform_int(0, 2));
      if (pick == 0) {
        const float c = rng.uniform(0.5F, 2.0F);
        pb.vec_mul_scalar(next, cur, c);
        for (auto& v : ref) v = fp32_mul_sliced(v, c);
      } else if (pick == 1) {
        const float c = rng.uniform(-1.0F, 1.0F);
        pb.vec_add_scalar(next, cur, c);
        for (auto& v : ref) v = fp32_add_aligned(v, c);
      } else {
        pb.vec_mul(next, cur, cur);
        for (auto& v : ref) v = fp32_mul_sliced(v, v);
      }
      cur = next;
    }
    pb.halt();
    ex.run(pb.build());
    const auto& out = ex.tensor(cur);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(float_to_bits(out.data[i]), float_to_bits(ref[i]))
          << "trial=" << trial << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace bfpsim
