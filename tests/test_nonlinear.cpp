// Tests for the non-linear reference math and the vector-unit-shaped
// approximations (exp/tanh/GELU/softmax/LayerNorm) and their op counters.
#include "numerics/nonlinear.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "numerics/bfp_kernel.hpp"

namespace bfpsim {
namespace {

TEST(SoftmaxReference, RowsSumToOneAndMatchClosedForm) {
  Rng rng(301);
  const int rows = 10;
  const int cols = 33;
  const auto x = rng.normal_vec(
      static_cast<std::size_t>(rows) * cols, 0.0F, 3.0F);
  const auto s = softmax_reference(x, rows, cols);
  for (int r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) {
      const float v = s[static_cast<std::size_t>(r) * cols + c];
      EXPECT_GE(v, 0.0F);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  // Invariance to a per-row shift.
  auto shifted = x;
  for (auto& v : shifted) v += 5.0F;
  const auto s2 = softmax_reference(shifted, rows, cols);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(s2[i], s[i], 1e-6F);
  }
}

TEST(GeluReference, KnownValuesAndSymmetry) {
  EXPECT_NEAR(gelu_reference(0.0F), 0.0F, 1e-7F);
  EXPECT_NEAR(gelu_reference(10.0F), 10.0F, 1e-5F);   // ~identity for large x
  EXPECT_NEAR(gelu_reference(-10.0F), 0.0F, 1e-5F);   // ~0 for very negative
  // gelu(x) - gelu(-x) == x (since Phi(x) + Phi(-x) == 1).
  for (float x : {0.3F, 1.0F, 2.5F}) {
    EXPECT_NEAR(gelu_reference(x) - gelu_reference(-x), x, 1e-6F);
  }
}

TEST(LayernormReference, NormalizesRows) {
  Rng rng(302);
  const int rows = 5;
  const int cols = 64;
  const auto x = rng.normal_vec(
      static_cast<std::size_t>(rows) * cols, 3.0F, 5.0F);
  const std::vector<float> gamma(static_cast<std::size_t>(cols), 1.0F);
  const std::vector<float> beta(static_cast<std::size_t>(cols), 0.0F);
  const auto y = layernorm_reference(x, rows, cols, gamma, beta);
  for (int r = 0; r < rows; ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (int c = 0; c < cols; ++c) {
      mean += y[static_cast<std::size_t>(r) * cols + c];
    }
    mean /= cols;
    for (int c = 0; c < cols; ++c) {
      const double d = y[static_cast<std::size_t>(r) * cols + c] - mean;
      var += d * d;
    }
    var /= cols;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(ApproxExp, AccurateOnSoftmaxRange) {
  Rng rng(303);
  for (int i = 0; i < 10000; ++i) {
    const float x = rng.uniform(-20.0F, 0.0F);
    EXPECT_NEAR(approx_exp(x), std::exp(x), 2e-6F) << "x=" << x;
  }
  // Clamped outside the fitted range; never negative.
  EXPECT_NEAR(approx_exp(-100.0F), 0.0F, 2e-6F);
  EXPECT_GE(approx_exp(-19.9999F), 0.0F);
  EXPECT_NEAR(approx_exp(5.0F), 1.0F, 2e-6F);  // clamps to exp(0)
}

TEST(ApproxExpSplit, AccurateAndCheaper) {
  Rng rng(304);
  OpCounter plain;
  OpCounter fast;
  for (int i = 0; i < 5000; ++i) {
    const float x = rng.uniform(-20.0F, 0.0F);
    const float ref = std::exp(x);
    EXPECT_NEAR(approx_exp(x, &plain), ref, 2e-6F);
    EXPECT_NEAR(approx_exp_split(x, &fast), ref,
                std::max(1e-5F, 1e-5F * ref));
  }
  EXPECT_LT(fast.device_flops() * 3, plain.device_flops());
}

TEST(ApproxTanh, BoundedErrorAndOddSymmetry) {
  Rng rng(305);
  for (int i = 0; i < 10000; ++i) {
    const float x = rng.uniform(-6.0F, 6.0F);
    EXPECT_NEAR(approx_tanh(x), std::tanh(x), 4e-3F) << "x=" << x;
    EXPECT_FLOAT_EQ(approx_tanh(-x), -approx_tanh(x));
  }
  EXPECT_FLOAT_EQ(approx_tanh(100.0F), 1.0F);
  EXPECT_FLOAT_EQ(approx_tanh(-100.0F), -1.0F);
}

TEST(ApproxGelu, TracksReference) {
  Rng rng(306);
  for (int i = 0; i < 5000; ++i) {
    const float x = rng.normal(0.0F, 2.5F);
    EXPECT_NEAR(approx_gelu(x), gelu_reference(x), 8e-3F) << "x=" << x;
  }
}

TEST(ApproxSoftmax, PlainAndFastAgreeWithReference) {
  Rng rng(307);
  const int rows = 6;
  const int cols = 197;
  const auto x = rng.normal_vec(
      static_cast<std::size_t>(rows) * cols, 0.0F, 2.0F);
  const auto ref = softmax_reference(x, rows, cols);
  const auto plain = approx_softmax(x, rows, cols);
  const auto fast = approx_softmax(x, rows, cols, nullptr, true);
  EXPECT_LT(compute_error_stats(plain, ref).max_abs, 1e-4);
  EXPECT_LT(compute_error_stats(fast, ref).max_abs, 1e-4);
}

TEST(ApproxLayernorm, TracksReference) {
  Rng rng(308);
  const int rows = 4;
  const int cols = 96;
  const auto x = rng.normal_vec(
      static_cast<std::size_t>(rows) * cols, -1.0F, 4.0F);
  std::vector<float> gamma(static_cast<std::size_t>(cols));
  std::vector<float> beta(static_cast<std::size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    gamma[static_cast<std::size_t>(c)] = 0.8F + 0.005F * static_cast<float>(c);
    beta[static_cast<std::size_t>(c)] = -0.1F * static_cast<float>(c % 5);
  }
  const auto ref = layernorm_reference(x, rows, cols, gamma, beta);
  const auto got = approx_layernorm(x, rows, cols, gamma, beta);
  EXPECT_LT(compute_error_stats(got, ref).rel_rmse, 1e-3);
}

TEST(OpCounter, AccumulatesAndSums) {
  OpCounter a;
  a.fp_mul = 3;
  a.fp_add = 4;
  a.exp_manip = 1;
  a.host_div = 2;
  a.host_other = 5;
  OpCounter b;
  b.fp_mul = 10;
  b += a;
  EXPECT_EQ(b.fp_mul, 13u);
  EXPECT_EQ(b.device_flops(), 13u + 4u + 1u);
  EXPECT_EQ(b.total(), 13u + 4u + 1u + 2u + 5u);
}

TEST(OpCounters, SoftmaxCountsScaleLinearlyWithElements) {
  Rng rng(309);
  OpCounter small;
  OpCounter big;
  const auto x1 = rng.normal_vec(2 * 64, 0.0F, 1.0F);
  const auto x2 = rng.normal_vec(8 * 64, 0.0F, 1.0F);
  approx_softmax(x1, 2, 64, &small);
  approx_softmax(x2, 8, 64, &big);
  EXPECT_EQ(big.fp_mul, 4 * small.fp_mul);
  EXPECT_EQ(big.fp_add, 4 * small.fp_add);
  EXPECT_EQ(big.host_div, 4 * small.host_div);
}

// ---- span forms vs the per-element scalar functions, under every tier ----

/// Restores the process-wide kernel tier when a sweep ends or fails.
struct TierGuard {
  KernelTier saved = active_kernel_tier();
  ~TierGuard() { set_active_kernel_tier(saved); }
};

void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << what << ": element " << i << " got " << got[i] << " want "
        << want[i];
  }
}

void expect_same_ops(const OpCounter& got, const OpCounter& want,
                     const std::string& what) {
  EXPECT_EQ(got.fp_mul, want.fp_mul) << what;
  EXPECT_EQ(got.fp_add, want.fp_add) << what;
  EXPECT_EQ(got.exp_manip, want.exp_manip) << what;
  EXPECT_EQ(got.host_div, want.host_div) << what;
  EXPECT_EQ(got.host_other, want.host_other) << what;
}

/// Inputs of length n: random draws from [lo, hi] with the listed edge
/// values spliced in at the front.
std::vector<float> span_inputs(Rng& rng, std::size_t n, float lo, float hi,
                               const std::vector<float>& edges) {
  std::vector<float> x(n);
  for (float& v : x) v = rng.uniform(lo, hi);
  std::copy_n(edges.begin(), std::min(n, edges.size()), x.begin());
  return x;
}

/// Runs one elementwise span form against a loop over its scalar function,
/// into a fresh buffer and in place, for lengths 1, 7, 197 and 10^5 under
/// every kernel tier: memcmp-equal outputs and equal OpCounter fields.
template <typename Span, typename Scalar>
void expect_span_matches_scalar(const char* name, float lo, float hi,
                                const std::vector<float>& edges, Span span_fn,
                                Scalar scalar_fn) {
  TierGuard guard;
  Rng rng(310);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{197}, std::size_t{100000}}) {
    const std::vector<float> x = span_inputs(rng, n, lo, hi, edges);
    OpCounter want_ops;
    std::vector<float> want(n);
    for (std::size_t i = 0; i < n; ++i) want[i] = scalar_fn(x[i], &want_ops);
    for (const KernelTier tier : available_kernel_tiers()) {
      set_active_kernel_tier(tier);
      const std::string what = std::string(name) + " n=" + std::to_string(n) +
                               " tier " + to_string(tier);
      OpCounter ops;
      std::vector<float> out(n);
      span_fn(x, out, &ops);
      expect_same_bits(out, want, what);
      expect_same_ops(ops, want_ops, what);
      std::vector<float> inplace = x;
      OpCounter ops2;
      span_fn(inplace, inplace, &ops2);
      expect_same_bits(inplace, want, what + " in place");
      expect_same_ops(ops2, want_ops, what + " in place");
    }
  }
}

TEST(SpanForms, ExpMatchesScalarIncludingOutsideFittedRange) {
  const std::vector<float> edges = {-20.0F, 0.0F, -0.0F, -25.0F, 3.0F,
                                    std::nextafter(-20.0F, -30.0F), -1e-30F,
                                    -87.5F, 1e-3F};
  expect_span_matches_scalar(
      "approx_exp", -40.0F, 5.0F, edges,
      [](std::span<const float> x, std::span<float> o, OpCounter* ops) {
        approx_exp(x, o, ops);
      },
      [](float v, OpCounter* ops) { return approx_exp(v, ops); });
  expect_span_matches_scalar(
      "approx_exp_split", -100.0F, 2.0F, edges,
      [](std::span<const float> x, std::span<float> o, OpCounter* ops) {
        approx_exp_split(x, o, ops);
      },
      [](float v, OpCounter* ops) { return approx_exp_split(v, ops); });
}

TEST(SpanForms, TanhAndGeluMatchScalarAcrossTheClamp) {
  // tanh clamps at |x| >= 3.2; GELU's inner argument crosses 3.2 near
  // |x| ~ 2.64. Both sides of both thresholds, exactly and one ulp away.
  const float t = 3.2F;
  const std::vector<float> tanh_edges = {
      t, -t, std::nextafter(t, 0.0F), std::nextafter(-t, 0.0F),
      std::nextafter(t, 9.0F), std::nextafter(-t, -9.0F), 0.0F, -0.0F,
      100.0F, -100.0F, std::numeric_limits<float>::denorm_min()};
  expect_span_matches_scalar(
      "approx_tanh", -4.0F, 4.0F, tanh_edges,
      [](std::span<const float> x, std::span<float> o, OpCounter* ops) {
        approx_tanh(x, o, ops);
      },
      [](float v, OpCounter* ops) { return approx_tanh(v, ops); });
  std::vector<float> gelu_edges = {0.0F, -0.0F, 50.0F, -50.0F};
  for (float g = 2.60F; g < 2.68F; g += 0.0025F) {
    gelu_edges.push_back(g);
    gelu_edges.push_back(-g);
  }
  expect_span_matches_scalar(
      "approx_gelu", -6.0F, 6.0F, gelu_edges,
      [](std::span<const float> x, std::span<float> o, OpCounter* ops) {
        approx_gelu(x, o, ops);
      },
      [](float v, OpCounter* ops) { return approx_gelu(v, ops); });
}

/// The softmax vector program element by element through approx_exp
/// (approx_exp_split when `fast`), as it was first written.
std::vector<float> softmax_by_element(const std::vector<float>& x, int rows,
                                      int cols, OpCounter* ops, bool fast) {
  std::vector<float> out(x.size());
  for (int r = 0; r < rows; ++r) {
    const float* row = x.data() + static_cast<std::size_t>(r) * cols;
    float* orow = out.data() + static_cast<std::size_t>(r) * cols;
    float mx = row[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
    ops->host_other += static_cast<std::uint64_t>(cols);
    float sum = 0.0F;
    for (int c = 0; c < cols; ++c) {
      orow[c] = fast ? approx_exp_split(row[c] - mx, ops)
                     : approx_exp(row[c] - mx, ops);
      sum += orow[c];
    }
    ops->fp_add += 2 * static_cast<std::uint64_t>(cols);
    const float inv = 1.0F / sum;
    ops->host_div += 1;
    for (int c = 0; c < cols; ++c) orow[c] *= inv;
    ops->fp_mul += static_cast<std::uint64_t>(cols);
  }
  return out;
}

/// The LayerNorm vector program element by element, as first written.
std::vector<float> layernorm_by_element(const std::vector<float>& x,
                                        int rows, int cols,
                                        const std::vector<float>& gamma,
                                        const std::vector<float>& beta,
                                        OpCounter* ops) {
  std::vector<float> out(x.size());
  const float invn = 1.0F / static_cast<float>(cols);
  for (int r = 0; r < rows; ++r) {
    const float* row = x.data() + static_cast<std::size_t>(r) * cols;
    float* orow = out.data() + static_cast<std::size_t>(r) * cols;
    float sum = 0.0F;
    float sumsq = 0.0F;
    for (int c = 0; c < cols; ++c) {
      sum += row[c];
      sumsq += row[c] * row[c];
    }
    const float mean = sum * invn;
    const float var = std::max(0.0F, sumsq * invn - mean * mean);
    const float inv = 1.0F / std::sqrt(var + 1e-5F);
    for (int c = 0; c < cols; ++c) {
      orow[c] = (row[c] - mean) * inv * gamma[static_cast<std::size_t>(c)] +
                beta[static_cast<std::size_t>(c)];
    }
    ops->fp_add += 4 * static_cast<std::uint64_t>(cols) + 2;
    ops->fp_mul += 3 * static_cast<std::uint64_t>(cols) + 3;
    ops->host_div += 1;
  }
  return out;
}

TEST(SpanForms, SoftmaxAndLayernormRowsMatchElementwisePrograms) {
  TierGuard guard;
  Rng rng(311);
  const int rows = 3;
  for (const int cols : {1, 7, 197}) {
    const auto n = static_cast<std::size_t>(rows * cols);
    // Scores spread wide enough that row[c] - max leaves [-20, 0].
    const auto x = rng.normal_vec(n, 0.0F, 12.0F);
    std::vector<float> gamma(static_cast<std::size_t>(cols));
    std::vector<float> beta(static_cast<std::size_t>(cols));
    for (int c = 0; c < cols; ++c) {
      gamma[static_cast<std::size_t>(c)] = rng.uniform(0.5F, 1.5F);
      beta[static_cast<std::size_t>(c)] = rng.uniform(-0.5F, 0.5F);
    }
    for (const bool fast : {false, true}) {
      OpCounter want_ops;
      const auto want = softmax_by_element(x, rows, cols, &want_ops, fast);
      for (const KernelTier tier : available_kernel_tiers()) {
        set_active_kernel_tier(tier);
        const std::string what = "softmax cols=" + std::to_string(cols) +
                                 " fast=" + std::to_string(fast) + " tier " +
                                 to_string(tier);
        OpCounter ops;
        std::vector<float> out = x;  // in place
        approx_softmax(out, rows, cols, out, &ops, fast);
        expect_same_bits(out, want, what);
        expect_same_ops(ops, want_ops, what);
        OpCounter wops;
        expect_same_bits(approx_softmax(x, rows, cols, &wops, fast), want,
                         what + " wrapper");
        expect_same_ops(wops, want_ops, what + " wrapper");
      }
    }
    OpCounter want_ops;
    const auto want = layernorm_by_element(x, rows, cols, gamma, beta,
                                           &want_ops);
    for (const KernelTier tier : available_kernel_tiers()) {
      set_active_kernel_tier(tier);
      const std::string what = "layernorm cols=" + std::to_string(cols) +
                               " tier " + to_string(tier);
      OpCounter ops;
      std::vector<float> out = x;  // in place
      approx_layernorm(out, rows, cols, gamma, beta, out, &ops);
      expect_same_bits(out, want, what);
      expect_same_ops(ops, want_ops, what);
      OpCounter wops;
      expect_same_bits(approx_layernorm(x, rows, cols, gamma, beta, &wops),
                       want, what + " wrapper");
      expect_same_ops(wops, want_ops, what + " wrapper");
    }
  }
}

}  // namespace
}  // namespace bfpsim
