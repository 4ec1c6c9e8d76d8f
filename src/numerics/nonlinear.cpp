#include "numerics/nonlinear.hpp"

// The nonlinear ops (softmax, layernorm, GELU) run on the host-side fp32
// path by design — Section II-E keeps them out of the bfp8 datapath — so
// float accumulation here is the modelled behaviour, not a hazard.
// bfpsim-lint: untag(bit-exact)

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "numerics/fp32.hpp"
#include "numerics/nonlinear_poly.hpp"
#include "numerics/vector_kernel.hpp"

namespace bfpsim {

OpCounter& OpCounter::operator+=(const OpCounter& o) {
  fp_mul += o.fp_mul;
  fp_add += o.fp_add;
  exp_manip += o.exp_manip;
  host_div += o.host_div;
  host_other += o.host_other;
  return *this;
}

std::vector<float> softmax_reference(std::span<const float> x, int rows,
                                     int cols) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "softmax_reference: size must equal rows*cols");
  std::vector<float> out(x.size());
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * cols;
    double mx = row[0];
    for (int c = 1; c < cols; ++c) mx = std::max<double>(mx, row[c]);
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) sum += std::exp(row[c] - mx);
    for (int c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(r) * cols + c] =
          static_cast<float>(std::exp(row[c] - mx) / sum);
    }
  }
  return out;
}

float gelu_reference(float x) {
  return static_cast<float>(
      0.5 * static_cast<double>(x) *
      (1.0 + std::erf(static_cast<double>(x) / std::sqrt(2.0))));
}

std::vector<float> gelu_reference(std::span<const float> x) {
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = gelu_reference(x[i]);
  return out;
}

std::vector<float> layernorm_reference(std::span<const float> x, int rows,
                                       int cols, std::span<const float> gamma,
                                       std::span<const float> beta,
                                       float eps) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "layernorm_reference: size must equal rows*cols");
  BFP_REQUIRE(gamma.size() == static_cast<std::size_t>(cols) &&
                  beta.size() == static_cast<std::size_t>(cols),
              "layernorm_reference: gamma/beta must have `cols` entries");
  std::vector<float> out(x.size());
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * cols;
    double mean = 0.0;
    for (int c = 0; c < cols; ++c) mean += row[c];
    mean /= cols;
    double var = 0.0;
    for (int c = 0; c < cols; ++c) {
      const double d = row[c] - mean;
      var += d * d;
    }
    var /= cols;
    const double inv = 1.0 / std::sqrt(var + eps);
    for (int c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(r) * cols + c] = static_cast<float>(
          (row[c] - mean) * inv * gamma[static_cast<std::size_t>(c)] +
          beta[static_cast<std::size_t>(c)]);
    }
  }
  return out;
}

namespace {

using detail::ElementOps;

void charge(OpCounter* ops, const ElementOps& per, std::uint64_t n) {
  if (ops == nullptr) return;
  ops->fp_mul += per.fp_mul * n;
  ops->fp_add += per.fp_add * n;
  ops->exp_manip += per.exp_manip * n;
  ops->host_other += per.host_other * n;
}

void require_same_size(std::span<const float> x, std::span<float> out,
                       const char* what) {
  BFP_REQUIRE(out.size() == x.size(),
              std::string(what) + ": output size must match the input");
}

/// out[i] = exp(x[i] - shift) through approx_exp (or approx_exp_split),
/// with the per-element tally charged in closed form.
void exp_span(const float* x, float shift, float* out, std::size_t n,
              bool split, OpCounter* ops) {
  if (detail::vector_avx2_active()) {
    detail::exp_avx2(x, shift, out, n, split);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = split ? approx_exp_split(x[i] - shift)
                     : approx_exp(x[i] - shift);
    }
  }
  charge(ops, split ? detail::kExpSplitOps : detail::kExpOps, n);
}

}  // namespace

float approx_exp(float x, OpCounter* ops) {
  using detail::kExpCheb;
  using detail::kExpChebDeg;
  using detail::kExpHi;
  using detail::kExpLo;
  // Clamp into the fitted range: softmax feeds post-max-subtraction values
  // in (-inf, 0], and exp(-20) ~ 2e-9 is zero at fp32 softmax scale.
  const double xc = std::clamp(static_cast<double>(x), kExpLo, kExpHi);
  // Map to t in [-1, 1]: one mul + one add.
  const double t = (2.0 * xc - (kExpLo + kExpHi)) / (kExpHi - kExpLo);
  const double u = 2.0 * t;  // one mul
  // Clenshaw recurrence: one mul + two adds per degree.
  double b0 = 0.0;
  double b1 = 0.0;
  for (int k = kExpChebDeg; k >= 1; --k) {
    const double next = u * b0 - b1 + kExpCheb[k];
    b1 = b0;
    b0 = next;
  }
  double p = t * b0 - b1 + kExpCheb[0];  // one mul + two adds
  // The fitted polynomial can dip ~1e-6 below zero near the clamp edge;
  // probabilities must not (one comparator op).
  if (p < 0.0) p = 0.0;
  charge(ops, detail::kExpOps, 1);
  return static_cast<float>(p);
}

float approx_exp_split(float x, OpCounter* ops) {
  using detail::kExp2Poly;
  const float xc = std::clamp(x, detail::kExpSplitLo, 0.0F);
  // t = x * log2(e): one multiply.
  const float t = xc * detail::kLog2e;
  // Integer/fraction split + final 2^k scale: the added exponent-injection
  // hardware (two EU-class operations).
  const float kf = std::floor(t);
  const auto k = static_cast<int>(kf);
  const float f = t - kf;  // one add
  double p = kExp2Poly[6];
  for (int i = 5; i >= 0; --i) p = p * f + kExp2Poly[i];  // 6 mul + 6 add
  charge(ops, detail::kExpSplitOps, 1);
  return static_cast<float>(std::ldexp(p, k));
}

float approx_tanh(float x, OpCounter* ops) {
  using detail::kTanhPoly;
  const float ax = std::fabs(x);
  if (ax >= detail::kTanhClamp) {
    charge(ops, detail::kTanhClampOps, 1);  // clamp comparison
    return x > 0 ? 1.0F : -1.0F;
  }
  const double x2 = static_cast<double>(x) * x;  // 1 mul
  double p = kTanhPoly[9];
  for (int i = 8; i >= 0; --i) p = p * x2 + kTanhPoly[i];  // 9 mul + 9 add
  charge(ops, detail::kTanhPolyOps, 1);  // x2, Horner, x*P; range check
  return static_cast<float>(static_cast<double>(x) * p);
}

float approx_gelu(float x, OpCounter* ops) {
  // 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))
  const double xd = x;
  const double inner =
      detail::kGeluSqrt2OverPi * (xd + detail::kGeluCubic * xd * xd * xd);
  const float t = approx_tanh(static_cast<float>(inner), ops);
  charge(ops, detail::kGeluOuterOps, 1);
  return static_cast<float>(0.5 * xd * (1.0 + static_cast<double>(t)));
}

void approx_exp(std::span<const float> x, std::span<float> out,
                OpCounter* ops) {
  require_same_size(x, out, "approx_exp");
  exp_span(x.data(), 0.0F, out.data(), x.size(), /*split=*/false, ops);
}

void approx_exp_split(std::span<const float> x, std::span<float> out,
                      OpCounter* ops) {
  require_same_size(x, out, "approx_exp_split");
  exp_span(x.data(), 0.0F, out.data(), x.size(), /*split=*/true, ops);
}

void approx_tanh(std::span<const float> x, std::span<float> out,
                 OpCounter* ops) {
  require_same_size(x, out, "approx_tanh");
  if (!detail::vector_avx2_active()) {
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = approx_tanh(x[i], ops);
    return;
  }
  const std::size_t clamped = detail::tanh_avx2(x.data(), out.data(), x.size());
  charge(ops, detail::kTanhClampOps, clamped);
  charge(ops, detail::kTanhPolyOps, x.size() - clamped);
}

void approx_gelu(std::span<const float> x, std::span<float> out,
                 OpCounter* ops) {
  require_same_size(x, out, "approx_gelu");
  if (!detail::vector_avx2_active()) {
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = approx_gelu(x[i], ops);
    return;
  }
  const std::size_t clamped = detail::gelu_avx2(x.data(), out.data(), x.size());
  charge(ops, detail::kTanhClampOps, clamped);
  charge(ops, detail::kTanhPolyOps, x.size() - clamped);
  charge(ops, detail::kGeluOuterOps, x.size());
}

std::vector<float> approx_gelu(std::span<const float> x, OpCounter* ops) {
  std::vector<float> out(x.size());
  approx_gelu(x, out, ops);
  return out;
}

float approx_silu(float x, OpCounter* ops) {
  // x * sigmoid(x) with sigmoid(x) = 0.5 * (1 + tanh(x / 2)).
  const float half_x = 0.5F * x;
  if (ops != nullptr) ops->fp_mul += 1;  // x / 2 as 0.5 * x
  const float t = approx_tanh(half_x, ops);
  if (ops != nullptr) {
    ops->fp_add += 1;  // 1 + t
    ops->fp_mul += 2;  // 0.5 *, x *
  }
  return static_cast<float>(static_cast<double>(x) * 0.5 *
                            (1.0 + static_cast<double>(t)));
}

std::vector<float> approx_silu(std::span<const float> x, OpCounter* ops) {
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = approx_silu(x[i], ops);
  return out;
}

void approx_softmax(std::span<const float> x, int rows, int cols,
                    std::span<float> out, OpCounter* ops, bool fast_exp) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "approx_softmax: size must equal rows*cols");
  require_same_size(x, out, "approx_softmax");
  const bool lanes = detail::vector_avx2_active();
  const auto n = static_cast<std::size_t>(cols);
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * n;
    auto* orow = out.data() + static_cast<std::size_t>(r) * n;
    // The max and the sum are sequential reductions in element order:
    // reordering the float sum would change its bits.
    float mx = row[0];
    for (std::size_t c = 1; c < n; ++c) mx = std::max(mx, row[c]);
    exp_span(row, mx, orow, n, fast_exp, ops);
    float sum = 0.0F;
    for (std::size_t c = 0; c < n; ++c) sum += orow[c];
    const float inv = 1.0F / sum;  // host division (Section III-B)
    if (lanes) {
      detail::scale_avx2(orow, inv, n);
    } else {
      for (std::size_t c = 0; c < n; ++c) orow[c] *= inv;
    }
  }
  if (ops != nullptr) {
    const auto elems = static_cast<std::uint64_t>(rows) * n;
    ops->host_other += elems;       // max compares
    ops->fp_add += 2 * elems;       // subtract + sum
    ops->host_div += static_cast<std::uint64_t>(rows);
    ops->fp_mul += elems;           // scale
  }
}

std::vector<float> approx_softmax(std::span<const float> x, int rows,
                                  int cols, OpCounter* ops, bool fast_exp) {
  std::vector<float> out(x.size());
  approx_softmax(x, rows, cols, out, ops, fast_exp);
  return out;
}

void approx_layernorm(std::span<const float> x, int rows, int cols,
                      std::span<const float> gamma,
                      std::span<const float> beta, std::span<float> out,
                      OpCounter* ops, float eps) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "approx_layernorm: size must equal rows*cols");
  BFP_REQUIRE(gamma.size() == static_cast<std::size_t>(cols) &&
                  beta.size() == static_cast<std::size_t>(cols),
              "approx_layernorm: gamma/beta must have `cols` entries");
  require_same_size(x, out, "approx_layernorm");
  const bool lanes = detail::vector_avx2_active();
  const auto n = static_cast<std::size_t>(cols);
  const float invn = 1.0F / static_cast<float>(cols);  // compile-time const
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * n;
    auto* orow = out.data() + static_cast<std::size_t>(r) * n;
    // Sequential reductions in element order (see approx_softmax).
    float sum = 0.0F;
    float sumsq = 0.0F;
    for (std::size_t c = 0; c < n; ++c) {
      sum += row[c];
      sumsq += row[c] * row[c];
    }
    const float mean = sum * invn;
    const float var = std::max(0.0F, sumsq * invn - mean * mean);
    const float inv = 1.0F / std::sqrt(var + eps);  // host rsqrt
    if (lanes) {
      detail::layernorm_map_avx2(row, mean, inv, gamma.data(), beta.data(),
                                 orow, n);
    } else {
      for (std::size_t c = 0; c < n; ++c) {
        orow[c] = (row[c] - mean) * inv * gamma[c] + beta[c];
      }
    }
  }
  if (ops != nullptr) {
    const auto elems = static_cast<std::uint64_t>(rows) * n;
    const auto nrows = static_cast<std::uint64_t>(rows);
    ops->fp_add += 2 * elems + 2 * nrows + 2 * elems;  // sums, var, map
    ops->fp_mul += elems + 3 * nrows + 2 * elems;      // squares, var, map
    ops->host_div += nrows;
  }
}

std::vector<float> approx_layernorm(std::span<const float> x, int rows,
                                    int cols, std::span<const float> gamma,
                                    std::span<const float> beta,
                                    OpCounter* ops, float eps) {
  std::vector<float> out(x.size());
  approx_layernorm(x, rows, cols, gamma, beta, out, ops, eps);
  return out;
}

std::vector<float> rmsnorm_reference(std::span<const float> x, int rows,
                                     int cols, std::span<const float> gamma,
                                     float eps) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "rmsnorm_reference: size must equal rows*cols");
  BFP_REQUIRE(gamma.size() == static_cast<std::size_t>(cols),
              "rmsnorm_reference: gamma must have `cols` entries");
  std::vector<float> out(x.size());
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * cols;
    double ms = 0.0;
    for (int c = 0; c < cols; ++c) {
      ms += static_cast<double>(row[c]) * row[c];
    }
    ms /= cols;
    const double inv = 1.0 / std::sqrt(ms + eps);
    for (int c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(r) * cols + c] = static_cast<float>(
          row[c] * inv * gamma[static_cast<std::size_t>(c)]);
    }
  }
  return out;
}

std::vector<float> approx_rmsnorm(std::span<const float> x, int rows,
                                  int cols, std::span<const float> gamma,
                                  OpCounter* ops, float eps) {
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  x.size() == static_cast<std::size_t>(rows) * cols,
              "approx_rmsnorm: size must equal rows*cols");
  BFP_REQUIRE(gamma.size() == static_cast<std::size_t>(cols),
              "approx_rmsnorm: gamma must have `cols` entries");
  std::vector<float> out(x.size());
  const float invn = 1.0F / static_cast<float>(cols);
  for (int r = 0; r < rows; ++r) {
    const auto* row = x.data() + static_cast<std::size_t>(r) * cols;
    auto* orow = out.data() + static_cast<std::size_t>(r) * cols;
    float sumsq = 0.0F;
    for (int c = 0; c < cols; ++c) sumsq += row[c] * row[c];
    if (ops != nullptr) {
      ops->fp_mul += static_cast<std::uint64_t>(cols);
      ops->fp_add += static_cast<std::uint64_t>(cols);
    }
    const float inv = 1.0F / std::sqrt(sumsq * invn + eps);  // host rsqrt
    if (ops != nullptr) {
      ops->fp_mul += 1;
      ops->fp_add += 1;
      ops->host_div += 1;
    }
    for (int c = 0; c < cols; ++c) {
      orow[c] = row[c] * inv * gamma[static_cast<std::size_t>(c)];
    }
    if (ops != nullptr) {
      ops->fp_mul += 2 * static_cast<std::uint64_t>(cols);
    }
  }
  return out;
}

}  // namespace bfpsim
