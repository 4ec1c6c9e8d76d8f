// AVX2 bodies of the fp32 vector span forms, isolated in their own
// translation unit so they can be compiled with -mavx2 while the rest of
// the binary stays baseline-ISA. The span forms only call in here after
// vector_avx2_active() confirms the CPU has AVX2 and the kSimd tier is
// active. Built with -ffp-contract=off and never -mfma: every double chain
// below must round after each multiply and each add, as the scalar
// reference does.
//
// Exactness, per body:
//  * Aligned add: both 24-bit mantissas are sign-folded into int32 lanes
//    and aligned with _mm256_srav_epi32, whose counts >= 32 fill with the
//    sign exactly like asr(). The sum has at most 26 bits, so a carrier of
//    26 bits or more never overflows. Truncation clears the one bit below
//    24 significant bits; _mm256_cvtepi32_ps then rounds once (RNE) or is
//    exact, and the result scales by the exact power of two 2^(e-150).
//    That equals compose_normalized whenever the result is normal, which
//    exponents in [26, 252] guarantee; other lanes take the scalar path.
//  * Sliced multiply: the 8-term schedule sums to
//    (mx*my - (mx&0xFF)*(my&0xFF)) >> 8 exactly, one 32x32->64 multiply
//    per lane. The sum (< 2^40) and the power-of-two scale are exact in
//    double, so one double->float conversion rounds exactly as
//    compose_normalized does with RNE, subnormal and overflow results
//    included. Truncation clears the 29 low fraction bits of the double;
//    lanes that would truncate into the subnormal range take the scalar
//    path.
//  * exp/tanh/GELU: the same double operations in the same order as the
//    scalar functions, in four-lane chains; division stays a division and
//    no multiply-add is fused.
#include "numerics/vector_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "numerics/nonlinear_poly.hpp"
#include "numerics/slices.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace bfpsim::detail {

#if defined(__AVX2__)

namespace {

constexpr std::size_t kLanes = 8;

/// Bit mask of the first `valid` of eight lanes.
inline int valid_mask(std::size_t valid) {
  return static_cast<int>((1U << valid) - 1U);
}

inline __m256i splat(std::int32_t v) { return _mm256_set1_epi32(v); }

/// Two double quads rounded to one float octet, `lo` in lanes 0-3.
inline __m256 to_ps(__m256d lo, __m256d hi) {
  return _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
}

/// Exponent field of each lane.
inline __m256i exp_field(__m256i bits) {
  return _mm256_and_si256(_mm256_srli_epi32(bits, 23), splat(0xFF));
}

/// 24-bit magnitude with the hidden bit made explicit (none for zero and
/// subnormals), as decompose() reports it.
inline __m256i magnitude(__m256i bits, __m256i field) {
  const __m256i hidden = _mm256_andnot_si256(
      _mm256_cmpeq_epi32(field, _mm256_setzero_si256()), splat(1 << 23));
  return _mm256_or_si256(_mm256_and_si256(bits, splat(0x7FFFFF)), hidden);
}

/// Runs a two-operand lane body over a span in chunks of eight. A full
/// chunk loads straight from memory, a tail through a copy padded with
/// 1.0 (a fast lane for both bodies). `lanes(x, y, &special, &edge)`
/// returns the vector result plus lane masks of NaN/Inf operands and of
/// lanes the vector form cannot reproduce.
template <typename Lanes, typename Scalar>
void binary_span(const float* x, const float* y, std::size_t y_step,
                 float* out, std::size_t n, Lanes lanes, Scalar scalar) {
  const __m256 y_bcast = _mm256_set1_ps(n > 0 && y_step == 0 ? *y : 1.0F);
  alignas(32) float xs[kLanes];
  alignas(32) float ys[kLanes];
  alignas(32) float rs[kLanes];
  for (std::size_t i = 0; i < n; i += kLanes) {
    const std::size_t valid = std::min(kLanes, n - i);
    __m256 xv;
    __m256 yv = y_bcast;
    if (valid == kLanes) {
      xv = _mm256_loadu_ps(x + i);
      if (y_step != 0) yv = _mm256_loadu_ps(y + i);
    } else {
      std::fill(xs, xs + kLanes, 1.0F);
      std::copy_n(x + i, valid, xs);
      xv = _mm256_load_ps(xs);
      if (y_step != 0) {
        std::fill(ys, ys + kLanes, 1.0F);
        std::copy_n(y + i, valid, ys);
        yv = _mm256_load_ps(ys);
      }
    }
    int special = 0;
    int edge = 0;
    const __m256 r = lanes(xv, yv, &special, &edge);
    const int vm = valid_mask(valid);
    if ((special & vm) != 0) {
      // Element by element in order: throws where the scalar loop does,
      // with the lanes before it already written.
      _mm256_store_ps(xs, xv);
      _mm256_store_ps(ys, yv);
      for (std::size_t j = 0; j < valid; ++j) out[i + j] = scalar(xs[j], ys[j]);
      continue;
    }
    if (valid == kLanes && (edge & vm) == 0) {
      _mm256_storeu_ps(out + i, r);
      continue;
    }
    _mm256_store_ps(rs, r);
    if ((edge & vm) != 0) {
      _mm256_store_ps(xs, xv);
      _mm256_store_ps(ys, yv);
      for (std::size_t j = 0; j < valid; ++j) {
        if (((edge >> j) & 1) != 0) rs[j] = scalar(xs[j], ys[j]);
      }
    }
    std::copy_n(rs, valid, out + i);
  }
}

/// Floats per one-operand chunk: four independent chains of four double
/// lanes, stepped in lockstep so their polynomial latencies overlap.
constexpr std::size_t kWide = 16;
constexpr std::size_t kChains = kWide / 4;
using FloatChains = __m128[kChains];
using DoubleChains = __m256d[kChains];

/// Runs a one-operand lane body over a span in chunks of sixteen (tails
/// padded with zeros). `lanes(f)` maps the chunk's four float quads in
/// place and returns a 16-bit lane mask; the count of its bits over valid
/// lanes is returned.
template <typename Lanes>
std::size_t unary_span(const float* x, float* out, std::size_t n,
                       Lanes lanes) {
  alignas(32) float xs[kWide];
  alignas(32) float rs[kWide];
  std::size_t counted = 0;
  for (std::size_t i = 0; i < n; i += kWide) {
    const std::size_t valid = std::min(kWide, n - i);
    const float* src = x + i;
    float* dst = out + i;
    if (valid < kWide) {
      std::fill(xs, xs + kWide, 0.0F);
      std::copy_n(src, valid, xs);
      src = xs;
      dst = rs;
    }
    FloatChains f;
    for (std::size_t c = 0; c < kChains; ++c) f[c] = _mm_loadu_ps(src + 4 * c);
    const unsigned mask = lanes(f);
    counted += static_cast<std::size_t>(
        std::popcount(mask & ((1U << valid) - 1U)));
    for (std::size_t c = 0; c < kChains; ++c) _mm_storeu_ps(dst + 4 * c, f[c]);
    if (valid < kWide) std::copy_n(rs, valid, out + i);
  }
  return counted;
}

/// std::clamp(v, lo, hi) lane by lane, NaN passing through as it does
/// there: v < lo ? lo : (hi < v ? hi : v).
inline __m256d clamp_pd(__m256d v, double lo, double hi) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m256d t = _mm256_blendv_pd(v, vlo, _mm256_cmp_pd(v, vlo, _CMP_LT_OQ));
  return _mm256_blendv_pd(t, vhi, _mm256_cmp_pd(vhi, t, _CMP_LT_OQ));
}

inline __m128 clamp_ps(__m128 v, float lo, float hi) {
  const __m128 vlo = _mm_set1_ps(lo);
  const __m128 vhi = _mm_set1_ps(hi);
  const __m128 t = _mm_blendv_ps(v, vlo, _mm_cmplt_ps(v, vlo));
  return _mm_blendv_ps(t, vhi, _mm_cmplt_ps(vhi, t));
}

/// approx_exp on each chain (doubles holding float values), in place.
inline void exp_pd(DoubleChains& x) {
  DoubleChains t;
  DoubleChains u;
  DoubleChains b0;
  DoubleChains b1;
  for (std::size_t c = 0; c < kChains; ++c) {
    const __m256d xc = clamp_pd(x[c], kExpLo, kExpHi);
    t[c] = _mm256_div_pd(_mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), xc),
                                       _mm256_set1_pd(kExpLo + kExpHi)),
                         _mm256_set1_pd(kExpHi - kExpLo));
    u[c] = _mm256_mul_pd(_mm256_set1_pd(2.0), t[c]);
    b0[c] = _mm256_setzero_pd();
    b1[c] = _mm256_setzero_pd();
  }
  for (int k = kExpChebDeg; k >= 1; --k) {
    const __m256d coeff = _mm256_set1_pd(kExpCheb[k]);
    for (std::size_t c = 0; c < kChains; ++c) {
      const __m256d next = _mm256_add_pd(
          _mm256_sub_pd(_mm256_mul_pd(u[c], b0[c]), b1[c]), coeff);
      b1[c] = b0[c];
      b0[c] = next;
    }
  }
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t c = 0; c < kChains; ++c) {
    const __m256d p =
        _mm256_add_pd(_mm256_sub_pd(_mm256_mul_pd(t[c], b0[c]), b1[c]),
                      _mm256_set1_pd(kExpCheb[0]));
    x[c] = _mm256_blendv_pd(p, zero, _mm256_cmp_pd(p, zero, _CMP_LT_OQ));
  }
}

/// approx_tanh on each chain (doubles holding float values), in place.
/// Returns the lanes with |x| >= 3.2, four bits per chain.
inline unsigned tanh_pd(DoubleChains& x) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  DoubleChains x2;
  DoubleChains p;
  for (std::size_t c = 0; c < kChains; ++c) {
    x2[c] = _mm256_mul_pd(x[c], x[c]);
    p[c] = _mm256_set1_pd(kTanhPoly[9]);
  }
  for (int i = 8; i >= 0; --i) {
    const __m256d coeff = _mm256_set1_pd(kTanhPoly[i]);
    for (std::size_t c = 0; c < kChains; ++c) {
      p[c] = _mm256_add_pd(_mm256_mul_pd(p[c], x2[c]), coeff);
    }
  }
  unsigned clamped = 0;
  for (std::size_t c = 0; c < kChains; ++c) {
    const __m256d clamp = _mm256_cmp_pd(
        _mm256_andnot_pd(sign, x[c]),
        _mm256_set1_pd(static_cast<double>(kTanhClamp)), _CMP_GE_OQ);
    clamped |= static_cast<unsigned>(_mm256_movemask_pd(clamp)) << (4 * c);
    // Clamped lanes are nonzero, so x > 0 is the sign bit being clear.
    const __m256d unit =
        _mm256_or_pd(_mm256_set1_pd(1.0), _mm256_and_pd(x[c], sign));
    x[c] = _mm256_blendv_pd(_mm256_mul_pd(x[c], p[c]), unit, clamp);
  }
  return clamped;
}

/// Rounds a double lane to float and back, as a float intermediate.
inline __m256d through_float(__m256d v) {
  return _mm256_cvtps_pd(_mm256_cvtpd_ps(v));
}

}  // namespace

void add_aligned_avx2(const float* x, const float* y, std::size_t y_step,
                      float* out, std::size_t n, bool rne) {
  const auto lanes = [rne](__m256 xv, __m256 yv, int* special, int* edge) {
    const __m256i bx = _mm256_castps_si256(xv);
    const __m256i by = _mm256_castps_si256(yv);
    const __m256i fx = exp_field(bx);
    const __m256i fy = exp_field(by);
    *special = _mm256_movemask_ps(_mm256_castsi256_ps(
        _mm256_or_si256(_mm256_cmpeq_epi32(fx, splat(0xFF)),
                        _mm256_cmpeq_epi32(fy, splat(0xFF)))));
    // Sign-folded mantissas at their effective exponents (1 for
    // subnormals), then the smaller one shifted right (Eqn 6).
    const auto fold = [](__m256i bits, __m256i field) {
      const __m256i neg = _mm256_srai_epi32(bits, 31);
      return _mm256_sub_epi32(
          _mm256_xor_si256(magnitude(bits, field), neg), neg);
    };
    const __m256i ex = _mm256_max_epi32(fx, splat(1));
    const __m256i ey = _mm256_max_epi32(fy, splat(1));
    const __m256i e = _mm256_max_epi32(ex, ey);
    const __m256i s = _mm256_add_epi32(
        _mm256_srav_epi32(fold(bx, fx), _mm256_sub_epi32(e, ex)),
        _mm256_srav_epi32(fold(by, fy), _mm256_sub_epi32(e, ey)));
    __m256i mag = _mm256_abs_epi32(s);
    if (!rne) {
      // Truncation: a 25-bit magnitude drops its lowest bit.
      const __m256i wide = _mm256_cmpgt_epi32(mag, splat(0xFFFFFF));
      mag = _mm256_andnot_si256(_mm256_and_si256(wide, splat(1)), mag);
    }
    const __m256 scale = _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_sub_epi32(e, splat(23)), 23));
    const __m256 r = _mm256_mul_ps(_mm256_cvtepi32_ps(mag), scale);
    *edge = _mm256_movemask_ps(_mm256_castsi256_ps(
        _mm256_or_si256(_mm256_cmpgt_epi32(splat(26), e),
                        _mm256_cmpgt_epi32(e, splat(252)))));
    return _mm256_or_ps(r, _mm256_castsi256_ps(_mm256_and_si256(
                               s, splat(static_cast<std::int32_t>(
                                      0x80000000U)))));
  };
  binary_span(x, y, y_step, out, n, lanes, [rne](float a, float b) {
    return fp32_add_aligned(a, b, rne);
  });
}

void mul_sliced_avx2(const float* x, const float* y, std::size_t y_step,
                     float* out, std::size_t n, bool rne) {
  const auto lanes = [rne](__m256 xv, __m256 yv, int* special, int* edge) {
    const __m256i bx = _mm256_castps_si256(xv);
    const __m256i by = _mm256_castps_si256(yv);
    const __m256i fx = exp_field(bx);
    const __m256i fy = exp_field(by);
    *special = _mm256_movemask_ps(_mm256_castsi256_ps(
        _mm256_or_si256(_mm256_cmpeq_epi32(fx, splat(0xFF)),
                        _mm256_cmpeq_epi32(fy, splat(0xFF)))));
    const __m256i mx = magnitude(bx, fx);
    const __m256i my = magnitude(by, fy);
    // Biased exponent of 2^(be - 150) as a double: be - 150 + 1023 with
    // be = ex + ey - 142 (see fp32_mul_sliced).
    const __m256i dexp = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_max_epi32(fx, splat(1)),
                         _mm256_max_epi32(fy, splat(1))),
        splat(1023 - 150 - 142));
    const __m256i low_byte = _mm256_set1_epi64x(0xFF);
    const __m256i two52_bits = _mm256_set1_epi64x(0x4330000000000000LL);
    const __m256d two52 = _mm256_set1_pd(4503599627370496.0);
    const __m256i keep24 = _mm256_set1_epi64x(~((std::int64_t{1} << 29) - 1));
    int edge_bits = 0;
    const auto half = [&](__m128i hx, __m128i hy, __m128i hexp, int shift) {
      const __m256i x64 = _mm256_cvtepu32_epi64(hx);
      const __m256i y64 = _mm256_cvtepu32_epi64(hy);
      const __m256i sum = _mm256_srli_epi64(
          _mm256_sub_epi64(_mm256_mul_epu32(x64, y64),
                           _mm256_mul_epu32(_mm256_and_si256(x64, low_byte),
                                            _mm256_and_si256(y64, low_byte))),
          8);
      const __m256d sumd = _mm256_sub_pd(
          _mm256_castsi256_pd(_mm256_or_si256(sum, two52_bits)), two52);
      const __m256d scale = _mm256_castsi256_pd(
          _mm256_slli_epi64(_mm256_cvtepi32_epi64(hexp), 52));
      __m256d v = _mm256_mul_pd(sumd, scale);
      if (!rne) {
        v = _mm256_castsi256_pd(
            _mm256_and_si256(_mm256_castpd_si256(v), keep24));
        const __m256d sub = _mm256_and_pd(
            _mm256_cmp_pd(v, _mm256_set1_pd(0x1p-126), _CMP_LT_OQ),
            _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_OQ));
        edge_bits |= _mm256_movemask_pd(sub) << shift;
      }
      return v;
    };
    const __m256d lo =
        half(_mm256_castsi256_si128(mx), _mm256_castsi256_si128(my),
             _mm256_castsi256_si128(dexp), 0);
    const __m256d hi = half(_mm256_extracti128_si256(mx, 1),
                            _mm256_extracti128_si256(my, 1),
                            _mm256_extracti128_si256(dexp, 1), 4);
    *edge = edge_bits;
    const __m256i sign = _mm256_and_si256(
        _mm256_xor_si256(bx, by), splat(static_cast<std::int32_t>(0x80000000U)));
    return _mm256_or_ps(to_ps(lo, hi), _mm256_castsi256_ps(sign));
  };
  binary_span(x, y, y_step, out, n, lanes, [rne](float a, float b) {
    return fp32_mul_sliced(a, b, rne);
  });
}

void exp_avx2(const float* x, float shift, float* out, std::size_t n,
              bool split) {
  const __m128 vshift = _mm_set1_ps(shift);
  if (!split) {
    (void)unary_span(x, out, n, [&](FloatChains& f) {
      DoubleChains v;
      for (std::size_t c = 0; c < kChains; ++c) {
        v[c] = _mm256_cvtps_pd(_mm_sub_ps(f[c], vshift));
      }
      exp_pd(v);
      for (std::size_t c = 0; c < kChains; ++c) f[c] = _mm256_cvtpd_ps(v[c]);
      return 0U;
    });
    return;
  }
  (void)unary_span(x, out, n, [&](FloatChains& f) {
    DoubleChains frac;
    DoubleChains p;
    __m128i k[kChains];
    for (std::size_t c = 0; c < kChains; ++c) {
      const __m128 xc =
          clamp_ps(_mm_sub_ps(f[c], vshift), kExpSplitLo, 0.0F);
      const __m128 t = _mm_mul_ps(xc, _mm_set1_ps(kLog2e));
      const __m128 kf = _mm_floor_ps(t);
      frac[c] = _mm256_cvtps_pd(_mm_sub_ps(t, kf));
      k[c] = _mm_cvttps_epi32(kf);
      p[c] = _mm256_set1_pd(kExp2Poly[6]);
    }
    for (int i = 5; i >= 0; --i) {
      const __m256d coeff = _mm256_set1_pd(kExp2Poly[i]);
      for (std::size_t c = 0; c < kChains; ++c) {
        p[c] = _mm256_add_pd(_mm256_mul_pd(p[c], frac[c]), coeff);
      }
    }
    for (std::size_t c = 0; c < kChains; ++c) {
      // 2^k as a double, k in [-126, 0]: p * 2^k is exact, so it equals
      // ldexp(p, k).
      const __m256i kbits = _mm256_slli_epi64(
          _mm256_cvtepi32_epi64(_mm_add_epi32(k[c], _mm_set1_epi32(1023))),
          52);
      f[c] = _mm256_cvtpd_ps(_mm256_mul_pd(p[c], _mm256_castsi256_pd(kbits)));
    }
    return 0U;
  });
}

std::size_t tanh_avx2(const float* x, float* out, std::size_t n) {
  return unary_span(x, out, n, [](FloatChains& f) {
    DoubleChains v;
    for (std::size_t c = 0; c < kChains; ++c) v[c] = _mm256_cvtps_pd(f[c]);
    const unsigned clamped = tanh_pd(v);
    for (std::size_t c = 0; c < kChains; ++c) f[c] = _mm256_cvtpd_ps(v[c]);
    return clamped;
  });
}

std::size_t gelu_avx2(const float* x, float* out, std::size_t n) {
  return unary_span(x, out, n, [](FloatChains& f) {
    // inner = sqrt(2/pi) * (x + 0.044715 x^3), rounded to float for tanh.
    DoubleChains xd;
    DoubleChains t;
    for (std::size_t c = 0; c < kChains; ++c) {
      xd[c] = _mm256_cvtps_pd(f[c]);
      const __m256d cube = _mm256_mul_pd(
          _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(kGeluCubic), xd[c]),
                        xd[c]),
          xd[c]);
      t[c] = through_float(_mm256_mul_pd(_mm256_set1_pd(kGeluSqrt2OverPi),
                                         _mm256_add_pd(xd[c], cube)));
    }
    const unsigned clamped = tanh_pd(t);
    for (std::size_t c = 0; c < kChains; ++c) {
      // 0.5 * x * (1 + tanh), with tanh's result a float.
      f[c] = _mm256_cvtpd_ps(
          _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), xd[c]),
                        _mm256_add_pd(_mm256_set1_pd(1.0),
                                      through_float(t[c]))));
    }
    return clamped;
  });
}

void scale_avx2(float* x, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

void layernorm_map_avx2(const float* x, float mean, float inv,
                        const float* gamma, const float* beta, float* out,
                        std::size_t n) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vinv = _mm256_set1_ps(inv);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 v = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vinv),
        _mm256_loadu_ps(gamma + i));
    _mm256_storeu_ps(out + i, _mm256_add_ps(v, _mm256_loadu_ps(beta + i)));
  }
  for (; i < n; ++i) out[i] = (x[i] - mean) * inv * gamma[i] + beta[i];
}

#else  // !__AVX2__: never entered (vector_avx2_active() is false).

void add_aligned_avx2(const float*, const float*, std::size_t, float*,
                      std::size_t, bool) {}
void mul_sliced_avx2(const float*, const float*, std::size_t, float*,
                     std::size_t, bool) {}
void exp_avx2(const float*, float, float*, std::size_t, bool) {}
std::size_t tanh_avx2(const float*, float*, std::size_t) { return 0; }
std::size_t gelu_avx2(const float*, float*, std::size_t) { return 0; }
void scale_avx2(float*, float, std::size_t) {}
void layernorm_map_avx2(const float*, float, float, const float*,
                        const float*, float*, std::size_t) {}

#endif  // __AVX2__

}  // namespace bfpsim::detail
