// Tests for fp32 mantissa slicing (Eqn 5) and the sliced multiply / aligned
// add datapaths, including ULP-error bounds against IEEE arithmetic.
#include "numerics/slices.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/dsp48e2.hpp"
#include "numerics/bfp_kernel.hpp"
#include "numerics/fp32.hpp"

namespace bfpsim {
namespace {

TEST(Slices, SliceJoinRoundTrip) {
  Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    const auto m = static_cast<std::uint32_t>(
        rng.uniform_int(0, (1 << 24) - 1));
    EXPECT_EQ(join_slices(slice_mantissa(m)), m);
  }
}

TEST(Slices, SliceValues) {
  const MantissaSlices s = slice_mantissa(0xABCDEFu);
  EXPECT_EQ(s[0], 0xEF);
  EXPECT_EQ(s[1], 0xCD);
  EXPECT_EQ(s[2], 0xAB);
}

TEST(Slices, ScheduleHasEightTermsCoveringAllButLsb) {
  const auto& sched = fp32_mul_schedule();
  bool seen[3][3] = {};
  for (const auto& t : sched) {
    EXPECT_FALSE(t.xi == 0 && t.yj == 0) << "LSB product must be omitted";
    EXPECT_FALSE(seen[t.xi][t.yj]) << "duplicate term";
    seen[t.xi][t.yj] = true;
    EXPECT_EQ(t.rel_shift, 8 * (t.xi + t.yj) - kDroppedShift);
    EXPECT_EQ(t.pre_shift_x + t.pre_shift_y, t.rel_shift);
  }
  int count = 0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (seen[i][j]) ++count;
    }
  }
  EXPECT_EQ(count, 8);
}

TEST(Slices, PreShiftedSlicesFitDspPorts) {
  // Section II-D: "the 27-bit & 18-bit input widths of DSP48E2 support such
  // pre-shifting without encountering overflow" — verify for the maximal
  // slice value 0xFF.
  for (const auto& t : fp32_mul_schedule()) {
    const std::int64_t x = std::int64_t{0xFF} << t.pre_shift_x;
    const std::int64_t y = std::int64_t{0xFF} << t.pre_shift_y;
    EXPECT_TRUE(fits_signed(x, kDspAWidth))
        << "xi=" << t.xi << " shift=" << t.pre_shift_x;
    EXPECT_TRUE(fits_signed(y, kDspBWidth))
        << "yj=" << t.yj << " shift=" << t.pre_shift_y;
  }
}

TEST(Slices, MaxTotalPreShiftIs24) {
  int max_shift = 0;
  for (const auto& t : fp32_mul_schedule()) {
    max_shift = std::max(max_shift, t.rel_shift);
  }
  EXPECT_EQ(max_shift, 24);  // Section II-D's stated maximum
}

TEST(Slices, SlicedProductEqualsFullProductMinusLsbTerm) {
  Rng rng(22);
  for (int i = 0; i < 5000; ++i) {
    const auto mx = static_cast<std::uint32_t>(
        rng.uniform_int(0, (1 << 24) - 1));
    const auto my = static_cast<std::uint32_t>(
        rng.uniform_int(0, (1 << 24) - 1));
    const std::uint64_t full =
        static_cast<std::uint64_t>(mx) * my;
    const std::uint64_t lsb = static_cast<std::uint64_t>(mx & 0xFF) *
                              (my & 0xFF);
    EXPECT_EQ(sliced_mantissa_product(mx, my), (full - lsb) >> 8);
  }
}

TEST(SlicedMul, ExactForSmallMantissas) {
  // Products whose exact result fits 24 bits and whose LSB slices are zero
  // are computed exactly.
  EXPECT_FLOAT_EQ(fp32_mul_sliced(2.0F, 3.0F), 6.0F);
  EXPECT_FLOAT_EQ(fp32_mul_sliced(-2.0F, 3.0F), -6.0F);
  EXPECT_FLOAT_EQ(fp32_mul_sliced(0.5F, 0.25F), 0.125F);
  EXPECT_FLOAT_EQ(fp32_mul_sliced(1.5F, -1.5F), -2.25F);
}

TEST(SlicedMul, ZeroHandling) {
  EXPECT_EQ(fp32_mul_sliced(0.0F, 123.456F), 0.0F);
  EXPECT_TRUE(std::signbit(fp32_mul_sliced(-0.0F, 2.0F)));
  EXPECT_TRUE(std::signbit(fp32_mul_sliced(5.0F, -0.0F)));
}

TEST(SlicedMul, RejectsSpecials) {
  EXPECT_THROW(
      fp32_mul_sliced(std::numeric_limits<float>::infinity(), 1.0F), Error);
  EXPECT_THROW(
      fp32_mul_sliced(1.0F, std::numeric_limits<float>::quiet_NaN()), Error);
}

TEST(SlicedMul, WithinOneUlpOfIeee) {
  // Dropping the (0,0) partial product perturbs the 48-bit product by less
  // than 2^16, i.e. below half an output ulp except at rounding boundaries:
  // the sliced result is within 1 ulp of the IEEE product.
  Rng rng(23);
  std::int64_t worst = 0;
  for (int i = 0; i < 20000; ++i) {
    const float x = random_normal_fp32(rng, 90, 160);
    const float y = random_normal_fp32(rng, 90, 160);
    const float ieee = x * y;
    if (!std::isfinite(ieee) || std::fabs(ieee) <
        std::numeric_limits<float>::min()) {
      continue;  // stay within the normal range for the ULP metric
    }
    const float got = fp32_mul_sliced(x, y, /*round_nearest_even=*/true);
    const std::int64_t d = ulp_distance(got, ieee);
    worst = std::max(worst, d);
    ASSERT_LE(d, 1) << fp32_fields(x) << " * " << fp32_fields(y);
  }
  // The error is not always zero (the dropped term matters sometimes).
  EXPECT_GE(worst, 0);
}

TEST(SlicedMul, TruncationIsAtMostTwoUlps) {
  Rng rng(24);
  for (int i = 0; i < 10000; ++i) {
    const float x = random_normal_fp32(rng, 90, 160);
    const float y = random_normal_fp32(rng, 90, 160);
    const float ieee = x * y;
    if (!std::isfinite(ieee) || std::fabs(ieee) <
        std::numeric_limits<float>::min()) {
      continue;
    }
    const float got = fp32_mul_sliced(x, y, /*round_nearest_even=*/false);
    ASSERT_LE(ulp_distance(got, ieee), 2);
  }
}

TEST(AlignedAdd, ExactWhenExponentsMatch) {
  EXPECT_FLOAT_EQ(fp32_add_aligned(1.5F, 1.25F), 2.75F);
  EXPECT_FLOAT_EQ(fp32_add_aligned(-1.5F, 1.25F), -0.25F);
  EXPECT_FLOAT_EQ(fp32_add_aligned(3.0F, -3.0F), 0.0F);
}

TEST(AlignedAdd, TruncationErrorBounded) {
  Rng rng(25);
  for (int i = 0; i < 20000; ++i) {
    const float x = random_normal_fp32(rng, 110, 140);
    const float y = random_normal_fp32(rng, 110, 140);
    const float ieee = x + y;
    const float got = fp32_add_aligned(x, y);
    if (ieee == 0.0F) {
      // Catastrophic cancellation: the aligned path also returns ~0.
      EXPECT_NEAR(got, 0.0F, 1e-30F);
      continue;
    }
    if (std::fabs(ieee) < std::numeric_limits<float>::min()) continue;
    // Heavy cancellation amplifies the dropped alignment bits arbitrarily
    // (no guard bits in this datapath — a documented deviation from IEEE);
    // bound the error only away from cancellation.
    if (std::fabs(ieee) < 1e-3F * std::max(std::fabs(x), std::fabs(y))) {
      continue;
    }
    // No guard/round/sticky bits: the alignment truncation costs up to one
    // unit of the pre-normalization grid, which renormalization amplifies
    // by the cancellation factor.
    const double cancel =
        std::max(std::fabs(x), std::fabs(y)) / std::fabs(ieee);
    const auto allowed = static_cast<std::int64_t>(2.0 + 2.0 * cancel);
    ASSERT_LE(ulp_distance(got, ieee), allowed)
        << fp32_fields(x) << " + " << fp32_fields(y);
  }
}

TEST(AlignedAdd, LargeExponentGapReturnsLargerOperand) {
  const float big = 1.0e20F;
  const float small = 1.0e-20F;
  EXPECT_FLOAT_EQ(fp32_add_aligned(big, small), big);
  EXPECT_FLOAT_EQ(fp32_add_aligned(small, big), big);
}

/// The aligned add as first written: both operands through decompose(),
/// the smaller exponent's signed mantissa shifted right. Sets `threw`
/// instead of throwing on NaN/Inf operands or accumulator overflow.
float aligned_add_mirror(float x, float y, bool rne, int acc_bits,
                         bool* threw) {
  *threw = false;
  const Fp32Parts px = decompose(x);
  const Fp32Parts py = decompose(y);
  if (px.is_nan || px.is_inf || py.is_nan || py.is_inf) {
    *threw = true;
    return 0.0F;
  }
  const std::int32_t e = std::max(px.biased_exp, py.biased_exp);
  const std::int64_t s = asr(px.signed_mantissa(), e - px.biased_exp) +
                         asr(py.signed_mantissa(), e - py.biased_exp);
  if (!fits_signed(s, acc_bits)) {
    *threw = true;
    return 0.0F;
  }
  const bool sign = s < 0;
  return compose_normalized(
      sign, e, sign ? static_cast<std::uint64_t>(-s) : static_cast<std::uint64_t>(s),
      rne);
}

/// A random fp32 of the given exponent field (0 = zero or subnormal).
float fp32_with_exp_field(Rng& rng, std::uint32_t exp_field) {
  return bits_to_float((rng.bits32() & 0x807FFFFFU) | (exp_field << 23));
}

/// Draws the i-th aligned-add operand pair: fully random finite pairs,
/// near exponents, exact and near-exact cancellation, subnormals, large
/// exponent skew, zeros of both signs, rare NaN/Inf, and mid-range normals.
void draw_add_pair(Rng& rng, int i, float* px, float* py) {
  float x = 0.0F;
  float y = 0.0F;
  switch (i % 8) {
    case 0:
      x = random_finite_fp32(rng);
      y = random_finite_fp32(rng);
      break;
    case 1: {
      const auto e = static_cast<std::uint32_t>(rng.uniform_int(1, 251));
      x = fp32_with_exp_field(rng, e);
      y = fp32_with_exp_field(
          rng, e + static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
      break;
    }
    case 2:
      x = random_finite_fp32(rng);
      y = rng.bernoulli(0.5)
              ? -x
              : bits_to_float(float_to_bits(-x) +
                              static_cast<std::uint32_t>(
                                  rng.uniform_int(0, 2)));
      if (!std::isfinite(y)) y = -x;
      break;
    case 3:
      x = fp32_with_exp_field(rng, 0);
      y = rng.bernoulli(0.5) ? fp32_with_exp_field(rng, 0)
                             : fp32_with_exp_field(rng, 1);
      break;
    case 4:
      x = fp32_with_exp_field(
          rng, static_cast<std::uint32_t>(rng.uniform_int(0, 30)));
      y = fp32_with_exp_field(
          rng, static_cast<std::uint32_t>(rng.uniform_int(200, 254)));
      if (rng.bernoulli(0.5)) std::swap(x, y);
      break;
    case 5:
      x = rng.bernoulli(0.5) ? 0.0F : -0.0F;
      y = rng.bernoulli(0.5) ? random_finite_fp32(rng)
                             : (rng.bernoulli(0.5) ? 0.0F : -0.0F);
      break;
    case 6: {
      // Throwing is slow; one pair in 128 carries a NaN or Inf.
      x = random_finite_fp32(rng);
      y = random_finite_fp32(rng);
      if (i % 128 == 6) {
        x = bits_to_float((rng.bernoulli(0.5) ? 0x7F800000U : 0x7FC00001U) |
                          (rng.bits32() & 0x80000000U));
        if (rng.bernoulli(0.5)) std::swap(x, y);
      }
      break;
    }
    default:
      x = random_normal_fp32(rng, 100, 150);
      y = random_normal_fp32(rng, 100, 150);
      break;
  }
  *px = x;
  *py = y;
}

/// Expected per-pair results of a scalar comparator: the value's bits, or
/// a throw.
struct Expected {
  std::vector<float> value;
  std::vector<char> throws;
};

template <typename Scalar>
Expected expect_each(const std::vector<float>& xs, const std::vector<float>& ys,
                     Scalar scalar) {
  Expected e;
  e.value.assign(xs.size(), 0.0F);
  e.throws.assign(xs.size(), 0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    bool threw = false;
    e.value[i] = scalar(xs[i], ys[i], &threw);
    e.throws[i] = threw ? 1 : 0;
  }
  return e;
}

/// Restores the process-wide kernel tier when a sweep ends or fails.
struct TierGuard {
  KernelTier saved = active_kernel_tier();
  ~TierGuard() { set_active_kernel_tier(saved); }
};

/// Feeds the pairs to a span form in consecutive spans of length 0, 1, 7,
/// 8 and 197 (every tail shape of the eight-lane body), writing to a fresh
/// buffer, in place over x, or in place over y in turn; `bcast` passes
/// y[first] as a broadcast scalar instead (the form under test then only
/// sees that value). Each span must match `want` bit for bit (memcmp), or
/// throw at the first throwing pair with the pairs before it written and
/// the rest untouched, as the scalar loop leaves them.
template <typename SpanOp, typename Scalar>
void expect_spans_match(const std::vector<float>& xs,
                        const std::vector<float>& ys, const Expected& want,
                        SpanOp span_op, Scalar bcast_scalar,
                        const std::string& what) {
  static constexpr std::array<std::size_t, 5> kLens = {0, 1, 7, 8, 197};
  std::vector<float> xb;
  std::vector<float> yb;
  std::vector<float> fresh;
  Expected bw;
  std::size_t call = 0;
  for (std::size_t first = 0; first < xs.size(); ++call) {
    const std::size_t len = std::min(kLens[call % kLens.size()],
                                     xs.size() - first);
    const int alias = static_cast<int>(call % 3);
    const bool bcast = call % 7 == 6;
    xb.assign(xs.begin() + static_cast<std::ptrdiff_t>(first),
              xs.begin() + static_cast<std::ptrdiff_t>(first + len));
    yb.assign(ys.begin() + static_cast<std::ptrdiff_t>(first),
              ys.begin() + static_cast<std::ptrdiff_t>(first + len));
    const Expected* ref = &want;
    std::size_t base = first;
    if (bcast && len > 0) {
      std::fill(yb.begin(), yb.end(), ys[first]);
      bw = expect_each(xb, yb, bcast_scalar);
      ref = &bw;
      base = 0;
    }
    fresh.assign(len, bits_to_float(0x7FC0DEADU));
    std::span<float> out = alias == 0   ? std::span<float>(fresh)
                           : alias == 1 ? std::span<float>(xb)
                                        : std::span<float>(yb);
    const std::vector<float> before(out.begin(), out.end());
    std::size_t bad = len;
    for (std::size_t k = 0; k < len; ++k) {
      if (ref->throws[base + k] != 0) {
        bad = k;
        break;
      }
    }
    bool threw = false;
    try {
      span_op(std::span<const float>(xb), std::span<const float>(yb),
              ys.empty() || len == 0 ? 0.0F : ys[first], bcast, out);
    } catch (const Error&) {
      threw = true;
    }
    ASSERT_EQ(threw, bad < len)
        << what << ": span at pair " << first << " length " << len;
    for (std::size_t k = 0; k < len; ++k) {
      const float expect = k < bad ? ref->value[base + k] : before[k];
      if (std::memcmp(&out[k], &expect, sizeof(float)) != 0) {
        FAIL() << what << ": pair " << first + k << " (" << fp32_fields(xs[first + k])
               << ", " << fp32_fields(ys[first + k]) << ") alias " << alias
               << " bcast " << bcast << ": got " << fp32_fields(out[k])
               << " want " << fp32_fields(expect);
      }
    }
    first += len;
  }
}

TEST(AlignedAdd, BitFieldDecodeMatchesDecomposeMirror) {
  // 10^6 operand pairs, bit-for-bit (or throw-for-throw) against the
  // decompose()-based mirror: fully random finite pairs, near exponents,
  // exact and near-exact cancellation, subnormals, zeros of both signs,
  // large exponent skew, specials, and narrow accumulators that overflow.
  // The third comparator is the span form, under every kernel tier and
  // both rounding flags.
  constexpr int kPairs = 1000000;
  Rng rng(2601);
  std::vector<float> xs(kPairs);
  std::vector<float> ys(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    float x = 0.0F;
    float y = 0.0F;
    draw_add_pair(rng, i, &x, &y);
    xs[static_cast<std::size_t>(i)] = x;
    ys[static_cast<std::size_t>(i)] = y;
    const bool rne = rng.bernoulli(0.5);
    const int acc_bits = (i % 16 == 7) ? static_cast<int>(rng.uniform_int(25, 27))
                                       : 32;
    bool mirror_threw = false;
    const float want = aligned_add_mirror(x, y, rne, acc_bits, &mirror_threw);
    bool threw = false;
    float got = 0.0F;
    try {
      got = fp32_add_aligned(x, y, rne, acc_bits);
    } catch (const Error&) {
      threw = true;
    }
    ASSERT_EQ(threw, mirror_threw)
        << fp32_fields(x) << " + " << fp32_fields(y) << " acc_bits "
        << acc_bits;
    if (!threw) {
      ASSERT_EQ(float_to_bits(got), float_to_bits(want))
          << fp32_fields(x) << " + " << fp32_fields(y) << " rne " << rne;
    }
  }

  TierGuard guard;
  for (const bool rne : {false, true}) {
    // Carriers of 26 bits and more never overflow; 25 and 24 do, and the
    // span form must throw exactly where the scalar does.
    for (const int acc_bits : {32, 26, 25, 24}) {
      const auto mirror = [=](float x, float y, bool* threw) {
        return aligned_add_mirror(x, y, rne, acc_bits, threw);
      };
      const bool narrow = acc_bits < 26;
      const std::size_t n = narrow ? 20000 : xs.size();
      const std::vector<float> sx(xs.begin(),
                                  xs.begin() + static_cast<std::ptrdiff_t>(n));
      const std::vector<float> sy(ys.begin(),
                                  ys.begin() + static_cast<std::ptrdiff_t>(n));
      const Expected want = expect_each(sx, sy, mirror);
      for (const KernelTier tier : available_kernel_tiers()) {
        set_active_kernel_tier(tier);
        expect_spans_match(
            sx, sy, want,
            [=](std::span<const float> x, std::span<const float> y,
                float yb, bool bcast, std::span<float> out) {
              if (bcast) {
                fp32_add_aligned(x, yb, out, rne, acc_bits);
              } else {
                fp32_add_aligned(x, y, out, rne, acc_bits);
              }
            },
            mirror,
            std::string("fp32_add_aligned span, tier ") + to_string(tier) +
                " rne " + std::to_string(rne) + " acc_bits " +
                std::to_string(acc_bits));
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// A random fp32 with an exponent field drawn from [lo, hi].
float fp32_in_exp_range(Rng& rng, int lo, int hi) {
  return fp32_with_exp_field(
      rng, static_cast<std::uint32_t>(rng.uniform_int(lo, hi)));
}

TEST(SlicedMul, SpanFormMatchesScalarOnMillionPairs) {
  // 10^6 operand pairs through the span form against the scalar
  // fp32_mul_sliced, memcmp-equal (or throw-for-throw) under every kernel
  // tier and both rounding flags: random finite pairs, products that land
  // subnormal or flush to zero, products that overflow to Inf, zeros of
  // both signs, subnormal operands, rare NaN/Inf, and mid-range normals.
  constexpr int kPairs = 1000000;
  Rng rng(2602);
  std::vector<float> xs(kPairs);
  std::vector<float> ys(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    float x = 0.0F;
    float y = 0.0F;
    switch (i % 8) {
      case 0:
        x = random_finite_fp32(rng);
        y = random_finite_fp32(rng);
        break;
      case 1:  // exponent sums at and below the normal range
        x = fp32_in_exp_range(rng, 1, 90);
        y = fp32_in_exp_range(rng, 1, 90);
        break;
      case 2:  // exponent sums at and above the overflow threshold
        x = fp32_in_exp_range(rng, 160, 254);
        y = fp32_in_exp_range(rng, 160, 254);
        break;
      case 3:
        x = rng.bernoulli(0.5) ? 0.0F : -0.0F;
        y = rng.bernoulli(0.5) ? random_finite_fp32(rng)
                               : (rng.bernoulli(0.5) ? 0.0F : -0.0F);
        if (rng.bernoulli(0.5)) std::swap(x, y);
        break;
      case 4:
        x = fp32_with_exp_field(rng, 0);
        y = fp32_in_exp_range(rng, 0, 254);
        break;
      case 5:
        x = random_finite_fp32(rng);
        y = random_finite_fp32(rng);
        if (i % 128 == 5) {
          x = bits_to_float((rng.bernoulli(0.5) ? 0x7F800000U : 0x7FC00001U) |
                            (rng.bits32() & 0x80000000U));
          if (rng.bernoulli(0.5)) std::swap(x, y);
        }
        break;
      case 6:  // exponent sums straddling the subnormal boundary
        x = fp32_in_exp_range(rng, 40, 80);
        y = fp32_in_exp_range(rng, 30, 100);
        break;
      default:
        x = random_normal_fp32(rng, 100, 150);
        y = random_normal_fp32(rng, 100, 150);
        break;
    }
    xs[static_cast<std::size_t>(i)] = x;
    ys[static_cast<std::size_t>(i)] = y;
  }

  TierGuard guard;
  for (const bool rne : {false, true}) {
    const auto scalar = [=](float x, float y, bool* threw) {
      *threw = false;
      try {
        return fp32_mul_sliced(x, y, rne);
      } catch (const Error&) {
        *threw = true;
        return 0.0F;
      }
    };
    const Expected want = expect_each(xs, ys, scalar);
    for (const KernelTier tier : available_kernel_tiers()) {
      set_active_kernel_tier(tier);
      expect_spans_match(
          xs, ys, want,
          [=](std::span<const float> x, std::span<const float> y, float yb,
              bool bcast, std::span<float> out) {
            if (bcast) {
              fp32_mul_sliced(x, yb, out, rne);
            } else {
              fp32_mul_sliced(x, y, out, rne);
            }
          },
          scalar,
          std::string("fp32_mul_sliced span, tier ") + to_string(tier) +
              " rne " + std::to_string(rne));
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace bfpsim
