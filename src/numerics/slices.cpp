#include "numerics/slices.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "numerics/vector_kernel.hpp"

namespace bfpsim {

MantissaSlices slice_mantissa(std::uint32_t man24) {
  BFP_REQUIRE(man24 < (std::uint32_t{1} << kFp32MantBits),
              "slice_mantissa: mantissa must fit 24 bits");
  MantissaSlices sl;
  for (int i = 0; i < kNumSlices; ++i) {
    sl.s[static_cast<std::size_t>(i)] =
        static_cast<std::uint16_t>((man24 >> (8 * i)) & 0xFF);
  }
  return sl;
}

std::uint32_t join_slices(const MantissaSlices& sl) {
  std::uint32_t m = 0;
  for (int i = 0; i < kNumSlices; ++i) {
    m |= static_cast<std::uint32_t>(sl[i]) << (8 * i);
  }
  return m;
}

const std::array<PartialProductTerm, kNumPartialProducts>&
fp32_mul_schedule() {
  // Pre-shift split per relative shift:
  //   0  -> (0, 0)
  //   8  -> (4, 4)   (the paper's "row 1 shifts X_c and Y_c by 4 bits")
  //   16 -> (8, 8)
  //   24 -> (16, 8)  (X path has the wider 27-bit port)
  // Port-width check: X slice 8b << 16 = 24b <= 26 usable bits of the signed
  // 27-bit A:D path; Y slice 8b << 8 = 16b <= 17 usable bits of the signed
  // 18-bit B path.
  static const std::array<PartialProductTerm, kNumPartialProducts> kSchedule =
      [] {
        auto split = [](int rel) -> std::pair<int, int> {
          switch (rel) {
            case 0: return {0, 0};
            case 8: return {4, 4};
            case 16: return {8, 8};
            case 24: return {16, 8};
            default: BFP_ASSERT(false); return {0, 0};
          }
        };
        std::array<PartialProductTerm, kNumPartialProducts> t{};
        int row = 0;
        for (int i = 0; i < kNumSlices; ++i) {
          for (int j = 0; j < kNumSlices; ++j) {
            if (i == 0 && j == 0) continue;  // omitted LSB partial product
            PartialProductTerm& term = t[static_cast<std::size_t>(row++)];
            term.xi = i;
            term.yj = j;
            term.rel_shift = 8 * (i + j) - kDroppedShift;
            const auto [sx, sy] = split(term.rel_shift);
            term.pre_shift_x = sx;
            term.pre_shift_y = sy;
          }
        }
        BFP_ASSERT(row == kNumPartialProducts);
        return t;
      }();
  return kSchedule;
}

std::uint64_t sliced_mantissa_product(std::uint32_t man_x,
                                      std::uint32_t man_y) {
  const MantissaSlices sx = slice_mantissa(man_x);
  const MantissaSlices sy = slice_mantissa(man_y);
  std::uint64_t sum = 0;
  for (const auto& t : fp32_mul_schedule()) {
    const std::uint64_t px = static_cast<std::uint64_t>(sx[t.xi])
                             << t.pre_shift_x;
    const std::uint64_t py = static_cast<std::uint64_t>(sy[t.yj])
                             << t.pre_shift_y;
    BFP_ASSERT(t.pre_shift_x + t.pre_shift_y == t.rel_shift);
    sum += px * py;
  }
  return sum;
}

float fp32_mul_sliced(float x, float y, bool round_nearest_even) {
  const Fp32Parts px = decompose(x);
  const Fp32Parts py = decompose(y);
  BFP_REQUIRE(!px.is_nan && !px.is_inf && !py.is_nan && !py.is_inf,
              "fp32_mul_sliced: NaN/Inf operands are not supported by the "
              "accelerator datapath");
  const bool sign = px.sign != py.sign;  // the XOR gate of Section II-B
  if (px.is_zero() || py.is_zero()) {
    return compose(sign, 1, 0);
  }
  const std::uint64_t sum = sliced_mantissa_product(px.mantissa, py.mantissa);
  // Weighting: x = (-1)^sx * man_x * 2^(ex-127-23), likewise for y, and the
  // schedule drops a factor 2^8, so
  //   x*y = (-1)^s * sum * 2^(ex+ey-254-46+8).
  // compose_normalized treats mantissa bit 23 as weight 2^(be-127), i.e.
  // value = m * 2^(be-150); solve be = ex + ey - 292 + 150.
  const std::int32_t be = px.biased_exp + py.biased_exp - 142;
  return compose_normalized(sign, be, sum, round_nearest_even);
}

namespace {

/// Effective biased exponent (subnormals at 1, as decompose() reports them)
/// and sign-folded 24-bit mantissa of a finite fp32, read from its bits.
struct AlignOperand {
  std::int32_t exp;
  std::int64_t man;
};

inline AlignOperand align_operand(std::uint32_t bits) {
  const std::uint32_t exp_field = (bits >> kFp32FracBits) & 0xFFU;
  const std::uint32_t hidden = exp_field != 0 ? (1U << kFp32FracBits) : 0U;
  const auto mag = static_cast<std::int64_t>(
      (bits & static_cast<std::uint32_t>(low_mask(kFp32FracBits))) | hidden);
  return {exp_field != 0 ? static_cast<std::int32_t>(exp_field) : 1,
          (bits >> 31) != 0 ? -mag : mag};
}

}  // namespace

float fp32_add_aligned(float x, float y, bool round_nearest_even,
                       int acc_bits) {
  const std::uint32_t bx = float_to_bits(x);
  const std::uint32_t by = float_to_bits(y);
  constexpr std::uint32_t kExpMask = 0xFFU << kFp32FracBits;
  BFP_REQUIRE((bx & kExpMask) != kExpMask && (by & kExpMask) != kExpMask,
              "fp32_add_aligned: NaN/Inf operands are not supported by the "
              "accelerator datapath");
  const AlignOperand px = align_operand(bx);
  const AlignOperand py = align_operand(by);
  // Align the smaller exponent's signed mantissa right (Eqn 6).
  const std::int32_t e = std::max(px.exp, py.exp);
  const std::int64_t s = asr(px.man, e - px.exp) + asr(py.man, e - py.exp);
  BFP_REQUIRE(fits_signed(s, acc_bits),
              "fp32_add_aligned: accumulator overflow");
  const bool sign = s < 0;
  const std::uint64_t mag = sign ? static_cast<std::uint64_t>(-s)
                                 : static_cast<std::uint64_t>(s);
  return compose_normalized(sign, e, mag, round_nearest_even);
}

namespace {

/// The narrowest carrier the lane-parallel aligned add cannot overflow.
constexpr int kLaneAccBits = 26;

using LaneFn = void (*)(const float*, const float*, std::size_t, float*,
                        std::size_t, bool);

/// Shared body of the span forms: y_step 1 walks `y`, 0 broadcasts y[0].
/// A null `lanes` always loops the scalar reference.
template <typename Scalar>
void binary_span(std::span<const float> x, const float* y,
                 std::size_t y_step, std::span<float> out, bool rne,
                 LaneFn lanes, Scalar scalar) {
  BFP_REQUIRE(out.size() == x.size(),
              "fp32 span op: output size must match the inputs");
  if (lanes != nullptr && detail::vector_avx2_active()) {
    lanes(x.data(), y, y_step, out.data(), x.size(), rne);
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = scalar(x[i], y[i * y_step]);
  }
}

}  // namespace

void fp32_mul_sliced(std::span<const float> x, std::span<const float> y,
                     std::span<float> out, bool round_nearest_even) {
  BFP_REQUIRE(y.size() == x.size(),
              "fp32_mul_sliced: operand spans must have equal sizes");
  binary_span(x, y.data(), 1, out, round_nearest_even,
              detail::mul_sliced_avx2, [=](float a, float b) {
                return fp32_mul_sliced(a, b, round_nearest_even);
              });
}

void fp32_mul_sliced(std::span<const float> x, float y, std::span<float> out,
                     bool round_nearest_even) {
  binary_span(x, &y, 0, out, round_nearest_even, detail::mul_sliced_avx2,
              [=](float a, float b) {
                return fp32_mul_sliced(a, b, round_nearest_even);
              });
}

void fp32_add_aligned(std::span<const float> x, std::span<const float> y,
                      std::span<float> out, bool round_nearest_even,
                      int acc_bits) {
  BFP_REQUIRE(y.size() == x.size(),
              "fp32_add_aligned: operand spans must have equal sizes");
  binary_span(x, y.data(), 1, out, round_nearest_even,
              acc_bits >= kLaneAccBits ? detail::add_aligned_avx2 : nullptr,
              [=](float a, float b) {
                return fp32_add_aligned(a, b, round_nearest_even, acc_bits);
              });
}

void fp32_add_aligned(std::span<const float> x, float y,
                      std::span<float> out, bool round_nearest_even,
                      int acc_bits) {
  binary_span(x, &y, 0, out, round_nearest_even,
              acc_bits >= kLaneAccBits ? detail::add_aligned_avx2 : nullptr,
              [=](float a, float b) {
                return fp32_add_aligned(a, b, round_nearest_even, acc_bits);
              });
}

}  // namespace bfpsim
