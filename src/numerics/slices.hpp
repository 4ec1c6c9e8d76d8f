// fp32 mantissa slicing (Eqn 5) and the partial-product schedule used by the
// fp32-multiply mode of the processing unit (Fig. 5 (b)).
//
// The 24-bit fp32 mantissa is split into three unsigned 8-bit slices
//     man(i) = man[8i+7 : 8i],  i in {0,1,2}
// so that
//     man_x * man_y = sum_{i,j} man_x(i) * man_y(j) << 8(i+j).
// Of the nine partial products the least significant one ((0,0)) is omitted
// to fit the 8-row PE array; the remaining eight are computed one per PE row
// and summed through the DSP cascade. To keep the cascade a pure adder
// chain, inputs are *pre-shifted* (split between the X and Y operand ports)
// instead of post-shifting products.
//
// This header is the single source of truth for that schedule: both the
// golden software model and the cycle-accurate ProcessingUnit consume it.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "numerics/fp32.hpp"

namespace bfpsim {

/// Number of 8-bit slices per fp32 mantissa.
inline constexpr int kNumSlices = 3;
/// Partial products kept (3*3 minus the omitted least-significant one).
inline constexpr int kNumPartialProducts = 8;
/// The common factor-out shift: every kept product's raw shift 8(i+j) is at
/// least 8, so the hardware works with relative shifts 8(i+j) - 8.
inline constexpr int kDroppedShift = 8;

/// The three unsigned 8-bit slices of a 24-bit mantissa, LSB slice first.
struct MantissaSlices {
  std::array<std::uint16_t, kNumSlices> s{};

  std::uint16_t operator[](int i) const {
    return s[static_cast<std::size_t>(i)];
  }
};

/// Split a (< 2^24) mantissa into slices. Inverse of join_slices.
MantissaSlices slice_mantissa(std::uint32_t man24);

/// Reassemble a 24-bit mantissa from slices.
std::uint32_t join_slices(const MantissaSlices& sl);

/// One row's worth of the fp32-multiply schedule.
struct PartialProductTerm {
  int xi = 0;        ///< X-slice index (0 = LSB slice)
  int yj = 0;        ///< Y-slice index
  int rel_shift = 0; ///< 8*(xi+yj) - kDroppedShift, in {0,8,16,24}
  int pre_shift_x = 0;  ///< left-shift applied to the X slice at the PE input
  int pre_shift_y = 0;  ///< left-shift applied to the Y slice at the PE input
};

/// The fixed 8-entry schedule, one term per PE row (row 0 first). The
/// pre-shift split respects the DSP48E2 port widths: an 8-bit slice shifted
/// by pre_shift_x must fit the 27-bit A:D path and by pre_shift_y the 18-bit
/// B path (Section II-D: max total pre-shift is 24 bits).
const std::array<PartialProductTerm, kNumPartialProducts>&
fp32_mul_schedule();

/// Exact integer partial-product sum of the schedule:
///   sum = (man_x * man_y - man_x(0)*man_y(0)) >> 8
/// computed term-by-term exactly as the PE column does. Always a
/// non-negative value below 2^40.
std::uint64_t sliced_mantissa_product(std::uint32_t man_x,
                                      std::uint32_t man_y);

/// Reference fp32 multiply through the sliced datapath (Eqn 5): sign via
/// XOR, exponents added in the Exponent Unit, mantissa product from the
/// 8-term schedule, then normalization (RNE or truncation).
///
/// Bit-exact model of what the hardware computes; differs from IEEE a*b by
/// at most the dropped (0,0) partial product plus rounding. NaN/Inf inputs
/// are rejected (the accelerator never produces them; division & friends run
/// on the host per Section III-B).
float fp32_mul_sliced(float x, float y, bool round_nearest_even = true);

/// Reference fp32 add through the align-shift-add datapath (Eqn 6): the
/// smaller-exponent operand's signed mantissa is arithmetic-shifted right by
/// the exponent difference (pure truncation - no guard/round/sticky bits),
/// added in the PSU accumulator, and renormalized.
///
/// `acc_bits` models the accumulator carrier width.
float fp32_add_aligned(float x, float y, bool round_nearest_even = true,
                       int acc_bits = 32);

/// ---------------- span forms ----------------
///
/// out[i] = fp32_mul_sliced / fp32_add_aligned(x[i], y[i]) over whole
/// spans, into caller-owned storage. `out` may alias `x` or `y`; the
/// scalar overloads above are the golden reference, and these are
/// bit-identical to a loop over them (tests/test_slices.cpp pins it),
/// including throwing on the first NaN/Inf operand with the elements
/// before it written. Under the kSimd kernel tier with AVX2 they run eight
/// lanes at a time (vector_kernel.hpp); under every other tier they loop
/// the scalar reference. The `float y` overloads broadcast one operand.
void fp32_mul_sliced(std::span<const float> x, std::span<const float> y,
                     std::span<float> out, bool round_nearest_even = true);
void fp32_mul_sliced(std::span<const float> x, float y, std::span<float> out,
                     bool round_nearest_even = true);

/// Carriers below 26 bits can overflow (the aligned sum of two 24-bit
/// mantissas needs 26) and always loop the scalar reference, so they throw
/// exactly where it does.
void fp32_add_aligned(std::span<const float> x, std::span<const float> y,
                      std::span<float> out, bool round_nearest_even = true,
                      int acc_bits = 32);
void fp32_add_aligned(std::span<const float> x, float y,
                      std::span<float> out, bool round_nearest_even = true,
                      int acc_bits = 32);

}  // namespace bfpsim
