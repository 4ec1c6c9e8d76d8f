// Polynomial coefficients and per-element operation tallies of the
// vector-unit approximations (nonlinear.hpp). Internal to the numerics
// library: the scalar references (nonlinear.cpp) and their lane-parallel
// bodies (vector_kernel_avx2.cpp) read the same constants, so the two
// cannot drift apart.
#pragma once

#include <cstdint>

namespace bfpsim::detail {

// Degree-16 Chebyshev expansion of exp(x) on [-20, 0] (max absolute error
// ~1.0e-6). The fp32 vector mode has only multipliers and adders — no
// float-to-int split for a 2^k range reduction — so exp is evaluated as a
// single polynomial over the clamped post-max-subtraction softmax range,
// with the numerically stable Clenshaw recurrence (safe in fp32, unlike a
// power-basis expansion of this degree).
inline constexpr double kExpCheb[17] = {
    0.12783333716342871,     0.24252536276891087,
    0.20716160177307499,     0.15966072205968088,
    0.1113651685372663,      0.070568587229867946,
    0.040796581307398473,    0.02161268966098975,
    0.010538815782012772,    0.0047505844097693239,
    0.001987763844428015,    0.00077505672091336198,
    0.00028263905841869263,  9.6722980708590102e-05,
    3.1159308576474402e-05,  9.4769166945480681e-06,
    2.7285584929127354e-06,
};
inline constexpr int kExpChebDeg = 16;
inline constexpr double kExpLo = -20.0;
inline constexpr double kExpHi = 0.0;

// Degree-6 polynomial for 2^f on f in [0,1) (Taylor-derived least-squares
// fit, max relative error ~2e-8) — used by the Softermax-style extension.
inline constexpr double kExp2Poly[7] = {
    1.0,
    0.693147180559945,
    0.240226506959101,
    0.0555041086648216,
    0.00961812910762848,
    0.00133335581464284,
    0.000154353039995640,
};
inline constexpr float kExpSplitLo = -87.0F;
inline constexpr float kLog2e = 1.4426950408889634F;

// Odd polynomial tanh(x) ~= x * P(x^2) on |x| <= 3.2, clamped to +/-1
// outside; degree-9 least-squares fit in u = x^2 (max abs error ~5.5e-4 on
// the fitted range; the clamp discontinuity at 3.2 is 1 - tanh(3.2) ~
// 3.3e-3, which the GELU form attenuates).
inline constexpr double kTanhPoly[10] = {
    0.9999244848374702,      -0.3315719436479399,
    0.12627884578548856,     -0.04229571519326887,
    0.01101614451260511,     -0.0020507620153218976,
    0.0002572186400761364,   -2.0418891445702453e-05,
    9.211914622945386e-07,   -1.793533945652337e-08,
};
inline constexpr float kTanhClamp = 3.2F;

// GELU's tanh form: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
inline constexpr double kGeluSqrt2OverPi = 0.7978845608028654;
inline constexpr double kGeluCubic = 0.044715;

// Operations one element charges. The span forms tally these in closed
// form per call; the scalar functions add them one element at a time.
struct ElementOps {
  std::uint64_t fp_mul;
  std::uint64_t fp_add;
  std::uint64_t exp_manip;
  std::uint64_t host_other;
};
/// approx_exp: range map (1 mul + 1 add), u = 2t (1 mul), Clenshaw (1 mul +
/// 2 adds per degree, then the final step), clamp + negative snap.
inline constexpr ElementOps kExpOps{2 + kExpChebDeg + 1,
                                    1 + 2 * kExpChebDeg + 2, 0, 2};
/// approx_exp_split: x log2(e), 6-step Horner, f = t - k, 2^k injection.
inline constexpr ElementOps kExpSplitOps{1 + 6, 1 + 6, 2, 0};
/// approx_tanh inside the fitted range: x^2, 9-step Horner, x * P; one
/// range check.
inline constexpr ElementOps kTanhPolyOps{1 + 9 + 1, 9, 0, 1};
/// approx_tanh clamped to +/-1: the range check only.
inline constexpr ElementOps kTanhClampOps{0, 0, 0, 1};
/// approx_gelu around its tanh: x^2, x^3, 0.044715*, sqrt(2/pi)*, 0.5 * x *
/// (6 mul) and x + ..., 1 + t (2 adds).
inline constexpr ElementOps kGeluOuterOps{6, 2, 0, 0};

}  // namespace bfpsim::detail
