// Lane-parallel bodies of the fp32 vector span forms (slices.hpp,
// nonlinear.hpp), implemented in vector_kernel_avx2.cpp with -mavx2 and
// entered only when vector_avx2_active() holds. Internal to the numerics
// library: callers use the span forms, which route here under the kSimd
// kernel tier and loop the scalar reference under every other tier.
//
// Every body is bit-identical to its scalar reference, element for
// element. Each out[i] depends only on the inputs at index i, and a chunk
// is loaded before it is stored, so `out` may alias an input. Lanes the
// vector form cannot reproduce exactly (aligned-add exponents outside
// [26, 252], truncated multiplies that land in the subnormal range) are
// recomputed by the scalar function; a chunk holding a NaN/Inf operand
// runs the scalar function element by element, so it throws exactly where
// the scalar loop would.
#pragma once

#include <cstddef>

namespace bfpsim::detail {

/// True when the active kernel tier is kSimd and this build and CPU run
/// AVX2.
bool vector_avx2_active();

/// out[i] = fp32_add_aligned(x[i], y[i * y_step], rne) with a carrier of
/// 26 bits or more (the only widths every sum fits). y_step is 1 for a
/// span operand and 0 for a broadcast scalar.
void add_aligned_avx2(const float* x, const float* y, std::size_t y_step,
                      float* out, std::size_t n, bool rne);

/// out[i] = fp32_mul_sliced(x[i], y[i * y_step], rne).
void mul_sliced_avx2(const float* x, const float* y, std::size_t y_step,
                     float* out, std::size_t n, bool rne);

/// out[i] = approx_exp(x[i] - shift), or approx_exp_split when `split`.
void exp_avx2(const float* x, float shift, float* out, std::size_t n,
              bool split);

/// out[i] = approx_tanh(x[i]). Returns how many lanes took the |x| >= 3.2
/// clamp branch.
std::size_t tanh_avx2(const float* x, float* out, std::size_t n);

/// out[i] = approx_gelu(x[i]). Returns how many inner tanh lanes took the
/// clamp branch.
std::size_t gelu_avx2(const float* x, float* out, std::size_t n);

/// x[i] *= s (the softmax row normalization).
void scale_avx2(float* x, float s, std::size_t n);

/// out[i] = (x[i] - mean) * inv * gamma[i] + beta[i] (the LayerNorm map).
void layernorm_map_avx2(const float* x, float mean, float inv,
                        const float* gamma, const float* beta, float* out,
                        std::size_t n);

}  // namespace bfpsim::detail
