// AVX2 tile-product and PSU kernels, isolated in their own translation unit
// so they can be compiled with -mavx2 while the rest of the binary stays
// baseline-ISA. bfp_kernel.cpp only calls in here after
// avx2_runtime_supported() confirms the CPU actually has AVX2, so one binary
// serves both CPU classes.
//
// B tiles arrive in the packed pair-interleaved layout (PackedBfpMatrix),
// int8 or int16 lanes, and are widened to int16 on load.
//
// Exactness: _mm256_madd_epi16 pair-sums int16 products into int32 lanes,
// and the int32-safety gate (checked before this kernel is ever selected)
// proves no pair sum or lane accumulation can reach 2^31, so every output
// equals the scalar k-ordered sum bit-for-bit. The 8x8 reduce kernel also
// keeps the PSU accumulator in int32 lanes; it is only entered for the
// 32-bit carrier, where every accepted partial sum is an int32 too.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "numerics/bfp.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace bfpsim {
namespace detail {

bool avx2_runtime_supported() {
#if defined(__AVX2__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#if defined(__AVX2__)

namespace {

/// Sixteen packed B lanes starting at `y` (eight columns' k pairs), as
/// int16: int8 planes widen on load (vpmovsxbw).
inline __m256i load16_epi16(const std::int8_t* y) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(y)));
}
inline __m256i load16_epi16(const std::int16_t* y) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y));
}

/// Load one packed 8x8 B tile: row p holds, per column j, the int16 pair
/// (y[2p][j], y[2p+1][j]).
template <typename T>
inline void load_tile8(const T* yp, __m256i ypairs[4]) {
  for (int p = 0; p < 4; ++p) {
    ypairs[p] = load16_epi16(yp + static_cast<std::size_t>(p) * 16);
  }
}

/// Row `xr` of an 8x8 tile product in int32: each x pair (x[2p], x[2p+1])
/// is broadcast from registers and one vpmaddwd against pair row p adds
/// both k-levels to all eight outputs at once.
inline __m256i tile8_row(const std::int16_t* xr, const __m256i ypairs[4]) {
  const __m256i xv = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(xr)));
  __m256i s = _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0x00), ypairs[0]);
  s = _mm256_add_epi32(s, _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0x55),
                                            ypairs[1]));
  s = _mm256_add_epi32(s, _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0xAA),
                                            ypairs[2]));
  return _mm256_add_epi32(
      s, _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0xFF), ypairs[3]));
}

/// Store eight int32 lanes widened to int64.
inline void store_epi64x8(std::int64_t* out, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4),
                      _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
}

}  // namespace

/// One tile product over a packed B tile, vertical form: for each output
/// row and each group of eight columns, every x pair is broadcast as one
/// int32 and one vpmaddwd against the group's sixteen pair lanes adds both
/// k-levels to eight int32 outputs. Needs cols % 8 == 0 and an even kk;
/// 8x8 tiles keep all four pair rows in registers.
template <typename T>
void tile_product_avx2(const std::int16_t* x, const T* yp, int rows, int kk,
                       int cols, std::int64_t* out) {
  if (kk == 8 && cols == 8) {
    __m256i ypairs[4];
    load_tile8(yp, ypairs);
    for (int i = 0; i < rows; ++i) {
      store_epi64x8(out + static_cast<std::size_t>(i) * 8,
                    tile8_row(x + static_cast<std::size_t>(i) * 8, ypairs));
    }
    return;
  }
  const auto width = static_cast<std::size_t>(cols);
  for (int i = 0; i < rows; ++i) {
    const std::int16_t* xr = x + static_cast<std::size_t>(i * kk);
    for (std::size_t j = 0; j < width; j += 8) {
      __m256i acc = _mm256_setzero_si256();
      for (std::size_t k = 0; k < static_cast<std::size_t>(kk); k += 2) {
        std::int32_t pair = 0;  // x[k] low, x[k + 1] high
        std::memcpy(&pair, xr + k, sizeof pair);
        acc = _mm256_add_epi32(
            acc, _mm256_madd_epi16(_mm256_set1_epi32(pair),
                                   load16_epi16(yp + k * width + 2 * j)));
      }
      store_epi64x8(out + static_cast<std::size_t>(i) * width + j, acc);
    }
  }
}

template void tile_product_avx2<std::int8_t>(const std::int16_t*,
                                             const std::int8_t*, int, int,
                                             int, std::int64_t*);
template void tile_product_avx2<std::int16_t>(const std::int16_t*,
                                              const std::int16_t*, int, int,
                                              int, std::int64_t*);

namespace {

/// 4-lane arithmetic shift right by a uniform count (AVX2 has no
/// vpsraq): asr(v, s) == ((v >>logical s) ^ m) - m with m = 1 << (63-s).
/// The xor re-plants the shifted-down sign bit, the subtract extends it.
inline __m256i asr_epi64(__m256i v, int s, __m256i m) {
  const __m256i u = _mm256_srl_epi64(v, _mm_cvtsi32_si128(s));
  return _mm256_sub_epi64(_mm256_xor_si256(u, m), m);
}

}  // namespace

/// One 8x8 output tile's whole k-reduction (Eqn 2 products, Eqn 3
/// merges) with a 32-bit PSU carrier held in eight int32 registers. `x` is
/// the tile's row of A blocks; `yp`/`yexp` are the tile's column of packed
/// B tiles, contiguous in bk. Exact because every accepted partial sum is
/// an int32 and the int32-safety gate bounds every product by 2^29, so
/// both shifted addends are int32 and their sum leaves the 32-bit carrier
/// iff the int32 add wraps (both addends share a sign the sum lacks).
/// Returns the overflow flag for the whole tile: which k-block overflowed
/// is unobservable, and after a wrap the lanes only hold garbage the
/// caller discards by throwing.
template <typename T>
bool tile8_reduce_avx2(const BfpBlock* x, const T* yp,
                       const std::int32_t* yexp, int bks, std::int64_t* out,
                       std::int32_t* out_exp) {
  __m256i ypairs[4];
  __m256i acc[8];
  load_tile8(yp, ypairs);
  const std::int16_t* xm = x[0].man.data();
  for (int i = 0; i < 8; ++i) {
    acc[i] = tile8_row(xm + static_cast<std::size_t>(i) * 8, ypairs);
  }
  std::int32_t acc_exp = x[0].expb + yexp[0];
  __m256i bad = _mm256_setzero_si256();
  for (int bk = 1; bk < bks; ++bk) {
    // Eqn 3: align the smaller-exponent operand right with truncation.
    // vpsrad fills counts >= 32 with the sign, which is asr() for int32
    // values, so every shift count is served natively.
    const std::int32_t p_exp = x[bk].expb + yexp[bk];
    const std::int32_t e = std::max(acc_exp, p_exp);
    const __m128i shift_acc = _mm_cvtsi32_si128(e - acc_exp);
    const __m128i shift_p = _mm_cvtsi32_si128(e - p_exp);
    load_tile8(yp + static_cast<std::size_t>(bk) * 64, ypairs);
    xm = x[bk].man.data();
    for (int i = 0; i < 8; ++i) {
      const __m256i a = _mm256_sra_epi32(acc[i], shift_acc);
      const __m256i p = _mm256_sra_epi32(
          tile8_row(xm + static_cast<std::size_t>(i) * 8, ypairs), shift_p);
      const __m256i s = _mm256_add_epi32(a, p);
      bad = _mm256_or_si256(bad, _mm256_and_si256(_mm256_xor_si256(a, s),
                                                  _mm256_xor_si256(p, s)));
      acc[i] = s;
    }
    acc_exp = e;
  }
  for (int i = 0; i < 8; ++i) {
    store_epi64x8(out + static_cast<std::size_t>(i) * 8, acc[i]);
  }
  *out_exp = acc_exp;
  // Only the sign bit of each lane's wrap test is meaningful.
  const __m256i sign =
      _mm256_set1_epi32(std::numeric_limits<std::int32_t>::min());
  return _mm256_testz_si256(bad, sign) == 0;
}

template bool tile8_reduce_avx2<std::int8_t>(const BfpBlock*,
                                             const std::int8_t*,
                                             const std::int32_t*, int,
                                             std::int64_t*, std::int32_t*);
template bool tile8_reduce_avx2<std::int16_t>(const BfpBlock*,
                                              const std::int16_t*,
                                              const std::int32_t*, int,
                                              std::int64_t*, std::int32_t*);

bool psu_merge_avx2(std::int64_t* acc, const std::int64_t* prod,
                    std::size_t n, int shift_acc, int shift_p, int psu_bits);

bool psu_merge_avx2(std::int64_t* acc, const std::int64_t* prod,
                    std::size_t n, int shift_acc, int shift_p, int psu_bits) {
  const __m256i ma =
      _mm256_set1_epi64x(std::int64_t{1} << (63 - shift_acc));
  const __m256i mp = _mm256_set1_epi64x(std::int64_t{1} << (63 - shift_p));
  // fits_signed(s, b) <=> asr(s, b-1) is 0 or -1.
  const int sign_shift = psu_bits - 1;
  const __m256i msign =
      _mm256_set1_epi64x(std::int64_t{1} << (63 - sign_shift));
  const __m256i ones = _mm256_set1_epi64x(-1);
  __m256i bad = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prod + i));
    const __m256i s =
        _mm256_add_epi64(asr_epi64(a, shift_acc, ma), asr_epi64(p, shift_p, mp));
    const __m256i top = asr_epi64(s, sign_shift, msign);
    const __m256i ok = _mm256_or_si256(
        _mm256_cmpeq_epi64(top, _mm256_setzero_si256()),
        _mm256_cmpeq_epi64(top, ones));
    bad = _mm256_or_si256(bad, _mm256_xor_si256(ok, ones));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), s);
  }
  bool overflow = _mm256_movemask_epi8(bad) != 0;
  for (; i < n; ++i) {
    const std::int64_t s =
        (acc[i] >> shift_acc) + (prod[i] >> shift_p);
    const std::int64_t top = s >> sign_shift;
    overflow |= !(top == 0 || top == -1);
    acc[i] = s;
  }
  return overflow;
}

#else  // !defined(__AVX2__)

// Registered but never selected: avx2_runtime_supported() returns false, so
// these bodies are unreachable. They exist so the symbols resolve when the
// toolchain accepted -mavx2 at configure time but the macro test failed.
template <typename T>
void tile_product_avx2(const std::int16_t*, const T*, int, int, int,
                       std::int64_t*) {}
template void tile_product_avx2<std::int8_t>(const std::int16_t*,
                                             const std::int8_t*, int, int,
                                             int, std::int64_t*);
template void tile_product_avx2<std::int16_t>(const std::int16_t*,
                                              const std::int16_t*, int, int,
                                              int, std::int64_t*);
template <typename T>
bool tile8_reduce_avx2(const BfpBlock*, const T*, const std::int32_t*, int,
                       std::int64_t*, std::int32_t*) {
  return false;
}
template bool tile8_reduce_avx2<std::int8_t>(const BfpBlock*,
                                             const std::int8_t*,
                                             const std::int32_t*, int,
                                             std::int64_t*, std::int32_t*);
template bool tile8_reduce_avx2<std::int16_t>(const BfpBlock*,
                                              const std::int16_t*,
                                              const std::int32_t*, int,
                                              std::int64_t*, std::int32_t*);
bool psu_merge_avx2(std::int64_t*, const std::int64_t*, std::size_t, int,
                    int, int) {
  return false;
}

#endif  // __AVX2__

}  // namespace detail
}  // namespace bfpsim
