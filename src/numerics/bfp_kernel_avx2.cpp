// AVX2 tile-product and PSU kernels, isolated in their own translation unit
// so they can be compiled with -mavx2 while the rest of the binary stays
// baseline-ISA. bfp_kernel.cpp only calls in here after
// avx2_runtime_supported() confirms the CPU actually has AVX2, so one binary
// serves both CPU classes.
//
// Exactness: identical argument to the SSE2 kernel — _mm256_madd_epi16
// pair-sums int16 products into int32 lanes, and the int32-safety gate
// (checked before this kernel is ever selected) proves no pair sum or lane
// accumulation can reach 2^31. The final horizontal reduce is plain integer
// addition, so the result equals the scalar k-ordered sum bit-for-bit. The
// 8x8 reduce kernel also keeps the PSU accumulator in int32 lanes; it is
// only entered for the 32-bit carrier, where every accepted partial sum is
// an int32 too.
#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// Horizontal sum of the eight int32 lanes of a 256-bit vector.
inline std::int32_t hsum_epi32_256(__m256i v) {
  __m128i s =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// Horizontal sum of the four int32 lanes of a 128-bit vector.
inline std::int32_t hsum_epi32_128(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

}  // namespace

void tile_product_avx2(const std::int16_t* x, const std::int16_t* y,
                       const std::int16_t* yt, int rows, int kk, int cols,
                       std::int64_t* out);

void tile_product_avx2(const std::int16_t* x, const std::int16_t* y,
                       const std::int16_t* yt, int rows, int kk, int cols,
                       std::int64_t* out) {
  if (kk == 8 && cols == 8) {
    // bfp8's 8x8 tile, fully vertical: sign-extend the eight row-major Y
    // rows to int32 once (they all fit in registers), then each output row
    // is eight broadcast-multiply-accumulates — no horizontal sums, no
    // transpose. Exact: every product and the 8-deep int32 accumulation
    // are covered by the int32-safety gate.
    __m256i yrow[8];
    for (int k = 0; k < 8; ++k) {
      yrow[k] = _mm256_cvtepi16_epi32(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(y + static_cast<std::size_t>(k) * 8)));
    }
    for (int i = 0; i < rows; ++i) {
      // Broadcast each of the row's eight mantissas from registers: one
      // 16->32 convert, two lane swizzles, then an in-lane shuffle per
      // element (cheaper than eight memory set1 broadcasts).
      const __m256i xr32 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(x + static_cast<std::size_t>(i) * 8)));
      const __m256i xlo = _mm256_permute2x128_si256(xr32, xr32, 0x00);
      const __m256i xhi = _mm256_permute2x128_si256(xr32, xr32, 0x11);
      __m256i acc = _mm256_mullo_epi32(_mm256_shuffle_epi32(xlo, 0x00), yrow[0]);
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xlo, 0x55), yrow[1]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xlo, 0xAA), yrow[2]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xlo, 0xFF), yrow[3]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xhi, 0x00), yrow[4]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xhi, 0x55), yrow[5]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xhi, 0xAA), yrow[6]));
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_shuffle_epi32(xhi, 0xFF), yrow[7]));
      std::int64_t* orow = out + static_cast<std::size_t>(i) * 8;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(orow),
          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(orow + 4),
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc, 1)));
    }
    return;
  }
  if (kk == 8 && cols % 2 == 0) {
    // bfp8's 8x8 tile: one row of x is exactly one 128-bit load. Broadcast
    // it to both 256-bit lanes and multiply against *two* transposed Y
    // columns per madd — lane 0 reduces to dot(i,j), lane 1 to dot(i,j+1).
    for (int i = 0; i < rows; ++i) {
      const __m128i xr = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          x + static_cast<std::size_t>(i * kk)));
      const __m256i xv = _mm256_broadcastsi128_si256(xr);
      std::int64_t* orow = out + static_cast<std::size_t>(i * cols);
      for (int j = 0; j < cols; j += 2) {
        const __m256i yv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            yt + static_cast<std::size_t>(j * kk)));
        const __m256i p = _mm256_madd_epi16(xv, yv);
        orow[j] = hsum_epi32_128(_mm256_castsi256_si128(p));
        orow[j + 1] = hsum_epi32_128(_mm256_extracti128_si256(p, 1));
      }
    }
    return;
  }
  const int k16 = kk & ~15;
  for (int i = 0; i < rows; ++i) {
    const std::int16_t* xr = x + static_cast<std::size_t>(i * kk);
    std::int64_t* orow = out + static_cast<std::size_t>(i * cols);
    for (int j = 0; j < cols; ++j) {
      const std::int16_t* yr = yt + static_cast<std::size_t>(j * kk);
      __m256i acc = _mm256_setzero_si256();
      int k = 0;
      for (; k < k16; k += 16) {
        const __m256i xv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xr + k));
        const __m256i yv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yr + k));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
      }
      std::int32_t s = hsum_epi32_256(acc);
      for (; k < kk; k += 8) {
        const __m128i xv =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(xr + k));
        const __m128i yv =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(yr + k));
        s += hsum_epi32_128(_mm_madd_epi16(xv, yv));
      }
      orow[j] = s;
    }
  }
}

namespace {

/// 4-lane arithmetic shift right by a uniform count (AVX2 has no
/// vpsraq): asr(v, s) == ((v >>logical s) ^ m) - m with m = 1 << (63-s).
/// The xor re-plants the shifted-down sign bit, the subtract extends it.
inline __m256i asr_epi64(__m256i v, int s, __m256i m) {
  const __m256i u = _mm256_srl_epi64(v, _mm_cvtsi32_si128(s));
  return _mm256_sub_epi64(_mm256_xor_si256(u, m), m);
}

/// Load one staged 8x8 Y tile: row p holds, per column j, the int16 pair
/// (y[2p][j], y[2p+1][j]) (see interleave_tile8 in bfp_kernel.cpp).
inline void load_tile8(const std::int16_t* yi, __m256i yp[4]) {
  for (int p = 0; p < 4; ++p) {
    yp[p] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        yi + static_cast<std::size_t>(p) * 16));
  }
}

/// Row `xr` of an 8x8 tile product in int32: each x pair (x[2p], x[2p+1])
/// is broadcast from registers and one vpmaddwd against staged row p adds
/// both k-levels to all eight outputs at once.
inline __m256i tile8_row(const std::int16_t* xr, const __m256i yp[4]) {
  const __m256i xv = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(xr)));
  __m256i s = _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0x00), yp[0]);
  s = _mm256_add_epi32(s, _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0x55),
                                            yp[1]));
  s = _mm256_add_epi32(s, _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0xAA),
                                            yp[2]));
  return _mm256_add_epi32(
      s, _mm256_madd_epi16(_mm256_shuffle_epi32(xv, 0xFF), yp[3]));
}

}  // namespace

bool tile8_reduce_avx2(const BfpBlock* x, const std::int16_t* yi,
                       const std::int32_t* yexp, int bks, std::int64_t* out,
                       std::int32_t* out_exp);

/// One 8x8 output tile's whole k-reduction (Eqn 2 products, Eqn 3
/// merges) with a 32-bit PSU carrier held in eight int32 registers. `x` is
/// the tile's row of A blocks; `yi`/`yexp` are the tile's column of B
/// blocks, staged pair-interleaved and contiguous in bk. Exact because
/// every accepted partial sum is an int32 and the int32-safety gate bounds
/// every product by 2^29, so both shifted addends are int32 and their sum
/// leaves the 32-bit carrier iff the int32 add wraps (both addends share a
/// sign the sum lacks). Returns the overflow flag for the whole tile:
/// which k-block overflowed is unobservable, and after a wrap the lanes
/// only hold garbage the caller discards by throwing.
bool tile8_reduce_avx2(const BfpBlock* x, const std::int16_t* yi,
                       const std::int32_t* yexp, int bks, std::int64_t* out,
                       std::int32_t* out_exp) {
  __m256i yp[4];
  __m256i acc[8];
  load_tile8(yi, yp);
  const std::int16_t* xm = x[0].man.data();
  for (int i = 0; i < 8; ++i) {
    acc[i] = tile8_row(xm + static_cast<std::size_t>(i) * 8, yp);
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
    load_tile8(yi + static_cast<std::size_t>(bk) * 64, yp);
    xm = x[bk].man.data();
    for (int i = 0; i < 8; ++i) {
      const __m256i a = _mm256_sra_epi32(acc[i], shift_acc);
      const __m256i p = _mm256_sra_epi32(
          tile8_row(xm + static_cast<std::size_t>(i) * 8, yp), shift_p);
      const __m256i s = _mm256_add_epi32(a, p);
      bad = _mm256_or_si256(bad, _mm256_and_si256(_mm256_xor_si256(a, s),
                                                  _mm256_xor_si256(p, s)));
      acc[i] = s;
    }
    acc_exp = e;
  }
  for (int i = 0; i < 8; ++i) {
    std::int64_t* orow = out + static_cast<std::size_t>(i) * 8;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(orow),
                        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc[i])));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(orow + 4),
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc[i], 1)));
  }
  *out_exp = acc_exp;
  // Only the sign bit of each lane's wrap test is meaningful.
  const __m256i sign =
      _mm256_set1_epi32(std::numeric_limits<std::int32_t>::min());
  return _mm256_testz_si256(bad, sign) == 0;
}

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
void tile_product_avx2(const std::int16_t*, const std::int16_t*,
                       const std::int16_t*, int, int, int, std::int64_t*) {}
bool tile8_reduce_avx2(const BfpBlock*, const std::int16_t*,
                       const std::int32_t*, int, std::int64_t*,
                       std::int32_t*) {
  return false;
}
bool psu_merge_avx2(std::int64_t*, const std::int64_t*, std::size_t, int,
                    int, int) {
  return false;
}

#endif  // __AVX2__

}  // namespace detail
}  // namespace bfpsim
