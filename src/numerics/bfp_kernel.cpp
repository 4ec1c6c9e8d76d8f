#include "numerics/bfp_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <string>

#include "common/arena.hpp"
#include "common/bitops.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "numerics/vector_kernel.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace bfpsim {

#if BFPSIM_KERNEL_AVX2
namespace detail {
// Implemented in bfp_kernel_avx2.cpp (compiled with -mavx2; only entered
// after a runtime CPUID check), for T = int8_t and int16_t B lanes.
bool avx2_runtime_supported();
/// One tile product over a packed B tile (cols % 8 == 0, kk even).
template <typename T>
void tile_product_avx2(const std::int16_t* x, const T* yp, int rows, int kk,
                       int cols, std::int64_t* out);
/// Vectorized Eqn-3 merge: acc[i] = asr(acc[i], shift_acc) +
/// asr(prod[i], shift_p), returning whether any sum escapes psu_bits.
/// Precondition: shifts in [0, 62] (the caller falls back to the scalar
/// loop for the degenerate huge-skew shifts asr() clamps).
bool psu_merge_avx2(std::int64_t* acc, const std::int64_t* prod,
                    std::size_t n, int shift_acc, int shift_p, int psu_bits);
/// One 8x8x8 output tile's whole k-reduction in a 32-bit PSU carrier.
/// `x` is the tile's row of A blocks; `yp`/`yexp` its column of packed B
/// tiles, contiguous in bk. Writes the tile's wide mantissas and exponent;
/// returns the overflow flag.
template <typename T>
bool tile8_reduce_avx2(const BfpBlock* x, const T* yp,
                       const std::int32_t* yexp, int bks, std::int64_t* out,
                       std::int32_t* out_exp);
}  // namespace detail
#endif

namespace {

/// Every tier computes out[i*cols + j] = sum_k x[i*kk + k] * y[k][j] from
/// a row-major A tile and a packed B tile `yp` (PackedBfpMatrix's
/// pair-interleaved order: y[k][j] sits at lane (k/2)*2*cols + 2j + k%2).
template <typename T>
using TileFn = void (*)(const std::int16_t* x, const T* yp, int rows, int kk,
                        int cols, std::int64_t* out);

/// kScalar: the reference-shaped triple loop (int64 accumulator, k
/// innermost) on raw pointers — the pre-vectorization baseline.
template <typename T>
void tile_product_scalar(const std::int16_t* x, const T* yp, int rows,
                         int kk, int cols, std::int64_t* out) {
  const auto width = static_cast<std::size_t>(cols);
  const auto depth = static_cast<std::size_t>(kk);
  for (std::size_t i = 0; i < static_cast<std::size_t>(rows); ++i) {
    const std::int16_t* xr = x + i * depth;
    for (std::size_t j = 0; j < width; ++j) {
      std::int64_t s = 0;
      for (std::size_t k = 0; k < depth; ++k) {
        // Pair row k/2 starts at lane (k & ~1) * width.
        s += static_cast<std::int64_t>(xr[k]) *
             yp[(k & ~std::size_t{1}) * width + 2 * j + (k & 1)];
      }
      out[i * width + j] = s;
    }
  }
}

/// kBlocked: a strength-reduced vertical walk over the pair rows. Each x
/// pair scales one pair row into a per-row accumulator array, so every
/// inner loop runs over contiguous lanes. `Acc` is int32 when the format's
/// mantissa width proves 2^(mbx+mby-2) * kk < 2^31 (pair sums included),
/// else int64 (a 16-bit mantissa pair can overflow int32).
template <typename T, typename Acc>
void tile_product_blocked(const std::int16_t* x, const T* yp, int rows,
                          int kk, int cols, std::int64_t* out) {
  Acc acc[64];  // BfpFormat caps cols at 64
  const auto width = static_cast<std::size_t>(cols);
  for (int i = 0; i < rows; ++i) {
    const std::int16_t* xr = x + static_cast<std::size_t>(i * kk);
    std::fill_n(acc, width, Acc{0});
    for (std::size_t k = 0; k < static_cast<std::size_t>(kk); k += 2) {
      const Acc x0 = xr[k];
      const Acc x1 = k + 1 < static_cast<std::size_t>(kk) ? Acc{xr[k + 1]}
                                                          : Acc{0};
      const T* row = yp + k * width;
      for (std::size_t j = 0; j < width; ++j) {
        acc[j] += x0 * row[2 * j] + x1 * row[2 * j + 1];
      }
    }
    std::copy_n(acc, width, out + static_cast<std::size_t>(i) * width);
  }
}

#if defined(__SSE2__)

/// Eight packed B lanes starting at `y`, as int16.
inline __m128i load8_epi16(const std::int8_t* y) {
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(y));
  return _mm_srai_epi16(_mm_unpacklo_epi8(b, b), 8);  // sign-extend
}
inline __m128i load8_epi16(const std::int16_t* y) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(y));
}

/// kSimd (SSE2): vertical form over the pair rows. Each x pair is
/// broadcast as one int32 and one _mm_madd_epi16 against four columns'
/// pairs adds both k-levels to four int32 outputs. Exact: pair sums and
/// the lane accumulation stay under 2^31 by the int32-safety gate. Column
/// tails past a multiple of 4 run the same sums in scalar code. Requires
/// kk % 8 == 0 (checked at tier resolution).
template <typename T>
void tile_product_sse2(const std::int16_t* x, const T* yp, int rows, int kk,
                       int cols, std::int64_t* out) {
  const auto width = static_cast<std::size_t>(cols);
  const std::size_t c4 = width & ~std::size_t{3};
  for (int i = 0; i < rows; ++i) {
    const std::int16_t* xr = x + static_cast<std::size_t>(i * kk);
    std::int64_t* orow = out + static_cast<std::size_t>(i) * width;
    for (std::size_t j = 0; j < c4; j += 4) {
      __m128i acc = _mm_setzero_si128();
      for (std::size_t k = 0; k < static_cast<std::size_t>(kk); k += 2) {
        const __m128i xp = _mm_set1_epi32(static_cast<std::int32_t>(
            static_cast<std::uint16_t>(xr[k]) |
            (static_cast<std::uint32_t>(static_cast<std::uint16_t>(xr[k + 1]))
             << 16)));
        const __m128i yv = load8_epi16(yp + k * width + 2 * j);
        acc = _mm_add_epi32(acc, _mm_madd_epi16(xp, yv));
      }
      alignas(16) std::int32_t lanes[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
      for (std::size_t l = 0; l < 4; ++l) orow[j + l] = lanes[l];
    }
    for (std::size_t j = c4; j < width; ++j) {
      std::int32_t s = 0;
      for (std::size_t k = 0; k < static_cast<std::size_t>(kk); k += 2) {
        const T* pr = yp + k * width;
        s += xr[k] * pr[2 * j] + xr[k + 1] * pr[2 * j + 1];
      }
      orow[j] = s;
    }
  }
}

#elif defined(__ARM_NEON)

/// Eight columns' (even, odd) pair lanes starting at `y`, deinterleaved
/// into the even-k and odd-k rows as int16.
inline int16x8x2_t load_pairs(const std::int8_t* y) {
  const int8x8x2_t b = vld2_s8(y);
  return {{vmovl_s8(b.val[0]), vmovl_s8(b.val[1])}};
}
inline int16x8x2_t load_pairs(const std::int16_t* y) { return vld2q_s16(y); }

/// kSimd (NEON): vertical form over the pair rows. vld2 splits eight
/// columns' pairs into the even and odd k row, and vmlal_n_s16 widens each
/// against its broadcast x mantissa into int32 lanes. Same int32-safety
/// argument as SSE2; column tails past a multiple of 8 run in scalar code.
template <typename T>
void tile_product_neon(const std::int16_t* x, const T* yp, int rows, int kk,
                       int cols, std::int64_t* out) {
  const auto width = static_cast<std::size_t>(cols);
  const int c8 = cols & ~7;
  for (int i = 0; i < rows; ++i) {
    const std::int16_t* xr = x + static_cast<std::size_t>(i * kk);
    std::int64_t* orow = out + static_cast<std::size_t>(i) * width;
    for (int j = 0; j < c8; j += 8) {
      int32x4_t lo = vdupq_n_s32(0);
      int32x4_t hi = vdupq_n_s32(0);
      for (int p = 0; p < kk / 2; ++p) {
        const int16x8x2_t y = load_pairs(
            yp + static_cast<std::size_t>(p) * 2 * width +
            static_cast<std::size_t>(2 * j));
        lo = vmlal_n_s16(lo, vget_low_s16(y.val[0]), xr[2 * p]);
        hi = vmlal_n_s16(hi, vget_high_s16(y.val[0]), xr[2 * p]);
        lo = vmlal_n_s16(lo, vget_low_s16(y.val[1]), xr[2 * p + 1]);
        hi = vmlal_n_s16(hi, vget_high_s16(y.val[1]), xr[2 * p + 1]);
      }
      for (int l = 0; l < 4; ++l) {
        orow[j + l] = vgetq_lane_s32(lo, 0);
        lo = vextq_s32(lo, lo, 1);
        orow[j + 4 + l] = vgetq_lane_s32(hi, 0);
        hi = vextq_s32(hi, hi, 1);
      }
    }
    for (int j = c8; j < cols; ++j) {
      std::int32_t s = 0;
      for (int p = 0; p < kk / 2; ++p) {
        const T* pr = yp + static_cast<std::size_t>(p) * 2 * width;
        s += xr[2 * p] * pr[2 * j] + xr[2 * p + 1] * pr[2 * j + 1];
      }
      orow[j] = s;
    }
  }
}

#endif  // __SSE2__ / __ARM_NEON

bool simd_compiled() {
#if defined(__SSE2__) || defined(__ARM_NEON)
  return true;
#else
  return false;
#endif
}

bool avx2_usable() {
#if BFPSIM_KERNEL_AVX2
  static const bool ok = detail::avx2_runtime_supported();
  return ok;
#else
  return false;
#endif
}

/// Exactness proof for 32-bit product accumulation: |x*y| <= 2^(mbx+mby-2)
/// per product, kk of them, plus one bit of slack for the SIMD pairwise
/// sums — all under 2^31.
bool int32_safe(int mant_bits_sum, int kk) {
  const int lg = std::bit_width(static_cast<unsigned>(std::max(kk, 1)));
  return mant_bits_sum - 2 + lg <= 30;
}

enum class Impl { kScalar, kBlocked32, kBlocked64, kSimd128, kAvx2 };

struct Resolved {
  Impl impl = Impl::kScalar;
  /// AVX2 + 8x8 tiles: the GEMM may use the int32 reduce kernel.
  bool tile8 = false;
  KernelTier effective = KernelTier::kScalar;
};

/// Pick the implementation for a (mantissa-width, inner-dim) pair:
/// degrades kSimd -> kBlocked when the vector path cannot serve the
/// format, never the other way.
Resolved resolve_kernel(int mant_bits_sum, int kk, int cols,
                        KernelTier requested) {
  Resolved r;
  if (requested == KernelTier::kScalar) return r;
  const bool i32 = int32_safe(mant_bits_sum, kk);
  if (requested == KernelTier::kSimd && i32 && kk % 8 == 0 &&
      kernel_tier_available(KernelTier::kSimd)) {
    r.effective = KernelTier::kSimd;
    r.impl = Impl::kSimd128;
#if BFPSIM_KERNEL_AVX2
    if (avx2_usable() && cols % 8 == 0) {
      r.impl = Impl::kAvx2;
      r.tile8 = kk == 8 && cols == 8;
    }
#endif
    return r;
  }
  r.impl = i32 ? Impl::kBlocked32 : Impl::kBlocked64;
  r.effective = KernelTier::kBlocked;
  return r;
}

template <typename T>
TileFn<T> tile_fn(Impl impl) {
  switch (impl) {
    case Impl::kScalar: return tile_product_scalar<T>;
    case Impl::kBlocked32: return tile_product_blocked<T, std::int32_t>;
    case Impl::kBlocked64: return tile_product_blocked<T, std::int64_t>;
    case Impl::kSimd128:
#if defined(__SSE2__)
      return tile_product_sse2<T>;
#elif defined(__ARM_NEON)
      return tile_product_neon<T>;
#else
      break;  // kernel_tier_available(kSimd) is false here
#endif
    case Impl::kAvx2:
#if BFPSIM_KERNEL_AVX2
      return detail::tile_product_avx2<T>;
#else
      break;
#endif
  }
  BFP_ASSERT(false);
  return tile_product_scalar<T>;
}

std::atomic<KernelTier>& active_tier_slot() {
  static std::atomic<KernelTier> tier{best_kernel_tier()};
  return tier;
}

}  // namespace

const char* to_string(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar: return "scalar";
    case KernelTier::kBlocked: return "blocked";
    case KernelTier::kSimd: return "simd";
  }
  return "?";
}

bool kernel_tier_available(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
    case KernelTier::kBlocked:
      return true;
    case KernelTier::kSimd:
      return simd_compiled() || avx2_usable();
  }
  return false;
}

std::vector<KernelTier> available_kernel_tiers() {
  std::vector<KernelTier> tiers{KernelTier::kScalar, KernelTier::kBlocked};
  if (kernel_tier_available(KernelTier::kSimd)) {
    tiers.push_back(KernelTier::kSimd);
  }
  return tiers;
}

KernelTier best_kernel_tier() {
  return kernel_tier_available(KernelTier::kSimd) ? KernelTier::kSimd
                                                  : KernelTier::kBlocked;
}

KernelTier active_kernel_tier() {
  return active_tier_slot().load(std::memory_order_relaxed);
}

void set_active_kernel_tier(KernelTier tier) {
  BFP_REQUIRE(kernel_tier_available(tier),
              "set_active_kernel_tier: tier not available on this build/CPU");
  active_tier_slot().store(tier, std::memory_order_relaxed);
}

bool detail::vector_avx2_active() {
  return active_kernel_tier() == KernelTier::kSimd && avx2_usable();
}

KernelTier effective_kernel_tier(const BfpFormat& fmt, KernelTier requested) {
  return resolve_kernel(2 * fmt.mant_bits, fmt.cols, fmt.cols, requested)
      .effective;
}

void bfp_tile_product_into(const BfpBlock& x, const BfpBlock& y,
                           KernelTier tier, WideBlock& out) {
  BFP_REQUIRE(x.fmt.cols == y.fmt.rows,
              "bfp_tile_product: inner dimensions must match");
  const int rows = x.fmt.rows;
  const int kk = x.fmt.cols;
  const int cols = y.fmt.cols;
  out.rows = rows;
  out.cols = cols;
  out.expb = x.expb + y.expb;
  out.psu.resize(static_cast<std::size_t>(rows) *
                 static_cast<std::size_t>(cols));

  const Resolved kr =
      resolve_kernel(x.fmt.mant_bits + y.fmt.mant_bits, kk, cols, tier);
  Arena& arena = scratch_arena();
  ArenaScope scope(&arena);
  std::int16_t* yp = arena.alloc_array<std::int16_t>(
      static_cast<std::size_t>((kk + 1) / 2) * 2 *
      static_cast<std::size_t>(cols));
  pack_tile(y.man.data(), kk, cols, yp);
  tile_fn<std::int16_t>(kr.impl)(x.man.data(), yp, rows, kk, cols,
                                 out.psu.data());
}

WideBlock bfp_tile_product(const BfpBlock& x, const BfpBlock& y,
                           KernelTier tier) {
  WideBlock out;
  bfp_tile_product_into(x, y, tier, out);
  return out;
}

namespace {

/// The one GEMM walk, over a packed B operand whose mantissa lanes are T.
template <typename T>
std::vector<float> gemm_walk(const BfpMatrix& a, const PackedBfpMatrix& b,
                             const T* plane, int logical_rows,
                             int logical_cols, int psu_bits, KernelTier tier,
                             ThreadPool* pool) {
  const int rows = a.fmt.rows;
  const int kk = a.fmt.cols;
  const int cols = b.fmt.cols;
  const int brs = a.block_rows();
  const int bcs = b.block_cols();
  const int bks = a.block_cols();
  const std::size_t tiles =
      static_cast<std::size_t>(brs) * static_cast<std::size_t>(bcs);
  const std::size_t tile_elems =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  const std::size_t y_lanes = b.tile_elems();
  // Same contract as the reference: psu_accumulate checks its carrier
  // width on a tile's first real accumulation, which every tile reaches
  // exactly when there are two or more k-blocks.
  if (bks >= 2 && tiles > 0) {
    BFP_REQUIRE(psu_bits >= 8 && psu_bits <= 62,
                "psu_accumulate: psu_bits must be in [8,62]");
  }

  const Resolved kr =
      resolve_kernel(a.fmt.mant_bits + b.fmt.mant_bits, kk, cols, tier);
  const TileFn<T> fn = tile_fn<T>(kr.impl);
#if BFPSIM_KERNEL_AVX2
  // The PSU merge is tier-independent datapath, but kScalar is kept
  // reference-shaped end to end so the bench baseline stays honest.
  const bool avx2_merge =
      kr.effective != KernelTier::kScalar && avx2_usable();
  // The paper's 32-bit carrier on 8x8x8 tiles fits int32 lanes: the whole
  // k-walk of a tile runs in registers. Every other carrier width and
  // block shape takes the int64 route below.
  const bool reduce8 = kr.tile8 && rows == 8 && psu_bits == 32;
#endif

  std::vector<float> out(static_cast<std::size_t>(logical_rows) *
                         static_cast<std::size_t>(logical_cols));
  // One task per output tile, exactly like bfp_gemm_reference: tiles write
  // disjoint `out` regions, each tile's k-reduction runs in ascending bk
  // order with the same truncating PSU alignment and overflow contract.
  // The wide scratch is per-worker and reused across tiles (no per-product
  // WideBlock churn). A tile's column of B tiles is contiguous in bk.
  auto compute_tile = [&](std::size_t tile) {
    thread_local std::vector<std::int64_t> acc_buf;
    thread_local std::vector<std::int64_t> prod_buf;
    if (acc_buf.size() < tile_elems) {
      acc_buf.resize(tile_elems);
      prod_buf.resize(tile_elems);
    }
    std::int64_t* acc = acc_buf.data();
    std::int64_t* prod = prod_buf.data();

    const int br = static_cast<int>(tile) / bcs;
    const int bc = static_cast<int>(tile) % bcs;
    const std::size_t col = b.tile_index(0, bc);
    const T* yp = plane + col * y_lanes;
    const std::int32_t* yexp = b.expb.data() + col;
    std::int32_t acc_exp = 0;
    // The overflow test is folded to one flag per k-block (per tile in the
    // reduce kernel): which element or k-block overflowed is unobservable
    // (the exception carries only psu_bits, and the scratch dies with the
    // throw), so deferring it is behaviour-identical to the reference.
    bool overflow = false;
#if BFPSIM_KERNEL_AVX2
    if (reduce8) {
      overflow = detail::tile8_reduce_avx2(&a.block(br, 0), yp, yexp, bks,
                                           acc, &acc_exp);
    } else
#endif
    {
      for (int bk = 0; bk < bks && !overflow; ++bk) {
        const BfpBlock& xb = a.block(br, bk);
        const T* ybk = yp + static_cast<std::size_t>(bk) * y_lanes;
        const std::int32_t p_exp = xb.expb + yexp[bk];
        if (bk == 0) {
          fn(xb.man.data(), ybk, rows, kk, cols, acc);
          acc_exp = p_exp;
          continue;
        }
        // Eqn 3: align the smaller-exponent operand right with truncation;
        // the sum keeps the larger exponent and must fit the PSU carrier.
        const std::int32_t e = std::max(acc_exp, p_exp);
        const int shift_acc = static_cast<int>(e - acc_exp);
        const int shift_p = static_cast<int>(e - p_exp);
        fn(xb.man.data(), ybk, rows, kk, cols, prod);
#if BFPSIM_KERNEL_AVX2
        if (avx2_merge && shift_acc <= 62 && shift_p <= 62) {
          overflow = detail::psu_merge_avx2(acc, prod, tile_elems, shift_acc,
                                            shift_p, psu_bits);
        } else
#endif
        {
          for (std::size_t idx = 0; idx < tile_elems; ++idx) {
            const std::int64_t s =
                asr(acc[idx], shift_acc) + asr(prod[idx], shift_p);
            overflow |= !fits_signed(s, psu_bits);
            acc[idx] = s;
          }
        }
        acc_exp = e;
      }
    }
    if (overflow) {
      throw HardwareContractError(
          "psu_accumulate: partial sum overflows " +
          std::to_string(psu_bits) + "-bit PSU carrier");
    }
    // Dequantizing writeback. int64 -> double conversion rounds exactly as
    // in the reference; after that, multiplying by an exact power of two
    // only shifts the exponent, so wide * 2^acc_exp == ldexp(wide,
    // acc_exp) bit for bit whenever the product stays normal. |wide| is in
    // [1, 2^62] and |acc_exp| < 960 keeps every product inside
    // [2^-959, 2^1022] — comfortably normal — so one ldexp(1.0, e) per
    // tile replaces one libm call per element. Outside the window, fall
    // back to per-element ldexp (subnormal/overflow rounding preserved).
    const bool fast_scale = acc_exp > -960 && acc_exp < 960;
    const double scale = fast_scale ? std::ldexp(1.0, acc_exp) : 0.0;
    for (int r = 0; r < rows; ++r) {
      const int gr = br * rows + r;
      if (gr >= logical_rows) break;
      for (int c = 0; c < cols; ++c) {
        const int gc = bc * cols + c;
        if (gc >= logical_cols) continue;
        const double wide =
            static_cast<double>(acc[static_cast<std::size_t>(r * cols + c)]);
        out[static_cast<std::size_t>(gr) *
                static_cast<std::size_t>(logical_cols) +
            static_cast<std::size_t>(gc)] =
            static_cast<float>(fast_scale ? wide * scale
                                          : std::ldexp(wide, acc_exp));
      }
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(tiles, compute_tile);
  } else {
    for (std::size_t t = 0; t < tiles; ++t) compute_tile(t);
  }
  return out;
}

}  // namespace

std::vector<float> bfp_gemm_packed(const BfpMatrix& a,
                                   const PackedBfpMatrix& b, int logical_rows,
                                   int logical_cols, int psu_bits,
                                   KernelTier tier, ThreadPool* pool) {
  BFP_REQUIRE(a.cols == b.rows, "bfp_gemm_dispatch: inner dims must match");
  BFP_REQUIRE(logical_rows <= a.rows && logical_cols <= b.cols,
              "bfp_gemm_dispatch: logical dims exceed padded dims");
  BFP_REQUIRE(a.fmt.cols == b.fmt.rows,
              "bfp_gemm_dispatch: block inner dimensions must match");
  return b.wide() ? gemm_walk(a, b, b.man16.data(), logical_rows,
                              logical_cols, psu_bits, tier, pool)
                  : gemm_walk(a, b, b.man8.data(), logical_rows,
                              logical_cols, psu_bits, tier, pool);
}

std::vector<float> bfp_gemm_dispatch(const BfpMatrix& a, const BfpMatrix& b,
                                     int logical_rows, int logical_cols,
                                     int psu_bits, KernelTier tier,
                                     ThreadPool* pool) {
  BFP_REQUIRE(a.cols == b.rows, "bfp_gemm_dispatch: inner dims must match");
  return bfp_gemm_packed(a, pack_matrix(b), logical_rows, logical_cols,
                         psu_bits, tier, pool);
}

}  // namespace bfpsim
