#include "numerics/bfp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/bitops.hpp"
#include "common/contract.hpp"
#include "common/thread_pool.hpp"
#include "numerics/fp32.hpp"

namespace bfpsim {

void BfpFormat::validate() const {
  BFP_REQUIRE(mant_bits >= 2 && mant_bits <= 16,
              "BfpFormat: mant_bits must be in [2,16]");
  BFP_REQUIRE(exp_bits >= 4 && exp_bits <= 10,
              "BfpFormat: exp_bits must be in [4,10]");
  BFP_REQUIRE(rows >= 1 && rows <= 64 && cols >= 1 && cols <= 64,
              "BfpFormat: block dims must be in [1,64]");
}

BfpFormat bfp8_format() { return BfpFormat{}; }

float BfpBlock::value(int r, int c) const {
  return std::ldexp(static_cast<float>(at(r, c)), expb);
}

std::vector<float> BfpBlock::dequantize() const {
  std::vector<float> out(man.size());
  for (std::size_t i = 0; i < man.size(); ++i) {
    out[i] = std::ldexp(static_cast<float>(man[i]), expb);
  }
  return out;
}

bool BfpBlock::well_formed() const {
  if (expb < fmt.exp_min() || expb > fmt.exp_max()) return false;
  for (std::int16_t m : man) {
    if (m < fmt.mant_min() || m > fmt.mant_max()) return false;
  }
  return true;
}

std::int64_t round_shift(std::int64_t v, int shift, RoundMode round) {
  switch (round) {
    case RoundMode::kTruncate: return asr(v, shift);
    case RoundMode::kNearestEven: return asr_rne(v, shift);
    case RoundMode::kHalfAway: return asr_round_half_away(v, shift);
  }
  BFP_ASSERT(false);
  return 0;
}

namespace {

// Exact integer rounding of a double with |x| < 2^51. Adding 1.5 * 2^52
// leaves no fraction bits, so the FPU's default round-to-nearest-even
// rounds x to an integer, and subtracting the constant back is exact: the
// result equals std::nearbyint(x) without a libm call.
inline double round_nearest_even(double x) {
  constexpr double kShifter = 0x1.8p52;
  return (x + kShifter) - kShifter;
}

inline double round_floor(double x) {
  const double r = round_nearest_even(x);
  return r > x ? r - 1.0 : r;
}

/// The documented per-element rounding of a scaled value. Each mode is
/// non-decreasing in x, which is what lets the exponent search test only a
/// block's two extremes.
template <RoundMode kRound>
inline double round_scaled(double x) {
  if constexpr (kRound == RoundMode::kTruncate) {
    return round_floor(x);
  } else if constexpr (kRound == RoundMode::kNearestEven) {
    return round_nearest_even(x);
  } else {
    return round_floor(x + 0.5);
  }
}

/// 2^-e from its bit pattern; exact and normal for |e| <= 1022.
inline double pow2_neg(int e) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 - e) << 52);
}

/// Quantize the tile at `src` (row stride `stride`) into the row-major
/// mantissas `man` (fmt.elements() of them, zero on entry) and `expb`. Only the top-left valid_rows x
/// valid_cols elements are read; the rest of the block is zero padding.
///
/// One pass takes the tile's extremes and its largest magnitude (whose bit
/// pattern also flags NaN/Inf). Because rounding is monotone, round(v * s)
/// lies between the rounded extremes for every element, so an exponent fits
/// the whole tile iff it fits both extremes. The search starts at
/// L - mant_bits + 1, L = floor(log2(max |v|)): every smaller exponent
/// scales the largest magnitude to at least 2^mant_bits, which no mode
/// rounds into range, so the first exponent that fits is the smallest one.
/// Scaling a float by 2^-e in double is exact (|e| <= 512 keeps every
/// product normal), so each mantissa is round(v * 2^-e) exactly.
template <RoundMode kRound>
void quantize_tile(const float* src, std::size_t stride, int valid_rows,
                   int valid_cols, const BfpFormat& fmt, std::int16_t* man,
                   std::int32_t& expb) {
  float lo = 0.0F;
  float hi = 0.0F;
  std::uint32_t max_abs_bits = 0;
  for (int r = 0; r < valid_rows; ++r) {
    const float* row = src + static_cast<std::size_t>(r) * stride;
    for (int c = 0; c < valid_cols; ++c) {
      const float v = row[c];
      lo = v < lo ? v : lo;
      hi = v > hi ? v : hi;
      max_abs_bits =
          std::max(max_abs_bits, std::bit_cast<std::uint32_t>(v) & 0x7FFFFFFFU);
    }
  }
  BFP_REQUIRE(max_abs_bits < 0x7F800000U, "quantize_block: NaN/Inf input");
  if (max_abs_bits == 0) {
    expb = static_cast<std::int32_t>(fmt.exp_min());
    return;
  }

  const int biased = static_cast<int>(max_abs_bits >> kFp32FracBits);
  const int log2_max =
      biased != 0 ? biased - kFp32Bias
                  : msb_index(max_abs_bits) - kFp32Bias - kFp32FracBits + 1;
  const auto mant_max = static_cast<double>(fmt.mant_max());
  const auto mant_min = static_cast<double>(fmt.mant_min());
  int e = std::max(static_cast<int>(fmt.exp_min()),
                   log2_max - fmt.mant_bits + 1);
  double scale = 0.0;
  for (;; ++e) {
    BFP_REQUIRE(e <= fmt.exp_max(),
                "quantize_block: value too large for exponent range");
    scale = pow2_neg(e);
    if (round_scaled<kRound>(static_cast<double>(hi) * scale) <= mant_max &&
        round_scaled<kRound>(static_cast<double>(lo) * scale) >= mant_min) {
      break;
    }
  }

  expb = e;
  for (int r = 0; r < valid_rows; ++r) {
    const float* row = src + static_cast<std::size_t>(r) * stride;
    std::int16_t* mrow = man + static_cast<std::size_t>(r) * fmt.cols;
    for (int c = 0; c < valid_cols; ++c) {
      mrow[c] = static_cast<std::int16_t>(static_cast<std::int32_t>(
          round_scaled<kRound>(static_cast<double>(row[c]) * scale)));
    }
  }
#if BFPSIM_CONTRACTS
  BFPSIM_ENSURE(expb >= fmt.exp_min() && expb <= fmt.exp_max(),
                "quantize_block: shared exponent outside format range");
  for (int i = 0; i < fmt.elements(); ++i) {
    BFPSIM_ENSURE(man[i] >= fmt.mant_min() && man[i] <= fmt.mant_max(),
                  "quantize_block: mantissa outside format range");
  }
#endif
}

void quantize_tile(const float* src, std::size_t stride, int valid_rows,
                   int valid_cols, const BfpFormat& fmt, RoundMode round,
                   std::int16_t* man, std::int32_t& expb) {
  switch (round) {
    case RoundMode::kTruncate:
      return quantize_tile<RoundMode::kTruncate>(src, stride, valid_rows,
                                                 valid_cols, fmt, man, expb);
    case RoundMode::kNearestEven:
      return quantize_tile<RoundMode::kNearestEven>(
          src, stride, valid_rows, valid_cols, fmt, man, expb);
    case RoundMode::kHalfAway:
      return quantize_tile<RoundMode::kHalfAway>(src, stride, valid_rows,
                                                 valid_cols, fmt, man, expb);
  }
  BFP_ASSERT(false);
}

/// Block-grid walk shared by quantize_matrix and quantize_packed: calls
/// `tile(br, bc, src, stride, valid_rows, valid_cols)` for every block in
/// row-major grid order.
template <typename Tile>
void for_each_tile(std::span<const float> data, int rows, int cols,
                   const BfpFormat& fmt, Tile&& tile) {
  const int brs = (rows + fmt.rows - 1) / fmt.rows;
  const int bcs = (cols + fmt.cols - 1) / fmt.cols;
  for (int br = 0; br < brs; ++br) {
    const int r0 = br * fmt.rows;
    for (int bc = 0; bc < bcs; ++bc) {
      const int c0 = bc * fmt.cols;
      tile(br, bc, data.data() + static_cast<std::size_t>(r0) * cols + c0,
           static_cast<std::size_t>(cols), std::min(fmt.rows, rows - r0),
           std::min(fmt.cols, cols - c0));
    }
  }
}

/// Interleave one tile into `dst` (see PackedBfpMatrix).
template <typename T>
void pack_tile_as(const std::int16_t* man, int kk, int cols, T* dst) {
  const auto width = static_cast<std::size_t>(cols);
  for (int p = 0; p < (kk + 1) / 2; ++p) {
    const std::int16_t* even = man + static_cast<std::size_t>(2 * p) * width;
    const std::int16_t* odd = 2 * p + 1 < kk ? even + width : nullptr;
    T* row = dst + static_cast<std::size_t>(p) * 2 * width;
    for (std::size_t j = 0; j < width; ++j) {
      row[2 * j] = static_cast<T>(even[j]);
      row[2 * j + 1] = static_cast<T>(odd != nullptr ? odd[j] : 0);
    }
  }
}

/// An empty packed matrix of rows x cols (padded up to blocks) in `fmt`.
PackedBfpMatrix packed_shell(int rows, int cols, const BfpFormat& fmt) {
  PackedBfpMatrix p;
  p.fmt = fmt;
  p.rows = ((rows + fmt.rows - 1) / fmt.rows) * fmt.rows;
  p.cols = ((cols + fmt.cols - 1) / fmt.cols) * fmt.cols;
  const std::size_t tiles = static_cast<std::size_t>(p.block_rows()) *
                            static_cast<std::size_t>(p.block_cols());
  if (p.wide()) {
    p.man16.resize(tiles * p.tile_elems());
  } else {
    p.man8.resize(tiles * p.tile_elems());
  }
  p.expb.resize(tiles);
  return p;
}

/// Store one tile's row-major mantissas and exponent at grid slot (bk, bc).
void store_tile(PackedBfpMatrix& p, int bk, int bc, const std::int16_t* man,
                std::int32_t expb) {
  const std::size_t idx = p.tile_index(bk, bc);
  p.expb[idx] = expb;
  if (p.wide()) {
    pack_tile_as(man, p.fmt.rows, p.fmt.cols,
                 p.man16.data() + idx * p.tile_elems());
  } else {
    pack_tile_as(man, p.fmt.rows, p.fmt.cols,
                 p.man8.data() + idx * p.tile_elems());
  }
}

}  // namespace

BfpBlock quantize_block(std::span<const float> tile, const BfpFormat& fmt,
                        RoundMode round) {
  fmt.validate();
  BFP_REQUIRE(tile.size() == static_cast<std::size_t>(fmt.elements()),
              "quantize_block: tile size must equal rows*cols");
  BfpBlock out(fmt);
  quantize_tile(tile.data(), static_cast<std::size_t>(fmt.cols), fmt.rows,
                fmt.cols, fmt, round, out.man.data(), out.expb);
  return out;
}

std::vector<float> WideBlock::dequantize() const {
  std::vector<float> out(psu.size());
  for (std::size_t i = 0; i < psu.size(); ++i) {
    out[i] = static_cast<float>(
        std::ldexp(static_cast<double>(psu[i]), expb));
  }
  return out;
}

WideBlock bfp_matmul_block(const BfpBlock& x, const BfpBlock& y) {
  BFP_REQUIRE(x.fmt.cols == y.fmt.rows,
              "bfp_matmul_block: inner dimensions must match");
  WideBlock z(x.fmt.rows, y.fmt.cols);
  z.expb = x.expb + y.expb;
  for (int i = 0; i < x.fmt.rows; ++i) {
    for (int j = 0; j < y.fmt.cols; ++j) {
      std::int64_t s = 0;
      for (int k = 0; k < x.fmt.cols; ++k) {
        s += static_cast<std::int64_t>(x.at(i, k)) * y.at(k, j);
      }
      z.at(i, j) = s;
    }
  }
  return z;
}

void psu_accumulate(WideBlock& acc, const WideBlock& in, int psu_bits,
                    RoundMode round) {
  BFP_REQUIRE(acc.rows == in.rows && acc.cols == in.cols,
              "psu_accumulate: block shapes must match");
  BFP_REQUIRE(psu_bits >= 8 && psu_bits <= 62,
              "psu_accumulate: psu_bits must be in [8,62]");
  // Align the smaller-exponent operand right (Eqn 3). The result keeps the
  // larger exponent.
  const std::int32_t e = std::max(acc.expb, in.expb);
  const int shift_acc = static_cast<int>(e - acc.expb);
  const int shift_in = static_cast<int>(e - in.expb);
  // Truncation precondition: alignment only ever shifts right (drops low
  // bits); a negative shift would *invent* bits and is a simulator bug.
  BFPSIM_REQUIRE(shift_acc >= 0 && shift_in >= 0 &&
                     (shift_acc == 0 || shift_in == 0),
                 "psu_accumulate: exactly one operand may be down-aligned");
  for (std::size_t i = 0; i < acc.psu.size(); ++i) {
    const std::int64_t a = round_shift(acc.psu[i], shift_acc, round);
    const std::int64_t b = round_shift(in.psu[i], shift_in, round);
    const std::int64_t s = a + b;
    if (!fits_signed(s, psu_bits)) {
      throw HardwareContractError(
          "psu_accumulate: partial sum overflows " +
          std::to_string(psu_bits) + "-bit PSU carrier");
    }
    acc.psu[i] = s;
  }
  acc.expb = e;
}

BfpBlock normalize_block(const WideBlock& wide, const BfpFormat& fmt,
                         RoundMode round) {
  fmt.validate();
  BFP_REQUIRE(wide.rows == fmt.rows && wide.cols == fmt.cols,
              "normalize_block: shape must match format");
  // Smallest right-shift such that every rounded mantissa fits the format.
  int shift = 0;
  for (;; ++shift) {
    BFP_REQUIRE(shift <= 62, "normalize_block: unbounded shift");
    bool ok = true;
    for (std::int64_t v : wide.psu) {
      const std::int64_t q = round_shift(v, shift, round);
      if (q < fmt.mant_min() || q > fmt.mant_max()) {
        ok = false;
        break;
      }
    }
    if (ok) break;
  }
  BfpBlock out(fmt);
  const std::int64_t e = static_cast<std::int64_t>(wide.expb) + shift;
  BFP_REQUIRE(e >= fmt.exp_min() && e <= fmt.exp_max(),
              "normalize_block: exponent out of format range");
  out.expb = static_cast<std::int32_t>(e);
  for (std::size_t i = 0; i < wide.psu.size(); ++i) {
    out.man[i] = static_cast<std::int16_t>(
        round_shift(wide.psu[i], shift, round));
  }
  return out;
}

BfpBlock bfp_add_block(const BfpBlock& x, const BfpBlock& y,
                       RoundMode round) {
  BFP_REQUIRE(x.fmt.rows == y.fmt.rows && x.fmt.cols == y.fmt.cols,
              "bfp_add_block: shapes must match");
  WideBlock wx(x.fmt.rows, x.fmt.cols);
  wx.expb = x.expb;
  for (std::size_t i = 0; i < x.man.size(); ++i) wx.psu[i] = x.man[i];
  WideBlock wy(y.fmt.rows, y.fmt.cols);
  wy.expb = y.expb;
  for (std::size_t i = 0; i < y.man.size(); ++i) wy.psu[i] = y.man[i];
  psu_accumulate(wx, wy, /*psu_bits=*/32, RoundMode::kTruncate);
  return normalize_block(wx, x.fmt, round);
}

BfpMatrix quantize_matrix(std::span<const float> data, int rows, int cols,
                          const BfpFormat& fmt, RoundMode round) {
  fmt.validate();
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  data.size() == static_cast<std::size_t>(rows) * cols,
              "quantize_matrix: data size must equal rows*cols");
  BfpMatrix m;
  m.fmt = fmt;
  m.rows = ((rows + fmt.rows - 1) / fmt.rows) * fmt.rows;
  m.cols = ((cols + fmt.cols - 1) / fmt.cols) * fmt.cols;
  m.blocks.reserve(static_cast<std::size_t>(m.block_rows()) *
                   static_cast<std::size_t>(m.block_cols()));
  for_each_tile(data, rows, cols, fmt,
                [&](int, int, const float* src, std::size_t stride,
                    int valid_rows, int valid_cols) {
                  BfpBlock& b = m.blocks.emplace_back(fmt);
                  quantize_tile(src, stride, valid_rows, valid_cols, fmt,
                                round, b.man.data(), b.expb);
                });
  return m;
}

std::int32_t PackedBfpMatrix::mantissa(int r, int c) const {
  const std::size_t lane =
      tile_index(r / fmt.rows, c / fmt.cols) * tile_elems() +
      static_cast<std::size_t>((r % fmt.rows) / 2) * 2 *
          static_cast<std::size_t>(fmt.cols) +
      static_cast<std::size_t>(2 * (c % fmt.cols) + (r % fmt.rows) % 2);
  return wide() ? man16[lane] : man8[lane];
}

void pack_tile(const std::int16_t* man, int kk, int cols, std::int16_t* dst) {
  pack_tile_as(man, kk, cols, dst);
}

PackedBfpMatrix pack_matrix(const BfpMatrix& m) {
  m.fmt.validate();
  PackedBfpMatrix p = packed_shell(m.rows, m.cols, m.fmt);
  for (int bk = 0; bk < m.block_rows(); ++bk) {
    for (int bc = 0; bc < m.block_cols(); ++bc) {
      const BfpBlock& b = m.block(bk, bc);
      store_tile(p, bk, bc, b.man.data(), b.expb);
    }
  }
  return p;
}

PackedBfpMatrix quantize_packed(std::span<const float> data, int rows,
                                int cols, const QuantSpec& spec) {
  const BfpFormat& fmt = spec.fmt;
  fmt.validate();
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  data.size() == static_cast<std::size_t>(rows) * cols,
              "quantize_packed: data size must equal rows*cols");
  PackedBfpMatrix p = packed_shell(rows, cols, fmt);
  std::vector<std::int16_t> man(static_cast<std::size_t>(fmt.elements()));
  for_each_tile(data, rows, cols, fmt,
                [&](int bk, int bc, const float* src, std::size_t stride,
                    int valid_rows, int valid_cols) {
                  std::fill(man.begin(), man.end(), std::int16_t{0});
                  std::int32_t expb = 0;
                  quantize_tile(src, stride, valid_rows, valid_cols, fmt,
                                spec.round, man.data(), expb);
                  store_tile(p, bk, bc, man.data(), expb);
                });
  return p;
}

std::vector<float> bfp_gemm_reference(const BfpMatrix& a, const BfpMatrix& b,
                                      int logical_rows, int logical_cols,
                                      int psu_bits, ThreadPool* pool) {
  BFP_REQUIRE(a.cols == b.rows, "bfp_gemm_reference: inner dims must match");
  BFP_REQUIRE(logical_rows <= a.rows && logical_cols <= b.cols,
              "bfp_gemm_reference: logical dims exceed padded dims");
  const int brs = a.block_rows();
  const int bcs = b.block_cols();
  const int bks = a.block_cols();
  std::vector<float> out(static_cast<std::size_t>(logical_rows) *
                         logical_cols);
  // One task per output tile. Tiles write disjoint `out` regions and run
  // their k-reduction in ascending bk order, so the result does not depend
  // on which worker computes which tile.
  auto compute_tile = [&](std::size_t tile) {
    const int br = static_cast<int>(tile) / bcs;
    const int bc = static_cast<int>(tile) % bcs;
    WideBlock acc(a.fmt.rows, b.fmt.cols);
    acc.expb = std::numeric_limits<std::int32_t>::min() / 2;  // -inf-ish
    bool first = true;
    for (int bk = 0; bk < bks; ++bk) {
      WideBlock p = bfp_matmul_block(a.block(br, bk), b.block(bk, bc));
      if (first) {
        acc = std::move(p);
        first = false;
      } else {
        psu_accumulate(acc, p, psu_bits);
      }
    }
    for (int r = 0; r < a.fmt.rows; ++r) {
      const int gr = br * a.fmt.rows + r;
      if (gr >= logical_rows) break;
      for (int c = 0; c < b.fmt.cols; ++c) {
        const int gc = bc * b.fmt.cols + c;
        if (gc >= logical_cols) continue;
        out[static_cast<std::size_t>(gr) * logical_cols + gc] =
            static_cast<float>(
                std::ldexp(static_cast<double>(acc.at(r, c)), acc.expb));
      }
    }
  };
  const std::size_t tiles =
      static_cast<std::size_t>(brs) * static_cast<std::size_t>(bcs);
  if (pool != nullptr) {
    pool->parallel_for(tiles, compute_tile);
  } else {
    for (std::size_t t = 0; t < tiles; ++t) compute_tile(t);
  }
  return out;
}

std::string to_string(const BfpBlock& b) {
  std::ostringstream os;
  os << "BfpBlock{expb=" << b.expb << ", man=[";
  for (int r = 0; r < b.fmt.rows; ++r) {
    os << (r == 0 ? "[" : " [");
    for (int c = 0; c < b.fmt.cols; ++c) {
      os << b.at(r, c) << (c + 1 < b.fmt.cols ? ", " : "");
    }
    os << "]" << (r + 1 < b.fmt.rows ? "\n" : "");
  }
  os << "]}";
  return os.str();
}

}  // namespace bfpsim
