// The packed bfp8 B operand (PackedBfpMatrix) and its owners.
//
//  * Differential: the GEMM over a packed B equals bfp_gemm_reference bit
//    for bit under every available tier, with no pool and with pools of 1
//    and 3 workers, for ragged shapes, tensor-shard column slices, block
//    shapes other than 8x8 and mantissas wider than 8 bits (int16 lanes);
//    an overflowing 32-bit PSU throws the same HardwareContractError.
//  * Ownership: a VitModel packs its static weights on the first bfp8
//    forward and never for forward_reference; Session::deploy hands its
//    model the packs it quantized for the device image; a ClusterExecutor
//    borrowing a model packs nothing of its own.
//  * Concurrency: the first forwards of one VitModel and one
//    ClusterExecutor run from several pool workers at once (the lazy
//    pack) and produce the serial bits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster_executor.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "numerics/bfp.hpp"
#include "numerics/bfp_kernel.hpp"
#include "runtime/session.hpp"
#include "transformer/model.hpp"

namespace bfpsim {
namespace {

/// Rows of normal values at per-row scales 2^-10 .. 2^10.
std::vector<float> mixed_operand(Rng& rng, int rows, int cols) {
  std::vector<float> v(static_cast<std::size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    const int scale = static_cast<int>(rng.uniform_int(-10, 10));
    for (int c = 0; c < cols; ++c) {
      v[static_cast<std::size_t>(r) * cols + c] =
          std::ldexp(rng.normal(0.0F, 1.0F), scale);
    }
  }
  return v;
}

/// Columns [c0, c0 + w) of a row-major rows x cols matrix.
std::vector<float> columns(const std::vector<float>& m, int rows, int cols,
                           int c0, int w) {
  std::vector<float> out(static_cast<std::size_t>(rows) * w);
  for (int r = 0; r < rows; ++r) {
    std::memcpy(out.data() + static_cast<std::size_t>(r) * w,
                m.data() + static_cast<std::size_t>(r) * cols + c0,
                static_cast<std::size_t>(w) * sizeof(float));
  }
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The packed GEMM under every tier and pool size equals `want`.
void expect_packed_matches(const BfpMatrix& am, const PackedBfpMatrix& bp,
                           int m, int n, int psu_bits,
                           const std::vector<float>& want,
                           const std::string& where) {
  ThreadPool one(1);
  ThreadPool three(3);
  for (const KernelTier tier : available_kernel_tiers()) {
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one,
                             &three}) {
      const std::vector<float> got =
          bfp_gemm_packed(am, bp, m, n, psu_bits, tier, pool);
      ASSERT_TRUE(same_bits(got, want))
          << where << " tier " << to_string(tier) << " pool "
          << (pool == nullptr ? 0 : pool->size());
    }
  }
}

TEST(PackedOperand, LayoutHoldsTheQuantizedMantissas) {
  // pack_matrix and quantize_packed agree with quantize_matrix element by
  // element, including the zero padding of ragged edges, odd tile heights
  // and int16 lanes.
  Rng rng(401);
  for (const auto& [mant_bits, rows, cols] :
       {std::tuple{8, 8, 8}, std::tuple{12, 8, 8}, std::tuple{8, 5, 4},
        std::tuple{16, 3, 16}}) {
    BfpFormat fmt = bfp8_format();
    fmt.mant_bits = mant_bits;
    fmt.rows = rows;
    fmt.cols = cols;
    const int r = 19;
    const int c = 21;
    const std::vector<float> w = mixed_operand(rng, r, c);
    const BfpMatrix q = quantize_matrix(w, r, c, fmt);
    const PackedBfpMatrix direct =
        quantize_packed(w, r, c, {fmt, RoundMode::kNearestEven});
    const PackedBfpMatrix packed = pack_matrix(q);
    ASSERT_EQ(direct.rows, q.rows);
    ASSERT_EQ(direct.cols, q.cols);
    EXPECT_EQ(direct.wide(), mant_bits > 8);
    EXPECT_EQ(direct.man8, packed.man8);
    EXPECT_EQ(direct.man16, packed.man16);
    EXPECT_EQ(direct.expb, packed.expb);
    for (int i = 0; i < q.rows; ++i) {
      for (int j = 0; j < q.cols; ++j) {
        ASSERT_EQ(direct.mantissa(i, j),
                  q.block(i / rows, j / cols).at(i % rows, j % cols))
            << "format " << mant_bits << "b " << rows << "x" << cols
            << " element (" << i << ", " << j << ")";
      }
    }
    for (int bk = 0; bk < q.block_rows(); ++bk) {
      for (int bc = 0; bc < q.block_cols(); ++bc) {
        EXPECT_EQ(direct.expb[direct.tile_index(bk, bc)],
                  q.block(bk, bc).expb);
      }
    }
  }
  // 8x8 bfp8: one int8 per element plus one int32 exponent per 64.
  const PackedBfpMatrix p = quantize_packed(
      mixed_operand(rng, 64, 64), 64, 64, {bfp8_format(), RoundMode::kNearestEven});
  EXPECT_EQ(p.bytes(), 64u * 64u + 64u * 4u);
}

TEST(PackedOperand, GemmMatchesReferenceEveryTierAndPool) {
  // m, k and n off the block grid, several k-blocks (the PSU merge), and
  // every rounding mode the quantizer has.
  const struct {
    int m, k, n;
  } dims[] = {{1, 1, 1}, {7, 13, 5}, {17, 40, 23}, {33, 9, 64}, {24, 64, 8}};
  int case_id = 0;
  for (const auto& d : dims) {
    for (const RoundMode round : {RoundMode::kNearestEven,
                                  RoundMode::kTruncate,
                                  RoundMode::kHalfAway}) {
      Rng rng(static_cast<std::uint64_t>(500 + case_id++));
      const std::vector<float> a = mixed_operand(rng, d.m, d.k);
      const std::vector<float> b = mixed_operand(rng, d.k, d.n);
      const BfpFormat fmt = bfp8_format();
      const BfpMatrix am = quantize_matrix(a, d.m, d.k, fmt, round);
      const BfpMatrix bm = quantize_matrix(b, d.k, d.n, fmt, round);
      const std::vector<float> want =
          bfp_gemm_reference(am, bm, d.m, d.n, 32);
      const std::string where = std::to_string(d.m) + "x" +
                                std::to_string(d.k) + "x" +
                                std::to_string(d.n);
      expect_packed_matches(am, quantize_packed(b, d.k, d.n, {fmt, round}),
                            d.m, d.n, 32, want, where);
      // The BfpMatrix entry is the same walk after a pack.
      for (const KernelTier tier : available_kernel_tiers()) {
        ASSERT_TRUE(same_bits(
            bfp_gemm_dispatch(am, bm, d.m, d.n, 32, tier), want))
            << where;
      }
    }
  }
}

TEST(PackedOperand, WideMantissasAndOtherBlockShapes) {
  // The design-space formats: 10-16 bit mantissas take int16 lanes (and
  // the int64 route once the int32 proof fails), 4x4 and 16x16 blocks and
  // A blocks taller than B's run the general tile kernels, column counts
  // off a multiple of 8 the 128-bit vector kernel and its scalar column
  // tail, and odd tile heights the zero pair row. Wide formats use a
  // 40- or 48-bit carrier, as the ablation does.
  struct Case {
    int mant_bits, a_rows, inner, cols, psu_bits;
  };
  const Case cases[] = {{12, 8, 8, 8, 40},   {16, 8, 8, 8, 48},
                        {10, 8, 8, 8, 32},   {8, 4, 4, 4, 32},
                        {8, 16, 16, 16, 32}, {8, 16, 8, 8, 32},
                        {6, 4, 8, 8, 24},    {8, 8, 8, 12, 32},
                        {8, 8, 16, 6, 32},   {7, 5, 3, 5, 32}};
  int case_id = 0;
  for (const Case& c : cases) {
    BfpFormat fa = bfp8_format();
    fa.mant_bits = c.mant_bits;
    fa.rows = c.a_rows;
    fa.cols = c.inner;
    BfpFormat fb = fa;
    fb.rows = c.inner;
    fb.cols = c.cols;
    Rng rng(static_cast<std::uint64_t>(600 + case_id++));
    const int m = 2 * c.a_rows + 3;
    const int k = 3 * c.inner + 1;
    const int n = 2 * c.cols + 5;
    const std::vector<float> a = mixed_operand(rng, m, k);
    const std::vector<float> b = mixed_operand(rng, k, n);
    const BfpMatrix am = quantize_matrix(a, m, k, fa);
    const BfpMatrix bm = quantize_matrix(b, k, n, fb);
    const std::vector<float> want =
        bfp_gemm_reference(am, bm, m, n, c.psu_bits);
    expect_packed_matches(
        am, quantize_packed(b, k, n, {fb, RoundMode::kNearestEven}), m, n,
        c.psu_bits, want,
        std::to_string(c.mant_bits) + "b " + std::to_string(c.a_rows) + "/" +
            std::to_string(c.inner) + "/" + std::to_string(c.cols));
  }
}

TEST(PackedOperand, ShardColumnSlicesPackTheirOwnTiles) {
  // A tensor shard packs only its column slice of a weight; on block
  // boundaries that is the same tiles, so each shard's GEMM is exactly its
  // columns of the full GEMM.
  Rng rng(700);
  const int m = 19;
  const int k = 48;
  const int n = 96;
  const std::vector<float> a = mixed_operand(rng, m, k);
  const std::vector<float> w = mixed_operand(rng, k, n);
  const QuantSpec spec{bfp8_format(), RoundMode::kNearestEven};
  const BfpMatrix am = quantize_matrix(a, m, k, spec.fmt);
  const std::vector<float> full =
      bfp_gemm_packed(am, quantize_packed(w, k, n, spec), m, n, 32,
                      active_kernel_tier());
  for (const int cards : {2, 3, 4}) {
    const int width = n / cards;
    for (int c = 0; c < cards; ++c) {
      const std::vector<float> slice = columns(w, k, n, c * width, width);
      const std::vector<float> want = columns(full, m, n, c * width, width);
      expect_packed_matches(am, quantize_packed(slice, k, width, spec), m,
                            width, 32, want,
                            "card " + std::to_string(c) + "/" +
                                std::to_string(cards));
    }
  }
}

TEST(PackedOperand, OverflowingCarrierThrowsLikeTheReference) {
  // All-127 mantissas, 8 x 8N x 8: N = 16644 k-blocks leave the 32-bit
  // PSU carrier (the reduce kernel's wrap test), N = 16643 just fit.
  const BfpFormat fmt = bfp8_format();
  for (const int blocks : {16643, 16644}) {
    const int k = 8 * blocks;
    const std::vector<float> a(static_cast<std::size_t>(8) * k, 0.9921875F);
    const std::vector<float> b(static_cast<std::size_t>(k) * 8, 0.9921875F);
    const BfpMatrix am = quantize_matrix(a, 8, k, fmt);
    const BfpMatrix bm = quantize_matrix(b, k, 8, fmt);
    const PackedBfpMatrix bp =
        quantize_packed(b, k, 8, {fmt, RoundMode::kNearestEven});
    bool ref_threw = false;
    std::vector<float> want;
    try {
      want = bfp_gemm_reference(am, bm, 8, 8, 32);
    } catch (const HardwareContractError&) {
      ref_threw = true;
    }
    EXPECT_EQ(ref_threw, blocks == 16644);
    for (const KernelTier tier : available_kernel_tiers()) {
      if (ref_threw) {
        EXPECT_THROW(bfp_gemm_packed(am, bp, 8, 8, 32, tier),
                     HardwareContractError)
            << to_string(tier);
      } else {
        EXPECT_TRUE(same_bits(bfp_gemm_packed(am, bp, 8, 8, 32, tier), want))
            << to_string(tier);
      }
    }
  }
}

TEST(PackedOperand, SystemPackedGemmEqualsPerCallGemm) {
  // AcceleratorSystem::gemm_packed on a weight packed under packed_spec()
  // is the per-call gemm bit for bit, cycles included; a non-bfp8 mode
  // takes no packed operands.
  Rng rng(800);
  const int m = 21;
  const int k = 40;
  const int n = 24;
  const std::vector<float> a = mixed_operand(rng, m, k);
  const std::vector<float> w = mixed_operand(rng, k, n);
  for (const RoundMode round :
       {RoundMode::kNearestEven, RoundMode::kTruncate}) {
    SystemConfig cfg;
    cfg.pu.quant_round = round;
    const AcceleratorSystem sys(cfg);
    ASSERT_TRUE(sys.packed_spec().has_value());
    EXPECT_EQ(sys.packed_spec()->round, round);
    const GemmRun want = sys.gemm(a, m, k, w, n);
    const GemmRun got =
        sys.gemm_packed(a, m, k, quantize_packed(w, k, n, *sys.packed_spec()),
                        n);
    EXPECT_TRUE(same_bits(got.c, want.c));
    EXPECT_EQ(got.compute_cycles, want.compute_cycles);
    EXPECT_EQ(got.macs, want.macs);
  }
  SystemConfig fp8;
  fp8.pu.mode = "fp8_e4m3";
  const AcceleratorSystem other(fp8);
  EXPECT_FALSE(other.packed_spec().has_value());
  EXPECT_THROW(other.gemm_packed(a, m, k,
                                 quantize_packed(w, k, n,
                                                 {bfp8_format(),
                                                  RoundMode::kNearestEven}),
                                 n),
               Error);
}

TEST(PackedOperand, ModelPacksOnceAndOnlyForBfp8Forwards) {
  const VitConfig cfg = vit_test_tiny();
  const VitModel model(random_weights(cfg, 91));
  const std::vector<float> x = random_embeddings(cfg, 5);
  // forward_reference and forward_int8 never pack.
  (void)model.forward_reference(x);
  (void)model.forward_int8(x);
  EXPECT_EQ(model.packed_bytes(), 0u);
  // Nor does an all-fp32 policy or a non-bfp8 system.
  const AcceleratorSystem sys;
  (void)model.forward_mixed(x, sys, nullptr, PrecisionPolicy::all_fp32());
  SystemConfig fp8;
  fp8.pu.mode = "fp8_e4m3";
  (void)model.forward_mixed(x, AcceleratorSystem(fp8));
  EXPECT_EQ(model.packed_bytes(), 0u);
  // The first bfp8 forward packs; later ones reuse the same packs.
  ForwardStats first_stats;
  const std::vector<float> first = model.forward_mixed(x, sys, &first_stats);
  const std::size_t bytes = model.packed_bytes();
  EXPECT_GT(bytes, 0u);
  const std::span<const PackedBlock> packed =
      model.packed_blocks(*sys.packed_spec());
  ForwardStats again_stats;
  EXPECT_TRUE(same_bits(model.forward_mixed(x, sys, &again_stats), first));
  EXPECT_EQ(model.packed_bytes(), bytes);
  EXPECT_EQ(model.packed_blocks(*sys.packed_spec()).data(), packed.data());
  EXPECT_EQ(again_stats.total_cycles(), first_stats.total_cycles());
  // A copy packs its own and computes the same bits.
  const VitModel copy = model;
  EXPECT_EQ(copy.packed_bytes(), 0u);
  EXPECT_TRUE(same_bits(copy.forward_mixed(x, sys), first));
}

TEST(PackedOperand, DeployHandsItsImageQuantizationToTheModel) {
  const VitConfig cfg = vit_test_tiny();
  const VitWeights w = random_weights(cfg, 17);
  Session session;
  const ModelId id = session.deploy(w);
  // Packed at deploy, from the same BfpMatrix as the image.
  const std::size_t bytes = session.model(id).packed_bytes();
  EXPECT_GT(bytes, 0u);
  const std::vector<float> x = random_embeddings(cfg, 3);
  const InferenceResult r = session.infer(id, x);
  EXPECT_EQ(session.model(id).packed_bytes(), bytes);
  // The same features as a fresh model packing its own.
  const VitModel fresh(w);
  EXPECT_TRUE(same_bits(r.features, fresh.forward_mixed(x, session.system())));
  // A session whose PU rounds differently packs under its own spec, on
  // the first forward.
  SystemConfig trunc;
  trunc.pu.quant_round = RoundMode::kTruncate;
  Session other(trunc);
  const ModelId oid = other.deploy(w);
  EXPECT_EQ(other.model(oid).packed_bytes(), 0u);
  const InferenceResult t = other.infer(oid, x);
  EXPECT_GT(other.model(oid).packed_bytes(), 0u);
  EXPECT_TRUE(same_bits(t.features, fresh.forward_mixed(x, other.system())));
}

TEST(PackedOperand, BorrowingExecutorSharesTheModelsPacks) {
  // A pipeline executor on a live model copies no blocks and packs
  // nothing: it uses the model's packs. Its features and stats equal an
  // owning executor's.
  const VitConfig cfg = vit_test_tiny();
  const VitWeights w = random_weights(cfg, 23);
  const VitModel model(w);
  const std::vector<float> x = random_embeddings(cfg, 8);
  for (const int cards : {1, 2}) {
    for (const PartitionStrategy strategy :
         {PartitionStrategy::kPipeline, PartitionStrategy::kTensor}) {
      if (cards == 1 && strategy == PartitionStrategy::kTensor) continue;
      const ClusterExecutor owning(w, ClusterTopology::ring(cards), strategy);
      const ClusterExecutor borrowing(model, ClusterTopology::ring(cards),
                                      strategy);
      if (strategy == PartitionStrategy::kPipeline) {
        EXPECT_TRUE(borrowing.plan().blocks.empty());
      }
      ClusterStats want;
      ClusterStats got;
      const std::vector<float> a = owning.forward(x, &want);
      const std::vector<float> b = borrowing.forward(x, &got);
      EXPECT_TRUE(same_bits(a, b)) << cards << " " << to_string(strategy);
      EXPECT_EQ(got.card_compute_cycles, want.card_compute_cycles);
      EXPECT_EQ(got.total_cycles(), want.total_cycles());
    }
  }
  EXPECT_GT(model.packed_bytes(), 0u);
}

TEST(PackedOperand, FirstForwardsFromManyWorkersAgree) {
  // The lazy pack under contention: fresh owners run their first forwards
  // from several pool workers at once; every result is the serial bits.
  const VitConfig cfg = vit_test_tiny();
  const VitWeights w = random_weights(cfg, 29);
  const std::vector<float> x = random_embeddings(cfg, 4);
  const AcceleratorSystem sys;
  const std::vector<float> want = VitModel(w).forward_mixed(x, sys);
  constexpr std::size_t kRuns = 8;
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    const VitModel model(w);
    const ClusterExecutor tensor(w, ClusterTopology::ring(2),
                                 PartitionStrategy::kTensor);
    const ClusterExecutor pipeline(w, ClusterTopology::ring(2),
                                   PartitionStrategy::kPipeline);
    std::vector<std::vector<float>> got(3 * kRuns);
    pool.parallel_for(got.size(), [&](std::size_t i) {
      if (i % 3 == 0) {
        got[i] = model.forward_mixed(x, sys);
      } else if (i % 3 == 1) {
        got[i] = tensor.forward(x);
      } else {
        got[i] = pipeline.forward(x);
      }
    });
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same_bits(got[i], want)) << "round " << round << " run " << i;
    }
  }
}

}  // namespace
}  // namespace bfpsim
