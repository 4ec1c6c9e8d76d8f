#include "transformer/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "numerics/quantizer.hpp"
#include "numerics/slices.hpp"

namespace bfpsim {

namespace {

std::vector<float> matmul_ref(const std::vector<float>& a, int m, int k,
                              const std::vector<float>& b, int n) {
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int x = 0; x < k; ++x) {
        acc += static_cast<double>(a[static_cast<std::size_t>(i) * k + x]) *
               b[static_cast<std::size_t>(x) * n + j];
      }
      c[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

/// Per-head attention over a fused QKV activation: `qkv` is t x 3*width
/// laid out [Q | K | V], each segment width/hd heads of hd columns. For
/// every head this slices q (t x hd), k^T (hd x t) and v (t x hd), asks
/// `attend(q, kt, v)` for the head's context (t x hd), and writes it into
/// columns [(head0 + head) * hd, +hd) of `out` (t x out_cols).
template <typename Attend>
void attend_heads(const std::vector<float>& qkv, int t, int width, int hd,
                  std::vector<float>& out, int out_cols, int head0,
                  Attend&& attend) {
  const auto rows = static_cast<std::size_t>(t);
  const auto cols = static_cast<std::size_t>(hd);
  const auto seg = static_cast<std::size_t>(width);
  std::vector<float> q(rows * cols);
  std::vector<float> kt(rows * cols);
  std::vector<float> v(rows * cols);
  for (int head = 0; head < width / hd; ++head) {
    const auto col0 = static_cast<std::size_t>(head) * cols;
    for (std::size_t r = 0; r < rows; ++r) {
      const float* row = qkv.data() + r * 3 * seg + col0;
      for (std::size_t c = 0; c < cols; ++c) {
        q[r * cols + c] = row[c];
        kt[c * rows + r] = row[seg + c];
        v[r * cols + c] = row[2 * seg + c];
      }
    }
    const std::vector<float> ctx = attend(q, kt, v);
    const auto out_col0 = static_cast<std::size_t>(head0 + head) * cols;
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(ctx.data() + r * cols, cols,
                  out.data() + r * static_cast<std::size_t>(out_cols) +
                      out_col0);
    }
  }
}

}  // namespace

std::vector<float> init_weight_matrix(Rng& rng, int rows, int cols,
                                      float std_dev) {
  std::vector<float> w(static_cast<std::size_t>(rows) * cols);
  for (auto& v : w) {
    // Truncated-normal-ish: resample outside 2 sigma.
    float s = rng.normal(0.0F, std_dev);
    while (std::fabs(s) > 2.0F * std_dev) s = rng.normal(0.0F, std_dev);
    v = s;
  }
  return w;
}

std::vector<WeightTensor> weight_schema(VitWeights& w) {
  w.cfg.validate();
  const int d = w.cfg.embed_dim;
  const int m = w.cfg.mlp_hidden();
  w.blocks.resize(static_cast<std::size_t>(w.cfg.depth));
  using Init = WeightTensor::Init;
  std::vector<WeightTensor> schema;
  for (std::size_t i = 0; i < w.blocks.size(); ++i) {
    BlockWeights& b = w.blocks[i];
    const std::string p = "blocks." + std::to_string(i) + ".";
    schema.push_back({p + "ln1_gamma", &b.ln1_gamma, 1, d, Init::kOnes});
    schema.push_back({p + "ln1_beta", &b.ln1_beta, 1, d, Init::kZeros});
    schema.push_back({p + "qkv_w", &b.qkv_w, d, 3 * d, Init::kTruncNormal});
    schema.push_back({p + "qkv_b", &b.qkv_b, 1, 3 * d, Init::kZeros});
    schema.push_back({p + "proj_w", &b.proj_w, d, d, Init::kTruncNormal});
    schema.push_back({p + "proj_b", &b.proj_b, 1, d, Init::kZeros});
    schema.push_back({p + "ln2_gamma", &b.ln2_gamma, 1, d, Init::kOnes});
    schema.push_back({p + "ln2_beta", &b.ln2_beta, 1, d, Init::kZeros});
    schema.push_back({p + "fc1_w", &b.fc1_w, d, m, Init::kTruncNormal});
    schema.push_back({p + "fc1_b", &b.fc1_b, 1, m, Init::kZeros});
    schema.push_back({p + "fc2_w", &b.fc2_w, m, d, Init::kTruncNormal});
    schema.push_back({p + "fc2_b", &b.fc2_b, 1, d, Init::kZeros});
  }
  schema.push_back({"head_gamma", &w.head_gamma, 1, d, Init::kOnes});
  schema.push_back({"head_beta", &w.head_beta, 1, d, Init::kZeros});
  schema.push_back(
      {"head_w", &w.head_w, d, w.cfg.num_classes, Init::kTruncNormal});
  schema.push_back(
      {"head_b", &w.head_b, 1, w.cfg.num_classes, Init::kZeros});
  return schema;
}

VitWeights random_weights(const VitConfig& cfg, std::uint64_t seed) {
  cfg.validate();
  Rng rng(seed);
  VitWeights w;
  w.cfg = cfg;
  for (const WeightTensor& t : weight_schema(w)) {
    switch (t.init) {
      case WeightTensor::Init::kZeros:
        t.data->assign(t.size(), 0.0F);
        break;
      case WeightTensor::Init::kOnes:
        t.data->assign(t.size(), 1.0F);
        break;
      case WeightTensor::Init::kTruncNormal:
        *t.data = init_weight_matrix(rng, t.rows, t.cols, 0.02F);
        break;
    }
  }
  return w;
}

std::vector<float> random_embeddings(const VitConfig& cfg,
                                     std::uint64_t seed,
                                     double outlier_fraction,
                                     float outlier_scale) {
  cfg.validate();
  Rng rng(seed);
  const int t = cfg.tokens();
  const int d = cfg.embed_dim;
  // Pick outlier channels once (channel-structured, like real transformer
  // activations), then scale those columns.
  std::vector<bool> outlier(static_cast<std::size_t>(d), false);
  for (int c = 0; c < d; ++c) {
    outlier[static_cast<std::size_t>(c)] = rng.bernoulli(outlier_fraction);
  }
  std::vector<float> x(static_cast<std::size_t>(t) * d);
  for (int r = 0; r < t; ++r) {
    for (int c = 0; c < d; ++c) {
      float v = rng.normal(0.0F, 1.0F);
      if (outlier[static_cast<std::size_t>(c)]) v *= outlier_scale;
      x[static_cast<std::size_t>(r) * d + c] = v;
    }
  }
  return x;
}

PackedBlock pack_block(const VitConfig& cfg, const BlockWeights& b,
                       const QuantSpec& spec) {
  const int d = cfg.embed_dim;
  const int m = cfg.mlp_hidden();
  auto pack = [&](const std::vector<float>& w, int rows) {
    return quantize_packed(w, rows, static_cast<int>(w.size()) / rows, spec);
  };
  return {pack(b.qkv_w, d), pack(b.proj_w, d), pack(b.fc1_w, d),
          pack(b.fc2_w, m)};
}

PackedWeightCache& PackedWeightCache::operator=(
    const PackedWeightCache& other) {
  if (this != &other) {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }
  return *this;
}

PackedWeightCache::PackedWeightCache(PackedWeightCache&& other) noexcept {
  const std::lock_guard<std::mutex> lock(other.mu_);
  entries_ = std::move(other.entries_);
}

PackedWeightCache& PackedWeightCache::operator=(
    PackedWeightCache&& other) noexcept {
  if (this != &other) {
    const std::scoped_lock lock(mu_, other.mu_);
    entries_ = std::move(other.entries_);
  }
  return *this;
}

std::span<const PackedBlock> PackedWeightCache::get(
    const VitConfig& cfg, std::span<const BlockWeights> blocks,
    const QuantSpec& spec) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.spec == spec) return e.blocks;
  }
  Entry& e = entries_.emplace_back();
  e.spec = spec;
  e.blocks.reserve(blocks.size());
  for (const BlockWeights& b : blocks) {
    e.blocks.push_back(pack_block(cfg, b, spec));
  }
  return e.blocks;
}

void PackedWeightCache::adopt(const QuantSpec& spec,
                              std::vector<PackedBlock> packed) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.spec == spec) return;
  }
  entries_.push_back({spec, std::move(packed)});
}

std::size_t PackedWeightCache::bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const Entry& e : entries_) {
    for (const PackedBlock& b : e.blocks) total += b.bytes();
  }
  return total;
}

VitModel::VitModel(VitWeights weights) : w_(std::move(weights)) {
  w_.cfg.validate();
  BFP_REQUIRE(w_.blocks.size() == static_cast<std::size_t>(w_.cfg.depth),
              "VitModel: weight count must match depth");
}

std::vector<float> VitModel::forward_reference(std::vector<float> x) const {
  const int t = w_.cfg.tokens();
  const int d = w_.cfg.embed_dim;
  const int hd = w_.cfg.head_dim();
  const int m = w_.cfg.mlp_hidden();
  BFP_REQUIRE(x.size() == static_cast<std::size_t>(t) * d,
              "forward_reference: input must be tokens x embed_dim");
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));

  for (const BlockWeights& b : w_.blocks) {
    // ---- attention ----
    const auto ln1 = layernorm_reference(x, t, d, b.ln1_gamma, b.ln1_beta);
    auto qkv = matmul_ref(ln1, t, d, b.qkv_w, 3 * d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < 3 * d; ++c) {
        qkv[static_cast<std::size_t>(r) * 3 * d + c] +=
            b.qkv_b[static_cast<std::size_t>(c)];
      }
    }
    std::vector<float> attn_out(static_cast<std::size_t>(t) * d);
    attend_heads(qkv, t, d, hd, attn_out, d, 0,
                 [&](const std::vector<float>& q, const std::vector<float>& kt,
                     const std::vector<float>& v) {
                   auto scores = matmul_ref(q, t, hd, kt, t);
                   for (auto& s : scores) s *= scale;
                   const auto probs = softmax_reference(scores, t, t);
                   return matmul_ref(probs, t, t, v, hd);
                 });
    auto proj = matmul_ref(attn_out, t, d, b.proj_w, d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < d; ++c) {
        const std::size_t i = static_cast<std::size_t>(r) * d + c;
        x[i] += proj[i] + b.proj_b[static_cast<std::size_t>(c)];
      }
    }
    // ---- MLP ----
    const auto ln2 = layernorm_reference(x, t, d, b.ln2_gamma, b.ln2_beta);
    auto hdn = matmul_ref(ln2, t, d, b.fc1_w, m);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < m; ++c) {
        hdn[static_cast<std::size_t>(r) * m + c] +=
            b.fc1_b[static_cast<std::size_t>(c)];
      }
    }
    const auto act = gelu_reference(hdn);
    auto out = matmul_ref(act, t, m, b.fc2_w, d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < d; ++c) {
        const std::size_t i = static_cast<std::size_t>(r) * d + c;
        x[i] += out[i] + b.fc2_b[static_cast<std::size_t>(c)];
      }
    }
  }
  return x;
}

namespace {

/// A bias add on the fp32 aligned-add datapath, charged to the vector
/// path of the card that runs it.
void add_bias_mixed(std::vector<float>& x, int rows, int cols,
                    const std::vector<float>& bias, ForwardStats& stats,
                    const AcceleratorSystem& sys) {
  const auto width = static_cast<std::size_t>(cols);
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    const std::span<float> row(x.data() + r * width, width);
    fp32_add_aligned(row, bias, row);
  }
  const auto n = static_cast<std::uint64_t>(rows) * cols;
  stats.nonlinear_ops.fp_add += n;
  stats.vector_cycles += sys.vector_latency(0, n).cycles;
}

/// One GEMM of the mixed forward. Static weights pass their packed
/// operand (`packed`, null when none is held); activation x activation
/// products pass only `b`.
std::vector<float> gemm_mixed(const AcceleratorSystem& sys,
                              const std::vector<float>& a, int m, int k,
                              const std::vector<float>& b, int n,
                              ForwardStats& stats, bool bfp8,
                              const PackedBfpMatrix* packed = nullptr) {
  if (!bfp8) {
    // Policy keeps this layer group in fp32: exact matmul, no bfp stats.
    return matmul_ref(a, m, k, b, n);
  }
  GemmRun run = packed != nullptr ? sys.gemm_packed(a, m, k, *packed, n)
                                  : sys.gemm(a, m, k, b, n);
  stats.bfp_macs += run.macs;
  stats.linear_cycles += run.compute_cycles;
  return std::move(run.c);
}

}  // namespace

std::vector<float> forward_column_shards(
    const VitConfig& cfg, std::span<const ShardWeights> shards,
    std::vector<float> x, const AcceleratorSystem& system,
    std::span<ForwardStats> card_stats, const PrecisionPolicy& policy) {
  const auto cards = static_cast<int>(shards.size());
  const int t = cfg.tokens();
  const int d = cfg.embed_dim;
  const int hd = cfg.head_dim();
  const int m = cfg.mlp_hidden();
  BFP_REQUIRE(cards >= 1 && cfg.num_heads % cards == 0 && m % cards == 0,
              "forward_column_shards: heads and MLP width must split "
              "evenly across the shards");
  BFP_REQUIRE(card_stats.size() == shards.size(),
              "forward_column_shards: need one ForwardStats per shard");
  for (const ShardWeights& shard : shards) {
    BFP_REQUIRE(shard.blocks.size() == static_cast<std::size_t>(cfg.depth),
                "forward_column_shards: every shard needs depth blocks");
    BFP_REQUIRE(shard.packed.empty() ||
                    shard.packed.size() == shard.blocks.size(),
                "forward_column_shards: packed weights must match blocks");
  }
  BFP_REQUIRE(x.size() == static_cast<std::size_t>(t) * d,
              "forward_column_shards: input must be tokens x embed_dim");
  const int dc = d / cards;
  const int heads_per_card = cfg.num_heads / cards;
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  const auto rows = static_cast<std::size_t>(t);

  // Vector-path work lands in a card's stats as op counts plus the
  // modelled latency of those ops.
  auto charge = [&](ForwardStats& s, const OpCounter& ops) {
    s.nonlinear_ops += ops;
    s.vector_cycles += system.vector_latency(ops.fp_mul, ops.fp_add).cycles;
  };
  // LayerNorm and the residual adds run once on the full-width activation;
  // every card executes them on its own copy of the activation stream.
  auto charge_all = [&](const OpCounter& ops) {
    for (ForwardStats& s : card_stats) charge(s, ops);
  };
  auto residual = [&](const std::vector<float>& y) {
    BFP_ASSERT(x.size() == y.size());
    fp32_add_aligned(x, y, x);
    OpCounter ops;
    ops.fp_add = x.size();
    charge_all(ops);
  };
  // One column-sharded linear layer: card c multiplies `a` (t x k) by its
  // weight slice (k x n/C), adds its bias slice (then GELU, if asked), and
  // its output lands in columns [c*n/C, (c+1)*n/C) of the t x n result.
  // One card's output already is the full result.
  using Param = std::vector<float> BlockWeights::*;
  using PackedParam = PackedBfpMatrix PackedBlock::*;
  // Card c's packed operand of weight `w` in block `blk`, if it holds one.
  auto packed_of = [&](std::size_t c, std::size_t blk, PackedParam w) {
    const std::span<const PackedBlock> packed = shards[c].packed;
    return packed.empty() ? nullptr : &(packed[blk].*w);
  };
  auto linear = [&](std::size_t blk, const std::vector<float>& a, int k,
                    int n, Param w, PackedParam pw, Param bias, bool bfp8,
                    bool gelu) {
    const int nc = n / cards;
    const auto width = static_cast<std::size_t>(nc);
    std::vector<float> full(cards > 1 ? rows * static_cast<std::size_t>(n)
                                      : 0);
    for (std::size_t c = 0; c < shards.size(); ++c) {
      const BlockWeights& b = shards[c].blocks[blk];
      ForwardStats& s = card_stats[c];
      auto y = gemm_mixed(system, a, t, k, b.*w, nc, s, bfp8,
                          packed_of(c, blk, pw));
      add_bias_mixed(y, t, nc, b.*bias, s, system);
      if (gelu) {
        OpCounter ops;
        approx_gelu(y, y, &ops);
        charge(s, ops);
      }
      if (cards == 1) return y;
      for (std::size_t r = 0; r < rows; ++r) {
        std::copy_n(y.data() + r * width, width,
                    full.data() + (r * shards.size() + c) * width);
      }
    }
    return full;
  };

  // Both LayerNorms of every block write into this one buffer.
  std::vector<float> ln(x.size());
  for (std::size_t blk = 0; blk < static_cast<std::size_t>(cfg.depth);
       ++blk) {
    const BlockWeights& norms = shards[0].blocks[blk];  // on every card

    // ---- attention (LN -> QKV -> per-head SDPA -> proj -> residual) ----
    OpCounter ln1_ops;
    approx_layernorm(x, t, d, norms.ln1_gamma, norms.ln1_beta, ln, &ln1_ops);
    charge_all(ln1_ops);
    std::vector<float> attn_out(rows * static_cast<std::size_t>(d));
    for (std::size_t c = 0; c < shards.size(); ++c) {
      const BlockWeights& b = shards[c].blocks[blk];
      ForwardStats& s = card_stats[c];
      // The card's [Q_c | K_c | V_c] columns hold everything its heads
      // need: per-head attention stays card-local.
      auto qkv = gemm_mixed(system, ln, t, d, b.qkv_w, 3 * dc, s, policy.qkv,
                            packed_of(c, blk, &PackedBlock::qkv_w));
      add_bias_mixed(qkv, t, 3 * dc, b.qkv_b, s, system);
      attend_heads(
          qkv, t, dc, hd, attn_out, d, static_cast<int>(c) * heads_per_card,
          [&](const std::vector<float>& q, const std::vector<float>& kt,
              const std::vector<float>& v) {
            auto scores =
                gemm_mixed(system, q, t, hd, kt, t, s, policy.attention);
            // 1/sqrt(head_dim) scaling on the fp32 multiply path, then
            // the softmax, both in place.
            fp32_mul_sliced(scores, scale, scores);
            OpCounter scale_ops;
            scale_ops.fp_mul = scores.size();
            charge(s, scale_ops);
            OpCounter softmax_ops;
            approx_softmax(scores, t, t, scores, &softmax_ops);
            charge(s, softmax_ops);
            return gemm_mixed(system, scores, t, t, v, hd, s,
                              policy.attention);
          });
    }
    residual(linear(blk, attn_out, d, d, &BlockWeights::proj_w,
                    &PackedBlock::proj_w, &BlockWeights::proj_b, policy.proj,
                    /*gelu=*/false));

    // ---- MLP (LN -> fc1 -> GELU -> fc2 -> residual) ----
    OpCounter ln2_ops;
    approx_layernorm(x, t, d, norms.ln2_gamma, norms.ln2_beta, ln, &ln2_ops);
    charge_all(ln2_ops);
    const auto act =
        linear(blk, ln, d, m, &BlockWeights::fc1_w, &PackedBlock::fc1_w,
               &BlockWeights::fc1_b, policy.mlp, /*gelu=*/true);
    residual(linear(blk, act, m, d, &BlockWeights::fc2_w,
                    &PackedBlock::fc2_w, &BlockWeights::fc2_b, policy.mlp,
                    /*gelu=*/false));
  }
  return x;
}

std::vector<float> VitModel::forward_mixed(
    std::vector<float> x, const AcceleratorSystem& system,
    ForwardStats* stats, const PrecisionPolicy& policy) const {
  // One card: the model's own blocks are the single column shard, with
  // their packed weights when the system's GEMMs take them.
  ShardWeights shard{w_.blocks, {}};
  const std::optional<QuantSpec> spec = system.packed_spec();
  if (spec.has_value() && policy.bfp8_weights()) {
    shard.packed = packed_blocks(*spec);
  }
  ForwardStats unused;
  return forward_column_shards(
      w_.cfg, std::span<const ShardWeights>(&shard, 1), std::move(x), system,
      std::span<ForwardStats>(stats != nullptr ? stats : &unused, 1),
      policy);
}

std::span<const PackedBlock> VitModel::packed_blocks(
    const QuantSpec& spec) const {
  return packed_.get(w_.cfg, w_.blocks, spec);
}

void VitModel::adopt_packed(const QuantSpec& spec,
                            std::vector<PackedBlock> packed) {
  BFP_REQUIRE(packed.size() == w_.blocks.size(),
              "VitModel::adopt_packed: one pack per block");
  packed_.adopt(spec, std::move(packed));
}

std::vector<float> VitModel::forward_int8(std::vector<float> x) const {
  const int t = w_.cfg.tokens();
  const int d = w_.cfg.embed_dim;
  const int hd = w_.cfg.head_dim();
  const int m = w_.cfg.mlp_hidden();
  BFP_REQUIRE(x.size() == static_cast<std::size_t>(t) * d,
              "forward_int8: input must be tokens x embed_dim");
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));

  auto mm_int8 = [](const std::vector<float>& a, int mm, int kk,
                    const std::vector<float>& b, int nn) {
    return int8_gemm_reference(quantize_int8_per_tensor(a),
                               quantize_int8_per_tensor(b), mm, kk, nn);
  };
  // A fixed-point datapath stores inter-layer activations (the residual
  // stream) in int8 as well; the proposed design keeps them on the fp32
  // vector path instead — this is where per-tensor int8 loses the small-
  // channel signal once outliers stretch its single scale.
  auto requantize = [](std::vector<float>& v) {
    v = quantize_int8_per_tensor(v).dequantize();
  };
  requantize(x);

  for (const BlockWeights& b : w_.blocks) {
    const auto ln1 = layernorm_reference(x, t, d, b.ln1_gamma, b.ln1_beta);
    auto qkv = mm_int8(ln1, t, d, b.qkv_w, 3 * d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < 3 * d; ++c) {
        qkv[static_cast<std::size_t>(r) * 3 * d + c] +=
            b.qkv_b[static_cast<std::size_t>(c)];
      }
    }
    std::vector<float> attn_out(static_cast<std::size_t>(t) * d);
    attend_heads(qkv, t, d, hd, attn_out, d, 0,
                 [&](const std::vector<float>& q, const std::vector<float>& kt,
                     const std::vector<float>& v) {
                   auto scores = mm_int8(q, t, hd, kt, t);
                   for (auto& s : scores) s *= scale;
                   const auto probs = softmax_reference(scores, t, t);
                   return mm_int8(probs, t, t, v, hd);
                 });
    auto proj = mm_int8(attn_out, t, d, b.proj_w, d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < d; ++c) {
        const std::size_t i = static_cast<std::size_t>(r) * d + c;
        x[i] += proj[i] + b.proj_b[static_cast<std::size_t>(c)];
      }
    }
    requantize(x);
    const auto ln2 = layernorm_reference(x, t, d, b.ln2_gamma, b.ln2_beta);
    auto hdn = mm_int8(ln2, t, d, b.fc1_w, m);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < m; ++c) {
        hdn[static_cast<std::size_t>(r) * m + c] +=
            b.fc1_b[static_cast<std::size_t>(c)];
      }
    }
    const auto act = gelu_reference(hdn);
    auto out = mm_int8(act, t, m, b.fc2_w, d);
    for (int r = 0; r < t; ++r) {
      for (int c = 0; c < d; ++c) {
        const std::size_t i = static_cast<std::size_t>(r) * d + c;
        x[i] += out[i] + b.fc2_b[static_cast<std::size_t>(c)];
      }
    }
    requantize(x);
  }
  return x;
}

std::vector<float> VitModel::classify(const std::vector<float>& features) const {
  const int t = w_.cfg.tokens();
  const int d = w_.cfg.embed_dim;
  BFP_REQUIRE(features.size() == static_cast<std::size_t>(t) * d,
              "classify: features must be tokens x embed_dim");
  const auto ln =
      layernorm_reference(features, t, d, w_.head_gamma, w_.head_beta);
  // [CLS] token is row 0.
  const std::vector<float> cls(ln.begin(), ln.begin() + d);
  auto logits = matmul_ref(cls, 1, d, w_.head_w, w_.cfg.num_classes);
  for (int c = 0; c < w_.cfg.num_classes; ++c) {
    logits[static_cast<std::size_t>(c)] += w_.head_b[static_cast<std::size_t>(c)];
  }
  return logits;
}

double top1_agreement(const std::vector<std::vector<float>>& a,
                      const std::vector<std::vector<float>>& b) {
  BFP_REQUIRE(a.size() == b.size() && !a.empty(),
              "top1_agreement: batch sizes must match and be non-empty");
  int agree = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ia = std::distance(
        a[i].begin(), std::max_element(a[i].begin(), a[i].end()));
    const auto ib = std::distance(
        b[i].begin(), std::max_element(b[i].begin(), b[i].end()));
    if (ia == ib) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(a.size());
}

}  // namespace bfpsim
