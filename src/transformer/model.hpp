// A functional DeiT/ViT encoder with seeded synthetic weights, runnable in
// two numerics modes:
//
//  * reference — IEEE fp32/double math (the accuracy golden model), and
//  * mixed     — the paper's deployment: every matrix multiply (QKV,
//                attention scores, attention-value, projection, MLP) in
//                bfp8 on the PU, every non-linear layer (LayerNorm,
//                SoftMax, GELU) plus residual/bias adds on the fp32 vector
//                path, divisions on the host (Section III-D).
//
// No pretrained checkpoints are involved (see DESIGN.md substitutions):
// Table IV is an op-count/latency analysis and the accuracy experiments
// compare the two modes of the *same* synthetic network, which is exactly
// what "no-retraining deployment" claims require.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fabric/system.hpp"
#include "numerics/nonlinear.hpp"
#include "transformer/config.hpp"

namespace bfpsim {

/// Weights of one encoder block (row-major [in x out] projection matrices).
struct BlockWeights {
  std::vector<float> ln1_gamma, ln1_beta;
  std::vector<float> qkv_w, qkv_b;      // d x 3d, 3d
  std::vector<float> proj_w, proj_b;    // d x d, d
  std::vector<float> ln2_gamma, ln2_beta;
  std::vector<float> fc1_w, fc1_b;      // d x m, m
  std::vector<float> fc2_w, fc2_b;      // m x d, d
};

/// One encoder block's static GEMM weights (qkv, proj, fc1, fc2),
/// quantized once and packed in the bfp8 kernel's B-operand layout.
struct PackedBlock {
  PackedBfpMatrix qkv_w, proj_w, fc1_w, fc2_w;

  std::size_t bytes() const {
    return qkv_w.bytes() + proj_w.bytes() + fc1_w.bytes() + fc2_w.bytes();
  }
};

/// Pack `b`'s four weight matrices under `spec`. `b` may be a whole block
/// or one tensor-parallel column shard of it: the matrices have d, d, d
/// and mlp_hidden rows, and their column counts follow from their sizes.
PackedBlock pack_block(const VitConfig& cfg, const BlockWeights& b,
                       const QuantSpec& spec);

/// The packed weights of one owner's encoder blocks, built on first use
/// for each quantization spec and freed with the owner. Safe to use from
/// several threads at once: the first caller for a spec packs, the others
/// wait for it. Packing is a pure function of the weights, so a copy
/// starts empty and packs its own on first use.
class PackedWeightCache {
 public:
  PackedWeightCache() = default;
  PackedWeightCache(const PackedWeightCache&) {}
  PackedWeightCache& operator=(const PackedWeightCache& other);
  PackedWeightCache(PackedWeightCache&& other) noexcept;
  PackedWeightCache& operator=(PackedWeightCache&& other) noexcept;

  /// `blocks` packed under `spec`; the span stays valid while the cache
  /// lives.
  std::span<const PackedBlock> get(const VitConfig& cfg,
                                   std::span<const BlockWeights> blocks,
                                   const QuantSpec& spec) const;

  /// Install packs built elsewhere (Session::deploy quantizes each weight
  /// once for its device image and for this). Ignored when `spec` is
  /// already held.
  void adopt(const QuantSpec& spec, std::vector<PackedBlock> packed);

  /// Host bytes held by every pack.
  std::size_t bytes() const;

 private:
  struct Entry {
    QuantSpec spec;
    std::vector<PackedBlock> blocks;
  };
  mutable std::mutex mu_;
  mutable std::list<Entry> entries_;  ///< stable addresses for get()
};

struct VitWeights {
  VitConfig cfg;
  std::vector<BlockWeights> blocks;
  std::vector<float> head_gamma, head_beta;  // final LayerNorm
  std::vector<float> head_w, head_b;         // d x classes
};

/// One tensor of the VitWeights schema: a name, the backing storage, its
/// logical shape, and how a seeded initializer fills it. The schema walk
/// is the single source of truth for tensor order/shape shared by the
/// seeded initializer (random_weights), the checkpoint codec
/// (save_weights/load_weights), and the graph-compiler front end — they
/// must never enumerate the fields independently again.
struct WeightTensor {
  enum class Init { kZeros, kOnes, kTruncNormal };

  std::string name;
  std::vector<float>* data = nullptr;
  int rows = 0;  ///< 1 for bias/affine vectors
  int cols = 0;
  Init init = Init::kZeros;

  std::size_t size() const {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }
};

/// Enumerate the weight tensors of `w` in canonical (checkpoint) order:
/// per block ln1 γ/β, qkv W/b, proj W/b, ln2 γ/β, fc1 W/b, fc2 W/b; then
/// the head γ/β/W/b. `w.cfg` must be set; blocks are resized to depth.
std::vector<WeightTensor> weight_schema(VitWeights& w);

/// ViT-style initialization (truncated-normal-ish, std 0.02) with a fixed
/// seed for reproducibility. Implemented as a walk of weight_schema() so
/// initialization, checkpointing, and compilation agree on the layout.
VitWeights random_weights(const VitConfig& cfg, std::uint64_t seed);

/// Fill one matrix with the schema's truncated-normal draw (resample
/// outside 2 sigma, std 0.02 for projections). Exposed so decoder-spec
/// weight materialization shares the exact sampling discipline.
std::vector<float> init_weight_matrix(Rng& rng, int rows, int cols,
                                      float std_dev);

/// Synthetic input embeddings (tokens x d) with a fixed seed; a fraction of
/// channels carries transformer-like outliers to make the quantization
/// comparison realistic.
std::vector<float> random_embeddings(const VitConfig& cfg,
                                     std::uint64_t seed,
                                     double outlier_fraction = 0.02,
                                     float outlier_scale = 8.0F);

/// Which linear-layer groups run in bfp8 (false = kept in fp32 on the
/// vector path) — the per-layer sensitivity knob of the mixed-precision
/// quantization literature the paper builds on (Section IV-A).
struct PrecisionPolicy {
  bool qkv = true;
  bool attention = true;  ///< QK^T and scores*V
  bool proj = true;
  bool mlp = true;

  static PrecisionPolicy all_bfp8() { return {}; }
  static PrecisionPolicy all_fp32() { return {false, false, false, false}; }

  /// Does any static-weight GEMM run in bfp8?
  bool bfp8_weights() const { return qkv || proj || mlp; }
};

/// What the mixed-precision forward consumed.
struct ForwardStats {
  std::uint64_t bfp_macs = 0;
  std::uint64_t linear_cycles = 0;   ///< modelled system latency, bfp GEMMs
  std::uint64_t vector_cycles = 0;   ///< modelled system latency, fp32 ops
  OpCounter nonlinear_ops;

  std::uint64_t total_cycles() const { return linear_cycles + vector_cycles; }
};

class VitModel {
 public:
  explicit VitModel(VitWeights weights);

  const VitConfig& config() const { return w_.cfg; }

  /// The full fp32 parameter set (read-only) — what a re-partitioner
  /// (e.g. the cluster subsystem) slices from.
  const VitWeights& weights() const { return w_; }

  /// IEEE forward through all blocks: x is (tokens x d) row-major; returns
  /// the final block output (tokens x d).
  std::vector<float> forward_reference(std::vector<float> x) const;

  /// Mixed-precision forward on the accelerator system; optionally
  /// accumulates statistics. `policy` selects which linear-layer groups
  /// quantize to bfp8 (default: all, the paper's deployment).
  std::vector<float> forward_mixed(
      std::vector<float> x, const AcceleratorSystem& system,
      ForwardStats* stats = nullptr,
      const PrecisionPolicy& policy = PrecisionPolicy::all_bfp8()) const;

  /// Conventional-baseline forward: every matrix multiply through
  /// per-tensor symmetric int8 (the fixed-point deployment the paper
  /// argues against), with the non-linear layers kept in exact fp32 —
  /// deliberately generous to int8 so any damage is attributable to the
  /// linear-layer quantization alone.
  std::vector<float> forward_int8(std::vector<float> x) const;

  /// Final LayerNorm + classifier head on the [CLS] token (reference
  /// numerics; the head is shared by both modes in the experiments).
  std::vector<float> classify(const std::vector<float>& features) const;

  /// The encoder blocks' static weights packed under `spec`, built on the
  /// first call (see PackedWeightCache). forward_mixed asks for them only
  /// when its system takes packed operands; a model that only ever runs
  /// forward_reference or forward_int8 never packs.
  std::span<const PackedBlock> packed_blocks(const QuantSpec& spec) const;

  /// Install packs built from the same weights elsewhere.
  void adopt_packed(const QuantSpec& spec, std::vector<PackedBlock> packed);

  /// Host bytes the packed weights occupy (0 until the first bfp8 forward).
  std::size_t packed_bytes() const { return packed_.bytes(); }

 private:
  VitWeights w_;
  PackedWeightCache packed_;
};

/// One card's column shard of the encoder blocks: its fp32 parameters
/// and, when the system takes packed operands (packed_spec()), the same
/// blocks' packed weights under that spec. An empty `packed` quantizes
/// each weight per call — the same bits.
struct ShardWeights {
  std::span<const BlockWeights> blocks;
  std::span<const PackedBlock> packed;
};

/// The encoder blocks of `cfg` as one walk over C column shards of their
/// weights — the mixed-precision forward for one card (C = 1) and for a
/// tensor-parallel cluster (C > 1) alike. shards[c].blocks[blk] is card
/// c's slice of block blk: every matrix and bias holds the card's column
/// slice (qkv as [Q_c | K_c | V_c]) and the LayerNorm parameters are
/// replicated. Each GEMM with its bias, and the GELU, runs once per shard
/// and lands in the shard's columns of the full-width activation; card c
/// owns heads [c*h/C, (c+1)*h/C), whose attention stays card-local.
/// LayerNorm and the residual adds run once on the full-width activation,
/// and their cost is charged to every card: each card's `card_stats[c]`
/// accumulates what that card executes.
/// Column splits on bfp block boundaries keep every quantization block and
/// k-reduction order, so the result is bit-identical for any C.
std::vector<float> forward_column_shards(
    const VitConfig& cfg, std::span<const ShardWeights> shards,
    std::vector<float> x, const AcceleratorSystem& system,
    std::span<ForwardStats> card_stats,
    const PrecisionPolicy& policy = PrecisionPolicy::all_bfp8());

/// Top-1 agreement between two logit sets over a batch of runs (utility
/// for the accuracy experiments).
double top1_agreement(const std::vector<std::vector<float>>& a,
                      const std::vector<std::vector<float>>& b);

}  // namespace bfpsim
