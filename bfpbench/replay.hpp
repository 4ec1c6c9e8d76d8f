// Outside-in replay of one VitModel::forward_mixed: the same sequence of
// public layer calls (approx_layernorm, AcceleratorSystem::gemm,
// approx_softmax, approx_gelu, the sliced-fp32 bias/residual/scale ops),
// each wrapped in a span. Every GEMM is also re-run split into its two
// quantize_matrix calls and one bfp_gemm_dispatch on the pre-quantized
// operands, so the GEMM's host time can be divided into quantization,
// kernel, and the rest. The replay recomputes the forward's features and
// ForwardStats, which the caller checks against forward_mixed bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "fabric/system.hpp"
#include "transformer/model.hpp"

namespace bfpbench {

struct ReplayCounts {
  bfpsim::ForwardStats stats;       ///< modelled, recomputed outside-in
  std::uint64_t gemm_calls = 0;
  std::uint64_t quant_elems = 0;         ///< logical elements quantized
  std::uint64_t quant_weight_elems = 0;  ///< ... of static weight operands
  std::uint64_t kernel_macs = 0;
  std::uint64_t layernorm_elems = 0;
  std::uint64_t softmax_elems = 0;
  std::uint64_t gelu_elems = 0;
  std::uint64_t elementwise_elems = 0;   ///< bias, residual, score scale
  bool split_matches = true;  ///< split GEMM bits == AcceleratorSystem::gemm
};

/// Replay one bfp8 forward of `w` on `sys` (a bfp8-configured system).
/// Spans: fabric.gemm, numerics.quantize, numerics.gemm_kernel,
/// numerics.layernorm, numerics.softmax, numerics.gelu,
/// numerics.elementwise.
std::vector<float> replay_forward(const bfpsim::VitWeights& w,
                                  std::vector<float> x,
                                  const bfpsim::AcceleratorSystem& sys,
                                  SpanLog& log, ReplayCounts& counts);

}  // namespace bfpbench
