// Table IV: the mixed-precision workload partition of a DeiT model —
// operation counts, their proportions, end-to-end latency per partition
// under the system's throughput models, and latency proportions — plus the
// analytic batch model built on it: each image runs wholly on one unit
// (weights stay resident, no cross-unit traffic) and the batch spreads
// across units through the LPT scheduler, the deployment mode Section
// III-A's "independent instructions" enables. The functional counterpart
// is Session::infer_batch (runtime/session.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/system.hpp"
#include "transformer/config.hpp"

namespace bfpsim {

struct WorkloadRow {
  std::string partition;
  double mega_ops = 0.0;          ///< operations in millions
  double ops_proportion = 0.0;    ///< share of total operations
  double latency_ms = 0.0;
  double latency_proportion = 0.0;
};

struct WorkloadBreakdown {
  std::vector<WorkloadRow> rows;
  double total_mega_ops = 0.0;
  double total_latency_ms = 0.0;
  double fp32_ops_share = 0.0;      ///< the paper's "1.35% of workload"
  double fp32_latency_share = 0.0;  ///< the paper's "92.45% of latency"
};

/// Compute the Table IV breakdown for `cfg` on `sys`. When
/// `include_residuals` is set, an extra row accounts for the residual/bias
/// adds the paper folds away (reported separately for transparency).
/// `softermax` analyzes the system with the exp2-unit hardware option
/// (Softermax-style fast exp, the paper's cited optimization direction).
WorkloadBreakdown analyze_workload(const VitConfig& cfg,
                                   const AcceleratorSystem& sys,
                                   bool include_residuals = false,
                                   bool softermax = false);

/// The bfp8 GEMM latency of every linear layer of the model, summed
/// through the system latency model (shapes: QKV, per-head QK^T and AV,
/// projection, both MLP layers, for every block).
WorkloadResult linear_workload_latency(const VitConfig& cfg,
                                       const AcceleratorSystem& sys);

struct BatchResult {
  int batch = 0;
  std::uint64_t per_image_cycles = 0;  ///< single-unit end-to-end latency
  std::uint64_t makespan_cycles = 0;
  double latency_ms_per_image = 0.0;
  double images_per_second = 0.0;
  double utilization = 0.0;
};

/// Throughput/latency of serving `batch` images of model `cfg` on `sys`
/// (analytic: no functional data flows).
BatchResult batch_transformer_throughput(const VitConfig& cfg,
                                         const AcceleratorSystem& sys,
                                         int batch);

}  // namespace bfpsim
