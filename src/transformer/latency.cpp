#include "transformer/latency.hpp"

#include "common/error.hpp"
#include "fabric/scheduler.hpp"

namespace bfpsim {

WorkloadResult linear_workload_latency(const VitConfig& cfg,
                                       const AcceleratorSystem& sys) {
  cfg.validate();
  const int t = cfg.tokens();
  const int d = cfg.embed_dim;
  const int h = cfg.num_heads;
  const int hd = cfg.head_dim();
  const int m = cfg.mlp_hidden();

  WorkloadResult total;
  total.freq_hz = sys.config().pu.freq_hz;
  auto add = [&](int mm, int kk, int nn, int times) {
    const WorkloadResult r = sys.gemm_latency(mm, kk, nn);
    total.cycles += r.cycles * static_cast<std::uint64_t>(times);
    total.ops += r.ops * static_cast<std::uint64_t>(times);
  };
  const int blocks = cfg.depth;
  add(t, d, 3 * d, blocks);     // QKV
  add(t, hd, t, blocks * h);    // Q K^T
  add(t, t, hd, blocks * h);    // scores * V
  add(t, d, d, blocks);         // projection
  add(t, d, m, blocks);         // MLP fc1
  add(t, m, d, blocks);         // MLP fc2
  return total;
}

WorkloadBreakdown analyze_workload(const VitConfig& cfg,
                                   const AcceleratorSystem& sys,
                                   bool include_residuals, bool softermax) {
  cfg.validate();
  const NonlinearElemCounts elems = count_nonlinear_elems(cfg);
  const NonlinearCostModel cost =
      measure_nonlinear_costs(cfg.tokens(), cfg.embed_dim, softermax);
  const double freq = sys.config().pu.freq_hz;

  WorkloadBreakdown out;

  // ---- bfp8 MatMul partition ----
  {
    const WorkloadResult lin = linear_workload_latency(cfg, sys);
    WorkloadRow r;
    r.partition = "bfp8 MatMul";
    r.mega_ops = static_cast<double>(lin.ops) / 1e6;
    r.latency_ms = lin.seconds() * 1e3;
    out.rows.push_back(r);
  }

  // ---- fp32 partitions ----
  auto add_fp32 = [&](const std::string& name, std::uint64_t n_elems,
                      double dev_ops_per_elem) {
    const auto dev_ops = static_cast<std::uint64_t>(
        static_cast<double>(n_elems) * dev_ops_per_elem);
    const WorkloadResult lat = sys.vector_latency(dev_ops, 0);
    WorkloadRow r;
    r.partition = name;
    r.mega_ops = static_cast<double>(dev_ops) / 1e6;
    r.latency_ms = static_cast<double>(lat.cycles) / freq * 1e3;
    out.rows.push_back(r);
  };
  add_fp32("fp32 LayerNorm", elems.layernorm_elems,
           cost.layernorm_device_ops_per_elem);
  add_fp32("fp32 SoftMax", elems.softmax_elems,
           cost.softmax_device_ops_per_elem);
  add_fp32("fp32 GELU", elems.gelu_elems, cost.gelu_device_ops_per_elem);
  if (include_residuals) {
    // 1 aligned add per residual element plus 1 per bias element
    // (approximated as 2x the residual count).
    add_fp32("fp32 residual/bias (extra)", elems.residual_elems, 2.0);
  }

  for (const auto& r : out.rows) {
    out.total_mega_ops += r.mega_ops;
    out.total_latency_ms += r.latency_ms;
  }
  BFP_ASSERT(out.total_mega_ops > 0.0 && out.total_latency_ms > 0.0);
  for (auto& r : out.rows) {
    r.ops_proportion = r.mega_ops / out.total_mega_ops;
    r.latency_proportion = r.latency_ms / out.total_latency_ms;
  }
  const WorkloadRow& bfp = out.rows.front();
  out.fp32_ops_share = 1.0 - bfp.ops_proportion;
  out.fp32_latency_share = 1.0 - bfp.latency_proportion;
  return out;
}

BatchResult batch_transformer_throughput(const VitConfig& cfg,
                                         const AcceleratorSystem& sys,
                                         int batch) {
  BFP_REQUIRE(batch >= 1, "batch_transformer_throughput: batch must be >=1");
  // Per-image latency on ONE unit: rebuild the system model with a single
  // unit so the workload analysis does not spread one image across units.
  SystemConfig one = sys.config();
  one.num_units = 1;
  const AcceleratorSystem single(one);
  const WorkloadBreakdown per_image = analyze_workload(cfg, single);
  const double freq = sys.config().pu.freq_hz;
  const auto image_cycles = static_cast<std::uint64_t>(
      per_image.total_latency_ms * 1e-3 * freq);

  std::vector<WorkItem> items(static_cast<std::size_t>(batch),
                              WorkItem{cfg.name, image_cycles});
  const ScheduleResult s = schedule_lpt(items, sys.config().num_units);

  BatchResult r;
  r.batch = batch;
  r.per_image_cycles = image_cycles;
  r.makespan_cycles = s.makespan;
  r.latency_ms_per_image = static_cast<double>(image_cycles) / freq * 1e3;
  r.images_per_second =
      static_cast<double>(batch) / (static_cast<double>(s.makespan) / freq);
  r.utilization = s.utilization;
  return r;
}

}  // namespace bfpsim
