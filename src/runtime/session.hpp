// The host runtime session: the software a deployment would actually link.
//
// A Session owns the device (memory + accelerator system models) and
// provides the full deployment flow the paper's conclusion sketches as its
// "full stack acceleration" framework:
//
//   1. deploy(weights): quantize every linear layer to bfp8 once (this is
//      the no-retraining deployment step), serialize the blocks into HBM,
//      and keep the fp32 non-linear parameters resident alongside;
//   2. infer(model, embeddings): DMA the activations in, run the mixed
//      bfp8 + fp32 forward, DMA the features out — with a command log and
//      a cycle budget covering both compute and data movement.
//
// Numerics note: the forward path quantizes activations per call and
// streams the weights from the model's packed operands, which deploy
// builds from the same quantization as the device image when the
// session's PU quantizes as the image does (bfp8, round-to-nearest-even);
// otherwise the model packs under the PU's spec on its first forward.
// Quantization is a pure function of the fp32 weights, so results are
// bit-identical either way; the device image exists for footprint and
// upload accounting.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_serving.hpp"
#include "fabric/system.hpp"
#include "runtime/device_memory.hpp"
#include "serving/event_loop.hpp"
#include "transformer/model.hpp"

namespace bfpsim {

/// One entry of the session's command log.
struct CommandRecord {
  enum class Kind { kDmaIn, kDmaOut, kCompute, kHost };
  Kind kind = Kind::kCompute;
  std::string detail;
  std::uint64_t bytes = 0;
  std::uint64_t cycles = 0;
};

using ModelId = int;

/// Everything a deployed model occupies on the device.
struct DeploymentInfo {
  ModelId id = -1;
  std::string name;
  std::uint64_t quantized_weight_bytes = 0;  ///< bfp8 blocks in HBM
  std::uint64_t fp32_param_bytes = 0;        ///< LN params, biases
  std::uint64_t upload_cycles = 0;
  double compression_ratio = 0.0;  ///< fp32 weight bytes / device bytes
};

/// Outcome of one inference.
struct InferenceResult {
  std::vector<float> features;  ///< final block output (tokens x d)
  std::vector<float> logits;
  ForwardStats stats;
  std::uint64_t dma_cycles = 0;
  std::uint64_t total_cycles = 0;

  double latency_ms(double freq_hz) const {
    return static_cast<double>(total_cycles) / freq_hz * 1e3;
  }
};

class Session {
 public:
  explicit Session(const SystemConfig& cfg = SystemConfig{});

  /// Quantize + upload a model; weights become device-resident.
  ModelId deploy(const VitWeights& weights, const std::string& name = "");

  /// Run one image (tokens x d embeddings) through a deployed model.
  InferenceResult infer(ModelId model, std::span<const float> embeddings);

  /// Serve a batch of images in the paper's batch mode (Section III-A:
  /// units "running with independent instructions"): each image runs whole
  /// on one unit of this session's system, so its forward sees a one-unit
  /// system and `results[i].stats` is that one-unit forward's. The batch
  /// schedule LPT-places the images across `num_units` units, each charged
  /// its one-unit compute latency (`results[i].stats.total_cycles()`);
  /// per-image DMA stays in `results[i].dma_cycles` and the command log.
  ///
  /// `pool` (optional) runs the per-image forwards on the parallel
  /// execution engine — each image's compute is independent and lands in
  /// its own result slot, while DMA modelling and the command log are
  /// applied serially in image order afterwards, so results, cycle
  /// counts, and the log are bit-identical to the serial path for any
  /// worker count.
  struct BatchInference {
    std::vector<InferenceResult> results;
    std::uint64_t makespan_cycles = 0;
    double images_per_second = 0.0;
    double utilization = 0.0;
  };
  BatchInference infer_batch(ModelId model,
                             std::span<const std::vector<float>> embeddings,
                             ThreadPool* pool = nullptr);

  /// Online serving: replay a seeded arrival trace against a deployed
  /// model through the virtual-time event loop (admission queue, SLO-aware
  /// continuous batching, per-unit pipeline timelines — serving/
  /// event_loop.hpp). `pool` parallelizes the functional forwards only;
  /// results are bit-identical for any worker count. `event_trace`, when
  /// non-null and enabled, receives the per-unit serving timeline. Appends
  /// one summary record to the command log.
  OnlineServeResult serve(ModelId model, const ArrivalTrace& trace,
                          const ServePolicy& policy,
                          ThreadPool* pool = nullptr,
                          Trace* event_trace = nullptr);

  /// One replica shape a fleet may provision (cards of this session's
  /// card configuration, sharded by `strategy`).
  struct FleetClassConfig {
    int cards = 1;
    PartitionStrategy strategy = PartitionStrategy::kPipeline;
    int initial_replicas = 1;
    int max_replicas = 8;
  };

  /// A heterogeneous, autoscaled, multi-tenant serving fleet.
  struct FleetConfig {
    std::vector<FleetClassConfig> classes = {FleetClassConfig{}};
    TopologyKind topology = TopologyKind::kRing;
    LinkConfig link;            ///< inter-card link within each replica
    TenantSet tenants;          ///< empty = one anonymous tenant
    AutoscalerPolicy autoscaler;
  };

  struct FleetServeResult {
    FleetReport report;
    /// Functional block outputs per request id (class-0 executor; the
    /// partitioner's all-gather discipline makes every class's forward
    /// bit-identical, so one copy represents them all).
    std::vector<std::vector<float>> features;
    std::vector<ClusterStats> request_stats;  ///< class-0, per request id
  };

  /// Fleet-scale online serving: requests from `trace` (optionally
  /// tenant-tagged via assign_tenants) flow through the tiered/quota'd
  /// admission queue onto replicas of the configured classes, with the
  /// virtual-time autoscaler growing and shrinking the fleet. Class 0 is
  /// costed per request (parallel functional forwards, index-owned
  /// slots); other classes are probed once and their per-request pass
  /// replicated — their cost model does not depend on request content.
  /// This is the Session's one clustered entry: one class with the
  /// autoscaler off serves exactly as the free serve_cluster
  /// (cluster/cluster_serving.hpp) does on the class-0 executor, and
  /// reports its `cluster.cards` / `cluster.replicas` counters too.
  /// Appends one summary record to the command log.
  FleetServeResult serve_fleet(ModelId model, const FleetConfig& spec,
                               const ArrivalTrace& trace,
                               const ServePolicy& policy,
                               ThreadPool* pool = nullptr,
                               Trace* event_trace = nullptr);

  /// Release a deployed model's device memory.
  void undeploy(ModelId model);

  const DeploymentInfo& info(ModelId model) const;

  /// A live deployed model and its device buffers (deploy order: each
  /// block's qkv, proj, fc1, fc2 images and its fp32 parameters, then the
  /// head).
  const VitModel& model(ModelId model) const;
  std::span<const DeviceBuffer> buffers(ModelId model) const;
  const std::vector<CommandRecord>& log() const { return log_; }
  void clear_log() { log_.clear(); }

  DeviceMemory& memory() { return memory_; }
  const AcceleratorSystem& system() const { return system_; }

 private:
  struct Deployed {
    bool live = false;
    VitModel model;
    DeploymentInfo info;
    std::vector<DeviceBuffer> buffers;
  };

  Deployed& checked(ModelId model);
  const Deployed& checked(ModelId model) const;

  /// Apply the DMA model and command log to one precomputed forward and
  /// assemble its InferenceResult (serial, deterministic order — the
  /// counterpart of the parallel compute phase).
  InferenceResult account_inference(std::span<const float> embeddings,
                                    std::vector<float> features,
                                    std::vector<float> logits,
                                    const ForwardStats& stats);

  SystemConfig cfg_;
  AcceleratorSystem system_;
  DeviceMemory memory_;
  std::vector<Deployed> models_;
  std::vector<CommandRecord> log_;
};

}  // namespace bfpsim
