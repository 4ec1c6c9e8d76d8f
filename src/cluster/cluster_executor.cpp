#include "cluster/cluster_executor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bfpsim {

ClusterExecutor::ClusterExecutor(const VitWeights& weights,
                                 ClusterTopology topology,
                                 PartitionStrategy strategy)
    : topo_(std::move(topology)),
      plan_(partition_model(weights, strategy, topo_.num_cards())),
      packed_(strategy == PartitionStrategy::kTensor ? plan_.shards.size()
                                                     : 1) {
  topo_.validate();
}

ClusterExecutor::ClusterExecutor(const VitModel& model,
                                 ClusterTopology topology,
                                 PartitionStrategy strategy)
    : topo_(std::move(topology)) {
  topo_.validate();
  if (strategy == PartitionStrategy::kPipeline) {
    plan_ = pipeline_stages(model.config(), topo_.num_cards());
    model_ = &model;
  } else {
    plan_ = partition_model(model.weights(), strategy, topo_.num_cards());
    packed_.resize(plan_.shards.size());
  }
}

std::vector<float> ClusterExecutor::forward(std::vector<float> x,
                                            ClusterStats* stats,
                                            ThreadPool* pool) const {
  AcceleratorSystem sys(topo_.card_config());
  sys.set_thread_pool(pool);
  const std::optional<QuantSpec> spec = sys.packed_spec();
  ClusterStats local;
  if (plan_.strategy == PartitionStrategy::kPipeline) {
    // Each stage walks its block range of the one block list, carrying the
    // state tensor across: the single-card loop, split — bit-identical.
    const std::span<const BlockWeights> blocks =
        model_ != nullptr ? std::span<const BlockWeights>(
                                model_->weights().blocks)
                          : std::span<const BlockWeights>(plan_.blocks);
    std::span<const PackedBlock> packed;
    if (spec.has_value()) {
      packed = model_ != nullptr
                   ? model_->packed_blocks(*spec)
                   : packed_.front().get(plan_.cfg, blocks, *spec);
    }
    VitConfig stage_cfg = plan_.cfg;
    for (const PipelineStage& stage : plan_.stages) {
      const auto first = static_cast<std::size_t>(stage.first_block);
      const auto count = static_cast<std::size_t>(stage.num_blocks);
      const ShardWeights range{
          blocks.subspan(first, count),
          packed.empty() ? packed : packed.subspan(first, count)};
      stage_cfg.depth = stage.num_blocks;
      ForwardStats fstats;
      x = forward_column_shards(stage_cfg,
                                std::span<const ShardWeights>(&range, 1),
                                std::move(x), sys,
                                std::span<ForwardStats>(&fstats, 1));
      local.card_compute_cycles.push_back(fstats.total_cycles());
      local.compute_cycles += fstats.total_cycles();
      local.bfp_macs += fstats.bfp_macs;
      const int c = stage.card;
      if (c + 1 < plan_.cards) {
        const std::uint64_t send =
            topo_.p2p_cycles(c, c + 1, plan_.boundary_bytes);
        local.stage_send_cycles.push_back(send);
        local.collective_cycles += send;
        local.collective_bytes += plan_.boundary_bytes;
      }
    }
  } else {
    // Every card runs the shared encoder-block walk on its column shard,
    // which packs its own slice: shard splits sit on block boundaries.
    std::vector<ShardWeights> shards;
    for (std::size_t c = 0; c < plan_.shards.size(); ++c) {
      const std::span<const BlockWeights> blocks(plan_.shards[c].blocks);
      shards.push_back(
          {blocks, spec.has_value() ? packed_[c].get(plan_.cfg, blocks, *spec)
                                    : std::span<const PackedBlock>{}});
    }
    std::vector<ForwardStats> card_stats(shards.size());
    x = forward_column_shards(plan_.cfg, shards, std::move(x), sys,
                              card_stats);
    for (const ForwardStats& f : card_stats) {
      local.card_compute_cycles.push_back(f.total_cycles());
      local.bfp_macs += f.bfp_macs;
    }
    // Cards run concurrently: the critical path is the slowest card (all
    // equal by symmetry, but max() keeps the invariant explicit).
    local.compute_cycles = *std::max_element(
        local.card_compute_cycles.begin(), local.card_compute_cycles.end());
    // Per block, ring all-gathers reassemble attn_out, the proj output and
    // the fc2 output (t x d each) and the MLP activations (t x m) from the
    // cards' column shards.
    const auto n = static_cast<std::uint64_t>(plan_.cards);
    auto all_gather = [&](std::uint64_t bytes) {
      local.collective_cycles += topo_.all_gather_cycles(bytes);
      if (n > 1) local.collective_bytes += (n - 1) * ((bytes + n - 1) / n) * n;
    };
    const auto t = static_cast<std::uint64_t>(plan_.cfg.tokens());
    for (int blk = 0; blk < plan_.cfg.depth; ++blk) {
      for (int i = 0; i < 3; ++i) {
        all_gather(t * static_cast<std::uint64_t>(plan_.cfg.embed_dim) *
                   sizeof(float));
      }
      all_gather(t * static_cast<std::uint64_t>(plan_.cfg.mlp_hidden()) *
                 sizeof(float));
    }
  }
  if (stats != nullptr) *stats = std::move(local);
  return x;
}

StreamTiming ClusterExecutor::project_stream(const ClusterStats& per_request,
                                             int requests) const {
  BFP_REQUIRE(requests >= 1, "project_stream: need at least one request");
  std::vector<ClusterStats> stream(static_cast<std::size_t>(requests),
                                   per_request);
  return assemble_timing(stream);
}

StreamTiming ClusterExecutor::assemble_timing(
    std::span<const ClusterStats> per_request) const {
  // Tandem-queue recurrence over an alternating chain of resources:
  //   pipeline — card 0, link 0->1, card 1, ..., card C-1;
  //   tensor   — the card group, then the interconnect (request i's
  //              gathers overlap request i+1's compute).
  // finish[r][i] = max(finish[r][i-1], finish[r-1][i]) + time[r][i].
  StreamTiming timing;
  timing.requests = static_cast<int>(per_request.size());
  if (per_request.empty()) return timing;

  const int cards = topo_.num_cards();
  const bool pipelined = plan_.strategy == PartitionStrategy::kPipeline;
  const std::size_t resources =
      pipelined ? static_cast<std::size_t>(2 * cards - 1) : 2;
  auto resource_time = [&](const ClusterStats& s, std::size_t r) {
    if (!pipelined) return r == 0 ? s.compute_cycles : s.collective_cycles;
    return r % 2 == 0 ? s.card_compute_cycles[r / 2]
                      : s.stage_send_cycles[r / 2];
  };

  std::vector<std::uint64_t> finish(resources, 0);
  std::vector<std::uint64_t> card_busy(static_cast<std::size_t>(cards), 0);
  std::uint64_t compute_total = 0;
  std::uint64_t collective_total = 0;
  for (const ClusterStats& s : per_request) {
    std::uint64_t upstream = 0;
    for (std::size_t r = 0; r < resources; ++r) {
      finish[r] = std::max(finish[r], upstream) + resource_time(s, r);
      upstream = finish[r];
    }
    for (int c = 0; c < cards; ++c) {
      card_busy[static_cast<std::size_t>(c)] +=
          s.card_compute_cycles[static_cast<std::size_t>(c)];
    }
    compute_total += s.compute_cycles;
    collective_total += s.collective_cycles;
    timing.collective_bytes += s.collective_bytes;
  }

  timing.request_cycles = per_request[0].total_cycles();
  timing.makespan_cycles = finish.back();
  timing.requests_per_second =
      timing.makespan_cycles == 0
          ? 0.0
          : static_cast<double>(per_request.size()) *
                topo_.card_config().pu.freq_hz /
                static_cast<double>(timing.makespan_cycles);
  timing.card_utilization.resize(static_cast<std::size_t>(cards), 0.0);
  for (int c = 0; c < cards; ++c) {
    timing.card_utilization[static_cast<std::size_t>(c)] =
        timing.makespan_cycles == 0
            ? 0.0
            : static_cast<double>(card_busy[static_cast<std::size_t>(c)]) /
                  static_cast<double>(timing.makespan_cycles);
  }
  const std::uint64_t work = compute_total + collective_total;
  timing.collective_share =
      work == 0 ? 0.0
                : static_cast<double>(collective_total) /
                      static_cast<double>(work);
  return timing;
}

}  // namespace bfpsim
