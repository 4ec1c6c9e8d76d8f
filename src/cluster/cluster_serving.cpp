#include "cluster/cluster_serving.hpp"

#include "common/error.hpp"
#include "fabric/hbm.hpp"

namespace bfpsim {

void ClusterForwards::add_counters(Counters& counters) const {
  for (const ClusterStats& st : request_stats) {
    counters.add("serve.bfp_macs", st.bfp_macs);
    counters.add("cluster.collective_cycles", st.collective_cycles);
    counters.add("cluster.collective_bytes", st.collective_bytes);
  }
}

ClusterForwards cluster_forwards(const ClusterExecutor& exec,
                                 const ArrivalTrace& trace,
                                 ThreadPool* pool) {
  const VitConfig& cfg = exec.config();
  const auto un = static_cast<std::size_t>(trace.total_requests);
  ClusterForwards out;
  out.features.resize(un);
  out.request_stats.resize(un);

  // Sharded functional forwards, index-owned slots.
  auto run_request = [&](std::size_t i) {
    std::vector<float> x = random_embeddings(
        cfg, trace.seed + static_cast<std::uint64_t>(i));
    out.features[i] =
        exec.forward(std::move(x), &out.request_stats[i], nullptr);
  };
  if (pool != nullptr) {
    pool->parallel_for(un, run_request);
  } else {
    for (std::size_t i = 0; i < un; ++i) run_request(i);
  }

  // Activations in over HBM, features (tokens x d) back out.
  const SystemConfig& card = exec.topology().card_config();
  const std::uint64_t io_bytes =
      static_cast<std::uint64_t>(cfg.tokens()) *
      static_cast<std::uint64_t>(cfg.embed_dim) * sizeof(float);
  const std::uint64_t io_cycles =
      transfer_cycles(card.hbm, io_bytes, card.hbm.bfp_burst_bytes);
  out.passes.reserve(un);
  for (const ClusterStats& st : out.request_stats) {
    out.passes.push_back({io_cycles, st.total_cycles(), io_cycles});
  }
  return out;
}

ClusterServeResult serve_cluster(const ClusterExecutor& exec, int replicas,
                                 const ArrivalTrace& trace,
                                 const ServePolicy& policy,
                                 ThreadPool* pool, Trace* event_trace,
                                 const std::vector<CardFailure>& card_failures) {
  trace.validate();
  policy.validate();
  BFP_REQUIRE(replicas >= 1, "serve_cluster: need at least one replica");

  // ---- phase 1: sharded functional forwards, index-owned slots ----
  ClusterForwards fwd = cluster_forwards(exec, trace, pool);

  // ---- phase 2: the serial event loop over a fixed replica pool ----
  FleetSpec spec;
  spec.freq_hz = exec.topology().card_config().pu.freq_hz;
  spec.failures = replica_failures(card_failures, exec.num_cards(), replicas);
  ReplicaClassSpec cls;
  cls.cards = exec.num_cards();
  cls.passes = std::move(fwd.passes);
  cls.initial_replicas = replicas;
  cls.max_replicas = replicas;
  spec.classes.push_back(std::move(cls));

  ClusterServeResult out;
  out.report = serve_fleet(spec, trace, policy, event_trace).serve;
  fwd.add_counters(out.report.counters);
  out.report.counters.add("cluster.cards",
                          static_cast<std::uint64_t>(exec.num_cards()));
  out.report.counters.add("cluster.replicas",
                          static_cast<std::uint64_t>(replicas));
  if (!card_failures.empty()) {
    out.report.counters.add("cluster.card_failures", card_failures.size());
  }
  out.features = std::move(fwd.features);
  out.request_stats = std::move(fwd.request_stats);
  return out;
}

OnlineServeResult serve_online(const VitModel& model,
                               const AcceleratorSystem& sys,
                               const ArrivalTrace& trace,
                               const ServePolicy& policy,
                               ThreadPool* pool, Trace* event_trace) {
  trace.validate();
  policy.validate();
  BFP_REQUIRE(sys.config().num_units >= 1,
              "serve_online: system has no units");

  // ---- phase 1: each request runs whole on one unit of the card ----
  SystemConfig one = sys.config();
  one.num_units = 1;
  const ClusterExecutor exec(model, ClusterTopology::ring(1, {}, one),
                             PartitionStrategy::kPipeline);
  ClusterForwards fwd = cluster_forwards(exec, trace, pool);

  // ---- phase 2: the serial event loop, one replica per unit ----
  FleetSpec spec;
  spec.freq_hz = sys.config().pu.freq_hz;
  spec.replica_prefix = "unit";
  ReplicaClassSpec units;
  units.passes = std::move(fwd.passes);
  units.initial_replicas = sys.config().num_units;
  units.max_replicas = units.initial_replicas;
  spec.classes.push_back(std::move(units));

  OnlineServeResult out;
  out.report = serve_fleet(spec, trace, policy, event_trace).serve;
  // Only the bfp MAC counter: a single card has no collective traffic to
  // report.
  out.compute_cycles.reserve(fwd.request_stats.size());
  for (const ClusterStats& st : fwd.request_stats) {
    out.report.counters.add("serve.bfp_macs", st.bfp_macs);
    out.compute_cycles.push_back(st.compute_cycles);
  }
  out.features = std::move(fwd.features);
  return out;
}

}  // namespace bfpsim
