// Online serving on top of the cluster executor. Two entry points share
// one functional phase, cluster_forwards:
//
//  * serve_cluster — `replicas` data-parallel copies of a sharded (tensor-
//    or pipeline-parallel) cluster stand behind the bounded admission
//    queue and SLO-aware continuous batcher of serve_fleet, which does not
//    care that a replica is a whole multi-card cluster;
//  * serve_online — single-card serving, where every PU unit of the card
//    is a replica: phase 1 runs on a 1-card pipeline executor whose card
//    has one unit.
//
// Both split the work in two: a parallel functional phase runs every
// request's forward into index-owned slots (bit-identical for any worker
// count), then the serial virtual-time loop schedules the replicas. A
// replica's service pass is: load the request activations over the host
// link into card HBM, run the forward (compute + collectives on the
// request critical path), store the features back.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_executor.hpp"
#include "reliability/degradation.hpp"
#include "serving/event_loop.hpp"

namespace bfpsim {

/// Phase 1 of cluster serving, shared by serve_cluster and
/// Session::serve_fleet: every request's sharded forward on `exec` and the
/// per-request pass table a replica of `exec` serves them with. Every slot
/// is populated, even for requests the queue later rejects — that is what
/// makes the phase parallel.
struct ClusterForwards {
  std::vector<std::vector<float>> features;  ///< per request id
  std::vector<ClusterStats> request_stats;   ///< per request id
  std::vector<PassSpec> passes;              ///< per request id

  /// Add the functional-work counters (bfp MACs, collective cycles and
  /// bytes) to `counters`, in request-id order.
  void add_counters(Counters& counters) const;
};

/// Run phase 1 for `trace`. `pool` parallelizes the forwards (nullptr =
/// serial); request i's embeddings derive from trace.seed + i.
ClusterForwards cluster_forwards(const ClusterExecutor& exec,
                                 const ArrivalTrace& trace, ThreadPool* pool);

struct ClusterServeResult {
  ServeReport report;
  /// Functional block outputs per request id (see ClusterForwards).
  std::vector<std::vector<float>> features;
  std::vector<ClusterStats> request_stats;  ///< per request id
};

/// Serve `trace` against `replicas` copies of the sharded cluster `exec`.
/// `pool` parallelizes the functional forwards only; `event_trace`
/// receives cycle-stamped queue/replica events (components "queue",
/// "replica<k>").
///
/// `card_failures` (cards numbered globally, replica r owning cards
/// [r*num_cards, (r+1)*num_cards)) are hard failures in virtual time: a
/// dead card kills its whole sharded replica, whose in-flight requests
/// fail over to the surviving replicas through the event loop's retry
/// path. Empty (default) = today's behaviour, bit for bit.
ClusterServeResult serve_cluster(
    const ClusterExecutor& exec, int replicas, const ArrivalTrace& trace,
    const ServePolicy& policy, ThreadPool* pool = nullptr,
    Trace* event_trace = nullptr,
    const std::vector<CardFailure>& card_failures = {});

/// Outcome of one single-card serving run.
struct OnlineServeResult {
  ServeReport report;
  /// Functional block outputs per request id (see ClusterForwards).
  std::vector<std::vector<float>> features;
  std::vector<std::uint64_t> compute_cycles;  ///< modelled, per request id
};

/// Serve `trace` against `model` on the multi-unit `sys`: every unit is a
/// replica of the one loop.
///
/// `pool` parallelizes the functional forwards only (nullptr = serial);
/// `event_trace`, when non-null and enabled, receives cycle-stamped
/// queue/unit events (components "queue", "unit<k>") suitable for
/// Trace::to_chrome_json().
OnlineServeResult serve_online(const VitModel& model,
                               const AcceleratorSystem& sys,
                               const ArrivalTrace& trace,
                               const ServePolicy& policy,
                               ThreadPool* pool = nullptr,
                               Trace* event_trace = nullptr);

}  // namespace bfpsim
