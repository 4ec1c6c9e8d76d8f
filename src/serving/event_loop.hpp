// The online request-serving engine: one deterministic virtual-time event
// loop behind single-card serving (serve_online), cluster serving
// (serve_cluster) and fleet serving (Session::serve_fleet). This module
// holds the loop and its pass tables only; the callers and their
// functional phase live in cluster/cluster_serving.hpp and
// runtime/session.hpp.
//
// Execution is split the same way PR 1's batch engine splits it:
//
//  1. a *parallel functional phase* — cluster_forwards runs every
//     request's forward into an index-owned slot (shared read-only
//     model), giving per-request features and modelled compute cycles for
//     any worker count bit-identically, and turns them into per-request
//     pass costs;
//  2. a *serial virtual-time phase* — serve_fleet consumes the arrival
//     trace, pushes requests through the bounded admission queue, and lets
//     the SLO-aware continuous batcher form batches on the fly: whenever a
//     replica is idle it takes up to `max_batch` requests in queue order,
//     dispatching early when the head's SLO slack or the max-wait bound
//     says waiting for a fuller batch would cost more than it buys. Batch
//     service times come from the double-buffered pipeline timeline
//     (fabric/pipeline.hpp), so a request's completion is its own pass's
//     store_end, not the batch tail.
//
// What stands behind the queue is a pool of replicas of one or more
// classes. The loop does not care what a replica *is* — one PU-unit of a
// card (serve_online, prefix "unit") or a whole sharded multi-card cluster
// (serve_cluster and the fleet, prefix "replica") — only what each
// request's pass costs on it. On top of the plain loop sit three fleet
// concerns, each inert in the one-class configuration the single-card and
// cluster callers build:
//
//  * the admission queue's priority tiers and per-tenant quotas
//    (serving/admission.hpp; one tenant = the plain deadline queue),
//  * the router (serving/router.hpp), which places each batch on the free
//    replica that serves the head request cheapest (one class = the
//    lowest free instance id), and
//  * the autoscaler (serving/autoscaler.hpp), which adds replicas under SLO
//    pressure — paying an explicit cold-start latency — and retires idle
//    ones, on a periodic tick (off by default).
//
// Hard executor failures (FleetSpec::failures) kill a replica for good:
// its in-flight batch is aborted and the affected requests are re-queued
// onto the survivors, up to ServePolicy::max_retries each.
//
// Determinism contract: the event queue orders by (cycle, push sequence),
// every tie-break is explicit, and the loop itself is serial — worker
// count only affects phase 1, whose slots are index-owned. Same trace +
// policy + spec => bit-identical records, percentiles, and counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/pipeline.hpp"
#include "reliability/fault_model.hpp"
#include "serving/autoscaler.hpp"
#include "serving/metrics.hpp"
#include "serving/queue.hpp"
#include "serving/router.hpp"
#include "serving/tenant.hpp"
#include "serving/workload.hpp"
#include "sim/trace.hpp"

namespace bfpsim {

/// Knobs of the admission queue and the continuous batcher.
struct ServePolicy {
  std::size_t queue_capacity = 64;
  DropPolicy drop_policy = DropPolicy::kRejectNewest;

  int max_batch = 4;  ///< per-replica batch size cap

  /// Longest a head-of-queue request may wait for a fuller batch before a
  /// partial batch is forced out.
  std::uint64_t max_wait_cycles = 30000;

  /// Latency SLO per request (arrival -> complete), converted to cycles at
  /// the system frequency. The batcher dispatches a partial batch early
  /// when waiting longer would push the head request past its deadline.
  double slo_ms = 5.0;

  /// Re-dispatch attempts an admitted request gets after its executor
  /// dies mid-batch, before it is abandoned (counted serve.failed). Only
  /// consulted when FleetSpec::failures is non-empty.
  int max_retries = 3;

  void validate() const;
};

/// One shape of replica the loop may provision: `cards` cards running
/// `strategy` partitioning, costed by a per-request pass table.
struct ReplicaClassSpec {
  std::string name;      ///< e.g. "1xpipeline", "2xtensor"
  int cards = 1;         ///< cards per replica (reporting)
  std::string strategy;  ///< partition strategy name (reporting)
  /// Per request id: the load/compute/store cycles of one service pass on
  /// a replica of this class (indexed by RequestArrival::id; batches
  /// pipeline these double-buffered).
  std::vector<PassSpec> passes;
  int initial_replicas = 1;      ///< provisioned ready at cycle 0
  int max_replicas = 8;          ///< autoscaler cap (live instances)
};

/// Everything serve_fleet needs besides the trace and the batcher policy.
struct FleetSpec {
  double freq_hz = 300.0e6;  ///< fabric frequency, for SLO conversion
  std::vector<ReplicaClassSpec> classes;
  TenantSet tenants;          ///< empty = one anonymous tenant
  AutoscalerPolicy autoscaler;
  /// Event-trace component prefix ("unit" -> unit0, unit1, ...).
  std::string replica_prefix = "replica";

  /// Hard executor failures in virtual time (reliability subsystem),
  /// indexed by initial replica instance id. At each failure cycle the
  /// replica goes permanently dead: its in-flight batch is aborted and the
  /// affected requests are re-queued onto the survivors (up to
  /// ServePolicy::max_retries each). Not combinable with the autoscaler.
  std::vector<ExecutorFailure> failures;

  void validate(int total_requests) const;
};

/// One autoscaler action, in decision order.
struct FleetScaleEvent {
  std::uint64_t cycle = 0;
  bool up = false;    ///< spawn (true) or retire (false)
  int instance = 0;   ///< replica instance id
  int cls = 0;        ///< replica class index
};

/// A replica class as reported (the pass table stays in the spec).
struct FleetClassInfo {
  std::string name;
  int cards = 1;
  std::string strategy;
  int initial_replicas = 0;
  int max_replicas = 0;
};

/// A run's outcome: the familiar serving report (records indexed by
/// replica instance id in LatencyRecord::unit) plus the fleet ledger.
struct FleetReport {
  ServeReport serve;

  std::vector<FleetClassInfo> classes;  ///< spec order

  std::vector<FleetScaleEvent> scale_events;  ///< decision order
  std::vector<ReplicaInstance> replicas;      ///< final table, id order

  /// Provisioned replica-cycles: for each instance, spawn decision to
  /// retirement (or makespan). Cold starts are paid for — a replica costs
  /// cycles from the moment it is provisioned, not the moment it is
  /// usable. The static peak-sized fleet's figure is
  /// peak_replicas * makespan; an autoscaler earns its keep by holding
  /// the SLO on strictly fewer.
  std::uint64_t replica_cycles = 0;
  int peak_replicas = 0;  ///< max simultaneously live (ready or cold)

  /// Stable-key JSON: {"fleet":{...}, "serve":<ServeReport::to_json()>}.
  std::string to_json() const;
};

/// The serial virtual-time phase: consume the arrival trace, push requests
/// through the admission queue, batch onto the spec's replicas. Tenant
/// tags ride on trace.arrivals (assign_tenants) and must name tenants of
/// spec.tenants; per-tenant SLO overrides come from spec.tenants.
/// `event_trace` events from replicas carry per-instance Chrome-trace pids
/// (stable lanes even across spawn/retire churn).
FleetReport serve_fleet(const FleetSpec& spec, const ArrivalTrace& trace,
                        const ServePolicy& policy,
                        Trace* event_trace = nullptr);

}  // namespace bfpsim
