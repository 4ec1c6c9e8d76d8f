// Heterogeneous fleet routing: placement, spawn-class, and retirement
// choices over replicas of differing card counts and partition strategies.
//
// Pure functions over the fleet loop's replica table, with every tie
// broken explicitly, so routing is a deterministic function of its inputs:
//
//  * placement — among free replicas, the one whose class serves the head
//    request cheapest (per-request pass cycles from the cluster cost
//    model), tie-broken by lowest instance id. A homogeneous pool
//    degenerates to "lowest free instance id", the first-free-executor
//    scan that single-card and cluster serving rely on.
//  * spawn class — the cheapest class (per-request service estimate at
//    request 0's pass, a stable proxy) that still has headroom under its
//    max_replicas cap, tie-broken by lowest class index.
//  * retirement — the most expensive idle replica (it frees the most
//    provisioned cycles), tie-broken by highest instance id (retire the
//    newest first, keeping the long-lived low ids stable in traces).
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/pipeline.hpp"

namespace bfpsim {

/// One provisioned replica in the fleet loop's table. Instance ids are
/// dense and monotone (never reused), so a retired replica's id — and its
/// Chrome-trace lane — stays retired forever.
struct ReplicaInstance {
  int instance = 0;   ///< dense monotone id (== index in the table)
  int cls = 0;        ///< index into FleetSpec::classes
  std::uint64_t ready_cycle = 0;   ///< spawn + cold start
  std::uint64_t busy_until = 0;
  bool retired = false;
  std::uint64_t provisioned_cycle = 0;  ///< when the spawn was decided
  std::uint64_t retired_cycle = 0;      ///< valid iff retired
  /// Hard executor failure: never routed again, but stays provisioned
  /// (a dead executor still counts in utilization's denominator).
  bool failed = false;
};

/// pass.load + compute + store for request `id` in class `cls`'s table.
std::uint64_t class_service_estimate(const std::vector<PassSpec>& passes,
                                     int id);

/// Free replica (ready, idle, not retired or failed) that serves `head_id`
/// cheapest; -1 if none is free. `class_passes[c]` is class c's
/// per-request pass table.
int pick_replica(const std::vector<ReplicaInstance>& replicas,
                 const std::vector<std::vector<PassSpec>>& class_passes,
                 std::uint64_t now, int head_id);

/// Cheapest service estimate for `head_id` over classes that have at
/// least one live (non-retired, possibly busy or cold) replica — the
/// batcher's "what would serving now cost" bound. 0 if no live replicas.
std::uint64_t min_service_estimate(
    const std::vector<ReplicaInstance>& replicas,
    const std::vector<std::vector<PassSpec>>& class_passes, int head_id);

/// Class to spawn the next replica from: cheapest class with live-count
/// (non-retired instances, ready or cold) below `class_max[c]`; -1 when
/// every class is at its cap.
int pick_spawn_class(const std::vector<ReplicaInstance>& replicas,
                     const std::vector<std::vector<PassSpec>>& class_passes,
                     const std::vector<int>& class_max);

/// Idle ready replica (not failed) to retire (most expensive class, then
/// highest instance id); -1 if none is idle.
int pick_retire(const std::vector<ReplicaInstance>& replicas,
                const std::vector<std::vector<PassSpec>>& class_passes,
                std::uint64_t now);

}  // namespace bfpsim
