#include "serving/router.hpp"

#include "common/error.hpp"

namespace bfpsim {

std::uint64_t class_service_estimate(const std::vector<PassSpec>& passes,
                                     int id) {
  BFP_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < passes.size(),
              "class_service_estimate: request id out of range");
  const PassSpec& p = passes[static_cast<std::size_t>(id)];
  return p.load_cycles + p.compute_cycles + p.store_cycles;
}

int pick_replica(const std::vector<ReplicaInstance>& replicas,
                 const std::vector<std::vector<PassSpec>>& class_passes,
                 std::uint64_t now, int head_id) {
  int best = -1;
  std::uint64_t best_est = 0;
  for (const ReplicaInstance& r : replicas) {
    if (r.retired || r.failed || r.ready_cycle > now || r.busy_until > now) {
      continue;
    }
    const std::uint64_t est = class_service_estimate(
        class_passes[static_cast<std::size_t>(r.cls)], head_id);
    // Strict < keeps the lowest instance id on ties (the table is in
    // instance order): the first-free-executor scan when all classes cost
    // the same.
    if (best < 0 || est < best_est) {
      best = r.instance;
      best_est = est;
    }
  }
  return best;
}

std::uint64_t min_service_estimate(
    const std::vector<ReplicaInstance>& replicas,
    const std::vector<std::vector<PassSpec>>& class_passes, int head_id) {
  bool any = false;
  std::uint64_t best = 0;
  for (const ReplicaInstance& r : replicas) {
    if (r.retired) continue;
    const std::uint64_t est = class_service_estimate(
        class_passes[static_cast<std::size_t>(r.cls)], head_id);
    if (!any || est < best) {
      any = true;
      best = est;
    }
  }
  return best;
}

int pick_spawn_class(const std::vector<ReplicaInstance>& replicas,
                     const std::vector<std::vector<PassSpec>>& class_passes,
                     const std::vector<int>& class_max) {
  std::vector<int> live(class_passes.size(), 0);
  for (const ReplicaInstance& r : replicas) {
    if (!r.retired) ++live[static_cast<std::size_t>(r.cls)];
  }
  int best = -1;
  std::uint64_t best_est = 0;
  for (std::size_t c = 0; c < class_passes.size(); ++c) {
    if (live[c] >= class_max[c]) continue;
    const std::uint64_t est = class_service_estimate(class_passes[c], 0);
    if (best < 0 || est < best_est) {
      best = static_cast<int>(c);
      best_est = est;
    }
  }
  return best;
}

int pick_retire(const std::vector<ReplicaInstance>& replicas,
                const std::vector<std::vector<PassSpec>>& class_passes,
                std::uint64_t now) {
  int best = -1;
  std::uint64_t best_est = 0;
  for (const ReplicaInstance& r : replicas) {
    if (r.retired || r.failed || r.ready_cycle > now || r.busy_until > now) {
      continue;
    }
    const std::uint64_t est = class_service_estimate(
        class_passes[static_cast<std::size_t>(r.cls)], 0);
    // >= : on equal cost prefer the higher instance id (the newest).
    if (best < 0 || est >= best_est) {
      best = r.instance;
      best_est = est;
    }
  }
  return best;
}

}  // namespace bfpsim
