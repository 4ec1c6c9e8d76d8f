#include "serving/autoscaler.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace bfpsim {

void AutoscalerPolicy::validate() const {
  if (!enabled) return;
  BFP_REQUIRE(interval_cycles >= 1,
              "AutoscalerPolicy: interval must be >= 1 cycle");
  BFP_REQUIRE(up_queue_per_replica > 0.0,
              "AutoscalerPolicy: up threshold must be positive");
  BFP_REQUIRE(down_headroom > 0.0 && down_headroom <= 1.0,
              "AutoscalerPolicy: down headroom must be in (0, 1]");
  BFP_REQUIRE(scale_step >= 1, "AutoscalerPolicy: scale step must be >= 1");
  BFP_REQUIRE(min_replicas >= 1,
              "AutoscalerPolicy: min replicas must be >= 1");
  BFP_REQUIRE(window >= 1, "AutoscalerPolicy: window must be >= 1");
}

Autoscaler::Autoscaler(const AutoscalerPolicy& policy) : policy_(policy) {
  policy_.validate();
  if (policy_.enabled) window_.resize(policy_.window, 0);
}

void Autoscaler::observe_completion(std::uint64_t total_cycles) {
  if (!policy_.enabled) return;
  window_[next_slot_] = total_cycles;
  next_slot_ = (next_slot_ + 1) % window_.size();
  if (next_slot_ == 0) window_full_ = true;
}

std::uint64_t Autoscaler::window_p95() const {
  const std::size_t n = window_full_ ? window_.size() : next_slot_;
  if (n == 0) return 0;
  std::vector<std::uint64_t> sorted(window_.begin(),
                                    window_.begin() + static_cast<long>(n));
  std::sort(sorted.begin(), sorted.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

ScaleDecision Autoscaler::evaluate(std::uint64_t now,
                                   std::size_t queue_depth, int ready,
                                   int pending, std::uint64_t slo_cycles) {
  ScaleDecision d;
  if (!policy_.enabled || now < cooldown_until_) return d;

  const int provisioned = std::max(1, ready + pending);
  const std::uint64_t p95 = window_p95();
  const bool depth_pressure =
      static_cast<double>(queue_depth) >
      policy_.up_queue_per_replica * static_cast<double>(provisioned);
  const bool slo_pressure = p95 != 0 && p95 >= slo_cycles;
  if (depth_pressure || slo_pressure) {
    d.spawn = policy_.scale_step;
    cooldown_until_ = now + policy_.cooldown_cycles;
    return d;
  }

  const bool idle = queue_depth == 0 && pending == 0;
  const bool headroom =
      p95 != 0 && static_cast<double>(p95) <=
                      policy_.down_headroom * static_cast<double>(slo_cycles);
  if (idle && headroom && ready > policy_.min_replicas) {
    d.retire = true;
    cooldown_until_ = now + policy_.cooldown_cycles;
  }
  return d;
}

}  // namespace bfpsim
