// Multi-tenant workload description for fleet-scale serving.
//
// A TenantSet names the tenants sharing one fleet, each with a priority
// tier (0 = highest), an admission-quota weight, and an optional per-tenant
// SLO override. Tenants map onto requests by stamping the arrival trace
// (assign_tenants): the assignment is a pure function of the weights and
// the request id — a weighted round-robin schedule — so the same trace and
// tenant set always yield the same tags on every platform, with no RNG
// involved at all.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "serving/workload.hpp"

namespace bfpsim {

/// One tenant sharing the fleet.
struct TenantSpec {
  std::string name;
  int tier = 0;        ///< priority tier, 0 = highest
  double weight = 1.0; ///< admission-quota share (relative)
  /// Per-tenant latency SLO in milliseconds; 0 inherits ServePolicy::slo_ms.
  double slo_ms = 0.0;
};

/// The tenants of one fleet run. Empty = a single anonymous tenant (the
/// degenerate configuration every pre-fleet experiment uses).
struct TenantSet {
  std::vector<TenantSpec> tenants;

  bool empty() const { return tenants.empty(); }
  std::size_t size() const { return tenants.size(); }

  void validate() const;

  /// Admission-queue slots per tenant: floor(capacity * w_t / sum(w)),
  /// clamped to at least 1 so no tenant can be starved outright. A
  /// single-tenant set gets the whole capacity, so the quota never binds
  /// and the admission queue is the plain bounded deadline queue.
  std::vector<std::size_t> quota_slots(std::size_t capacity) const;
};

/// Stamp `trace` arrivals with tenant tags by weighted round-robin over
/// request ids: a schedule of length sum(round(w_t * granularity)) lists
/// tenant k round(w_k * granularity) times in tenant order, and arrival i
/// takes schedule[i mod len]. Deterministic, proportional, RNG-free.
/// An empty tenant set leaves the trace untouched (everyone is tenant 0).
void assign_tenants(ArrivalTrace* trace, const TenantSet& tenants);

}  // namespace bfpsim
