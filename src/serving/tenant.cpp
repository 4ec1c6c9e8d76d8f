#include "serving/tenant.hpp"

#include <cmath>

#include "common/error.hpp"

namespace bfpsim {

void TenantSet::validate() const {
  for (const TenantSpec& t : tenants) {
    BFP_REQUIRE(t.tier >= 0, "TenantSet: tier must be >= 0");
    BFP_REQUIRE(t.weight > 0.0, "TenantSet: weight must be positive");
    BFP_REQUIRE(t.slo_ms >= 0.0, "TenantSet: slo_ms must be >= 0");
  }
}

std::vector<std::size_t> TenantSet::quota_slots(std::size_t capacity) const {
  std::vector<std::size_t> slots;
  if (tenants.empty()) return slots;
  double total = 0.0;
  for (const TenantSpec& t : tenants) total += t.weight;
  slots.reserve(tenants.size());
  for (const TenantSpec& t : tenants) {
    const double share = static_cast<double>(capacity) * t.weight / total;
    auto s = static_cast<std::size_t>(share);  // floor: share >= 0
    if (s < 1) s = 1;
    slots.push_back(s);
  }
  return slots;
}

void assign_tenants(ArrivalTrace* trace, const TenantSet& tenants) {
  if (tenants.empty()) return;
  tenants.validate();
  // Smooth weighted round-robin on integer credits: weights are rounded
  // to per-mille of the total (clamped to >= 1 so no tenant vanishes),
  // each step every tenant earns its share, and the richest tenant (tie:
  // lowest index) takes the request and pays the pot. Interleaved and
  // proportional from the very first arrival — no RNG, no fp compares.
  double total = 0.0;
  for (const TenantSpec& t : tenants.tenants) total += t.weight;
  std::vector<long> share;
  share.reserve(tenants.size());
  long pot = 0;
  for (const TenantSpec& t : tenants.tenants) {
    long s = std::lround(t.weight / total * 1000.0);
    if (s < 1) s = 1;
    share.push_back(s);
    pot += s;
  }
  std::vector<long> credit(share.size(), 0);
  for (RequestArrival& a : trace->arrivals) {
    std::size_t best = 0;
    for (std::size_t k = 0; k < credit.size(); ++k) {
      credit[k] += share[k];
      if (credit[k] > credit[best]) best = k;
    }
    credit[best] -= pot;
    a.tenant = static_cast<int>(best);
  }
}

}  // namespace bfpsim
