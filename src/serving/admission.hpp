// The serving loop's admission queue: bounded, deadline-ordered, with
// priority tiers and per-tenant quotas.
//
// Entries are ordered earliest deadline first (request id as the
// tie-break) within a tier, so the continuous batcher always sees the most
// urgent admitted request at the head. Depth is bounded: a request
// arriving at a full queue is handled by the DropPolicy (serving/queue.hpp).
// Two multi-tenant policies sit on top:
//
//  * per-tenant quotas — each tenant owns a fixed number of queue slots
//    (TenantSet::quota_slots); a request arriving with its tenant at quota
//    is rejected even if the queue has room, so one noisy tenant cannot
//    crowd out the rest;
//  * priority tiers — entries are ordered by (tier, deadline, id), tier 0
//    first, so the batcher always serves the most urgent request of the
//    highest-priority tier; when the queue is full a newcomer may shed the
//    lowest-priority entry (the queue tail: worst tier, latest deadline,
//    highest id) if and only if that entry's tier is strictly worse than
//    the newcomer's — equal-tier traffic falls back to the configured
//    DropPolicy.
//
// With one tenant (quota = whole capacity) and one tier, the queue is the
// plain bounded EDF queue: quotas and tiers never bind, and the victims
// are the DropPolicy's (pinned by
// FleetAdmission.SingleTenantReducesToAdmissionQueue).
//
// Purely serial, purely deterministic: every operation is a function of
// the call sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serving/queue.hpp"

namespace bfpsim {

/// What happened to a push.
struct FleetPushOutcome {
  bool admitted = false;
  bool quota_rejected = false;  ///< tenant at quota (queue may have room)
  bool had_victim = false;      ///< a lower-tier entry was shed to admit
  QueueEntry victim;            ///< valid iff had_victim
};

class FleetAdmissionQueue {
 public:
  /// `quota_slots[t]` = queue slots tenant t may hold; empty = one
  /// anonymous tenant owning the whole capacity.
  FleetAdmissionQueue(std::size_t capacity, DropPolicy policy,
                      std::vector<std::size_t> quota_slots);

  /// Offer a request. With room, the tenant's quota alone decides; when
  /// full, the would-be victim is chosen first (see the header comment
  /// for the shed order) and the newcomer's quota is charged net of any
  /// same-tenant victim, so a lone tenant sheds exactly as the plain
  /// DropPolicy says.
  [[nodiscard]] FleetPushOutcome push(const QueueEntry& e);

  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Highest-priority, earliest-deadline entry (requires !empty()).
  const QueueEntry& front() const { return q_.front(); }

  /// Remove and return the front entry (requires !empty()).
  QueueEntry pop();

  /// Put an already-admitted entry back (executor-failure retry).
  /// Bypasses both the capacity bound and the tenant quota: the request
  /// was admitted once and backpressure must not turn a fault into a drop.
  void requeue(const QueueEntry& e);

  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t quota_rejected() const { return quota_rejected_; }
  std::uint64_t shed() const { return shed_; }
  std::size_t peak_depth() const { return peak_depth_; }

  /// Entries tenant t holds right now (0 for unknown tenants).
  std::size_t held(int tenant) const;

 private:
  void insert_sorted(const QueueEntry& e);
  void release(const QueueEntry& e);  ///< quota bookkeeping on removal

  std::size_t capacity_;
  DropPolicy policy_;
  std::vector<std::size_t> quota_;    ///< per-tenant slot budget
  std::vector<std::size_t> held_;     ///< per-tenant entries in queue
  std::vector<QueueEntry> q_;         ///< sorted by (tier, deadline, id)
  std::uint64_t rejected_ = 0;        ///< full-queue rejections
  std::uint64_t quota_rejected_ = 0;  ///< tenant-quota rejections
  std::uint64_t shed_ = 0;
  std::size_t peak_depth_ = 0;
};

}  // namespace bfpsim
