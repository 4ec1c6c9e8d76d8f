// Admission-queue vocabulary shared by the serving loop and its queue
// (serving/admission.hpp): the drop policy a full queue applies and the
// entry it holds.
//
// When a request arrives at a full queue the drop policy decides who pays —
//
//  * kRejectNewest — the arriving request is rejected (classic tail-drop:
//    admitted work is never abandoned), or
//  * kShedOldest   — the longest-waiting entry (the head, which under a
//    uniform SLO is also the most-likely-already-doomed one) is shed to
//    admit the newcomer (head-drop, as load-shedding proxies do).
#pragma once

#include <cstdint>

namespace bfpsim {

enum class DropPolicy {
  kRejectNewest,
  kShedOldest,
};

/// One admitted request waiting to be batched.
struct QueueEntry {
  int id = 0;
  std::uint64_t arrival_cycle = 0;
  std::uint64_t deadline_cycle = 0;  ///< arrival + SLO budget
  int tenant = 0;  ///< tenant tag (0 = the anonymous tenant)
  int tier = 0;    ///< priority tier, 0 = highest
};

}  // namespace bfpsim
