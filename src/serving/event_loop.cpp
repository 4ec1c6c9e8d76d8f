#include "serving/event_loop.hpp"

#include <algorithm>
#include <cstdio>
#include <queue>
#include <span>
#include <sstream>
#include <string>

#include "common/arena.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "serving/admission.hpp"

namespace bfpsim {

void ServePolicy::validate() const {
  BFP_REQUIRE(queue_capacity >= 1, "ServePolicy: queue capacity must be >= 1");
  BFP_REQUIRE(max_batch >= 1, "ServePolicy: max batch must be >= 1");
  BFP_REQUIRE(slo_ms > 0.0, "ServePolicy: SLO must be positive");
  BFP_REQUIRE(max_retries >= 0, "ServePolicy: max_retries must be >= 0");
}

void FleetSpec::validate(int total_requests) const {
  BFP_REQUIRE(freq_hz > 0.0, "FleetSpec: frequency must be positive");
  BFP_REQUIRE(!classes.empty(), "FleetSpec: need at least one replica class");
  int initial = 0;
  for (const ReplicaClassSpec& c : classes) {
    BFP_REQUIRE(c.cards >= 1, "FleetSpec: class needs >= 1 card");
    BFP_REQUIRE(c.initial_replicas >= 0,
                "FleetSpec: initial replicas must be >= 0");
    BFP_REQUIRE(c.max_replicas >= std::max(1, c.initial_replicas),
                "FleetSpec: max replicas must cover the initial fleet");
    BFP_REQUIRE(c.passes.size() >= static_cast<std::size_t>(total_requests),
                "FleetSpec: class needs one pass spec per request id");
    initial += c.initial_replicas;
  }
  BFP_REQUIRE(initial >= 1, "FleetSpec: fleet starts with zero replicas");
  for (const ExecutorFailure& f : failures) {
    BFP_REQUIRE(f.executor >= 0 && f.executor < initial,
                "FleetSpec: failure targets an unknown replica");
  }
  // The scaler tick stops once every request is completed or rejected;
  // abandoned and stranded requests never are, so it would tick forever.
  BFP_REQUIRE(failures.empty() || !autoscaler.enabled,
              "FleetSpec: executor failures need the autoscaler off");
  tenants.validate();
  autoscaler.validate();
}

namespace {

/// Discrete event, ordered by (cycle, seq): seq is the push order, so ties
/// resolve by who was scheduled first — explicit and platform-independent.
struct Event {
  std::uint64_t cycle = 0;
  std::uint64_t seq = 0;
  enum class Kind {
    kArrival,
    kReplicaFree,
    kTimer,
    kComplete,
    kScalerTick,
    kReplicaReady,
    kExecutorFail,
  } kind = Kind::kArrival;
  int payload = 0;  ///< request id (arrival/complete) or replica instance
  /// kComplete: the request's dispatch generation when the event was
  /// scheduled. A failure-triggered re-dispatch bumps the generation, so
  /// completions of aborted batches are recognized as stale and ignored.
  std::uint64_t aux = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.cycle != b.cycle) return a.cycle > b.cycle;
    return a.seq > b.seq;
  }
};

}  // namespace

FleetReport serve_fleet(const FleetSpec& spec, const ArrivalTrace& trace,
                        const ServePolicy& policy, Trace* event_trace) {
  trace.validate();
  policy.validate();
  const int n = trace.total_requests;
  spec.validate(n);
  const auto un = static_cast<std::size_t>(n);

  FleetReport fleet;
  ServeReport& rep = fleet.serve;
  const double freq = spec.freq_hz;
  rep.freq_hz = freq;
  rep.offered_rps = trace.offered_rps;
  rep.slo_cycles = static_cast<std::uint64_t>(policy.slo_ms * 1e-3 * freq);

  // Per-tenant deadlines: a tenant's slo_ms override (0 = inherit).
  const int num_tenants =
      spec.tenants.empty() ? 1 : static_cast<int>(spec.tenants.size());
  std::vector<std::uint64_t> tenant_slo(
      static_cast<std::size_t>(num_tenants), rep.slo_cycles);
  std::vector<int> tenant_tier(static_cast<std::size_t>(num_tenants), 0);
  for (std::size_t k = 0; k < spec.tenants.size(); ++k) {
    const TenantSpec& t = spec.tenants.tenants[k];
    if (t.slo_ms > 0.0) {
      tenant_slo[k] = static_cast<std::uint64_t>(t.slo_ms * 1e-3 * freq);
    }
    tenant_tier[k] = t.tier;
  }

  // The replica table. Instance ids are dense and monotone — retired ids
  // are never reused, so traces and records keep stable lanes.
  std::vector<ReplicaInstance> replicas;
  /// Entries each replica is servicing right now (for failure aborts).
  std::vector<std::vector<QueueEntry>> inflight;
  std::vector<std::vector<PassSpec>> class_passes;
  std::vector<int> class_max;
  class_passes.reserve(spec.classes.size());
  class_max.reserve(spec.classes.size());
  for (const ReplicaClassSpec& c : spec.classes) {
    class_passes.push_back(c.passes);
    class_max.push_back(c.max_replicas);
  }
  auto spawn_replica = [&](int cls, std::uint64_t now,
                           std::uint64_t ready_at) {
    ReplicaInstance r;
    r.instance = static_cast<int>(replicas.size());
    r.cls = cls;
    r.provisioned_cycle = now;
    r.ready_cycle = ready_at;
    replicas.push_back(r);
    inflight.emplace_back();
    rep.unit_busy_cycles.push_back(0);
    return r.instance;
  };
  for (std::size_t c = 0; c < spec.classes.size(); ++c) {
    for (int i = 0; i < spec.classes[c].initial_replicas; ++i) {
      spawn_replica(static_cast<int>(c), 0, 0);
    }
  }
  int live_replicas = static_cast<int>(replicas.size());
  fleet.peak_replicas = live_replicas;

  std::priority_queue<Event, std::vector<Event>, EventAfter> events;
  std::uint64_t seq = 0;
  auto push_event = [&](std::uint64_t cycle, Event::Kind kind, int payload,
                        std::uint64_t aux = 0) {
    events.push(Event{cycle, seq++, kind, payload, aux});
  };
  std::vector<int> tenant_by_id(un, 0);
  for (const RequestArrival& a : trace.arrivals) {
    push_event(a.cycle, Event::Kind::kArrival, a.id);
    if (a.tenant > 0 && static_cast<std::size_t>(a.id) < un) {
      BFP_REQUIRE(a.tenant < num_tenants,
                  "serve_fleet: arrival tagged with unknown tenant");
      tenant_by_id[static_cast<std::size_t>(a.id)] = a.tenant;
    }
  }
  // Hard executor failures are known to the simulation up front (the fault
  // plan is virtual-time); pushing them here gives them low sequence
  // numbers, so at an equal cycle a failure is handled before any
  // completion scheduled later — a batch finishing exactly at the death
  // cycle still completes (complete_cycle <= now at abort time).
  for (const ExecutorFailure& f : spec.failures) {
    push_event(f.cycle, Event::Kind::kExecutorFail, f.executor);
  }
  Autoscaler scaler(spec.autoscaler);
  if (spec.autoscaler.enabled) {
    push_event(spec.autoscaler.interval_cycles, Event::Kind::kScalerTick, 0);
  }
  int next_closed_id = static_cast<int>(trace.arrivals.size());

  FleetAdmissionQueue queue(
      policy.queue_capacity, policy.drop_policy,
      spec.tenants.quota_slots(policy.queue_capacity));
  std::vector<LatencyRecord> records(un);
  std::vector<bool> completed(un, false);
  std::vector<std::uint64_t> dispatch_gen(un, 0);
  std::vector<int> retries(un, 0);
  int resolved = 0;  ///< completed + rejected/shed ids (tick termination)

  auto trace_ev = [&](std::uint64_t cycle, std::string component,
                      std::string message, int pid = -1) {
    if (event_trace != nullptr) {
      event_trace->record_pid(cycle, std::move(component),
                              std::move(message), pid);
    }
  };
  auto sample_depth = [&](std::uint64_t cycle) {
    rep.queue_depth.push_back({cycle, queue.size()});
  };
  auto replica_name = [&](int instance) {
    return spec.replica_prefix + std::to_string(instance);
  };

  // Per-dispatch scratch. The loop is serial, so one arena serves every
  // batch; each dispatch brackets its allocations with an ArenaScope and
  // the chunks are reused batch after batch — zero heap traffic after the
  // first dispatch.
  Arena scratch;

  // The continuous batcher. While a replica is free (the router's
  // cheapest free replica; the lowest free id on a homogeneous pool):
  // dispatch a full batch at once; dispatch a partial batch when the head
  // has already waited max_wait_cycles, or when its SLO slack is gone
  // (waiting longer would bust the deadline even if served immediately
  // later). Otherwise schedule a timer at the earliest cycle one of those
  // becomes true. The service estimate is the chosen replica's class cost
  // for the head request.
  auto try_dispatch = [&](std::uint64_t now) {
    while (!queue.empty()) {
      const QueueEntry& head = queue.front();
      const int inst = pick_replica(replicas, class_passes, now, head.id);
      if (inst < 0) return;  // all busy/cold; kReplicaFree/Ready revisits
      ReplicaInstance& unit = replicas[static_cast<std::size_t>(inst)];

      const std::uint64_t est = class_service_estimate(
          class_passes[static_cast<std::size_t>(unit.cls)], head.id);
      const bool full = queue.size() >= static_cast<std::size_t>(
                                            policy.max_batch);
      const bool waited_out =
          now - head.arrival_cycle >= policy.max_wait_cycles;
      const bool slo_pressure = now + est >= head.deadline_cycle;
      if (!full && !waited_out && !slo_pressure) {
        const std::uint64_t wait_at =
            head.arrival_cycle + policy.max_wait_cycles;
        const std::uint64_t slo_at = head.deadline_cycle - est;
        // The revisit is > now because neither bound has been hit yet.
        push_event(std::min(wait_at, slo_at), Event::Kind::kTimer, 0);
        rep.counters.add("serve.timers");
        return;
      }

      // Form the batch in queue order. Batch scratch lives in the dispatch
      // arena for exactly this iteration.
      ArenaScope batch_scope(&scratch);
      std::vector<QueueEntry, ArenaAllocator<QueueEntry>> batch{
          ArenaAllocator<QueueEntry>(&scratch)};
      batch.reserve(static_cast<std::size_t>(policy.max_batch));
      while (!queue.empty() &&
             batch.size() < static_cast<std::size_t>(policy.max_batch)) {
        batch.push_back(queue.pop());
      }
      sample_depth(now);

      std::vector<PassSpec, ArenaAllocator<PassSpec>> passes{
          ArenaAllocator<PassSpec>(&scratch)};
      passes.reserve(batch.size());
      for (const QueueEntry& e : batch) {
        passes.push_back(class_passes[static_cast<std::size_t>(unit.cls)]
                                     [static_cast<std::size_t>(e.id)]);
      }
      const PipelineResult pipe = simulate_pipeline(
          std::span<const PassSpec>(passes.data(), passes.size()),
          /*double_buffered=*/true);

      for (std::size_t j = 0; j < batch.size(); ++j) {
        const QueueEntry& e = batch[j];
        LatencyRecord& r = records[static_cast<std::size_t>(e.id)];
        r.id = e.id;
        r.arrival_cycle = e.arrival_cycle;
        r.dispatch_cycle = now;
        r.complete_cycle = now + pipe.passes[j].store_end;
        r.unit = inst;
        r.batch_size = static_cast<int>(batch.size());
        r.slo_met = r.complete_cycle <= e.deadline_cycle;
        r.tenant = e.tenant;
        completed[static_cast<std::size_t>(e.id)] = true;
        push_event(r.complete_cycle, Event::Kind::kComplete, e.id,
                   ++dispatch_gen[static_cast<std::size_t>(e.id)]);
      }
      inflight[static_cast<std::size_t>(inst)].assign(batch.begin(),
                                                       batch.end());
      unit.busy_until = now + pipe.total_cycles;
      rep.unit_busy_cycles[static_cast<std::size_t>(inst)] +=
          pipe.total_cycles;
      push_event(unit.busy_until, Event::Kind::kReplicaFree, inst);

      rep.counters.add("serve.batches");
      rep.counters.add("serve.dispatched", batch.size());
      trace_ev(now, replica_name(inst),
               "dispatch batch=" + std::to_string(batch.size()) + " head=req" +
                   std::to_string(batch.front().id),
               inst);
    }
  };

  // The determinism contract hinges on virtual time never running
  // backwards: the (cycle, seq) heap order plus "every event is pushed at
  // or after its cause" guarantee it, and the contract makes the guarantee
  // checked instead of assumed.
  [[maybe_unused]] std::uint64_t last_now = 0;
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    const std::uint64_t now = ev.cycle;
    BFPSIM_INVARIANT(now >= last_now,
                     "serve_fleet: virtual time must be monotone");
    last_now = now;
    switch (ev.kind) {
      case Event::Kind::kArrival: {
        const int id = ev.payload;
        const int tenant = tenant_by_id[static_cast<std::size_t>(id)];
        const auto ut = static_cast<std::size_t>(tenant);
        rep.counters.add("serve.requests");
        trace_ev(now, "queue", "arrive req" + std::to_string(id));
        const QueueEntry e{id, now, now + tenant_slo[ut], tenant,
                           tenant_tier[ut]};
        const FleetPushOutcome got = queue.push(e);
        if (got.had_victim) {
          rep.rejected_ids.push_back(got.victim.id);
          ++resolved;
          rep.counters.add("serve.shed");
          trace_ev(now, "queue", "shed req" + std::to_string(got.victim.id));
          // Closed loop: a shed request still releases its client.
          if (trace.closed_loop && next_closed_id < n) {
            push_event(now + trace.think_cycles, Event::Kind::kArrival,
                       next_closed_id++);
          }
        }
        if (got.admitted) {
          rep.counters.add("serve.admitted");
        } else {
          rep.rejected_ids.push_back(id);
          ++resolved;
          if (got.quota_rejected) {
            rep.counters.add("fleet.quota_rejected");
            trace_ev(now, "queue",
                     "quota-reject req" + std::to_string(id) + " tenant" +
                         std::to_string(tenant));
          } else {
            rep.counters.add("serve.rejected");
            trace_ev(now, "queue", "reject req" + std::to_string(id));
          }
          if (trace.closed_loop && next_closed_id < n) {
            push_event(now + trace.think_cycles, Event::Kind::kArrival,
                       next_closed_id++);
          }
        }
        sample_depth(now);
        try_dispatch(now);
        break;
      }
      case Event::Kind::kComplete: {
        const int id = ev.payload;
        const auto uid = static_cast<std::size_t>(id);
        // A failure abort (completed -> false) or a re-dispatch (bumped
        // generation) makes this event stale.
        if (!completed[uid] || ev.aux != dispatch_gen[uid]) break;
        const auto& r = records[uid];
        std::erase_if(inflight[static_cast<std::size_t>(r.unit)],
                      [id](const QueueEntry& e) { return e.id == id; });
        ++resolved;
        rep.counters.add("serve.completed");
        scaler.observe_completion(r.total_cycles());
        trace_ev(now, replica_name(r.unit),
                 "complete req" + std::to_string(id), r.unit);
        if (trace.closed_loop && next_closed_id < n) {
          push_event(now + trace.think_cycles, Event::Kind::kArrival,
                     next_closed_id++);
        }
        break;
      }
      case Event::Kind::kScalerTick: {
        int ready = 0;
        int pending = 0;
        for (const ReplicaInstance& r : replicas) {
          if (r.retired) continue;
          (r.ready_cycle <= now ? ready : pending) += 1;
        }
        const ScaleDecision d =
            scaler.evaluate(now, queue.size(), ready, pending,
                            rep.slo_cycles);
        for (int s = 0; s < d.spawn; ++s) {
          const int cls = pick_spawn_class(replicas, class_passes, class_max);
          if (cls < 0) break;  // every class at its cap
          const int inst = spawn_replica(
              cls, now, now + spec.autoscaler.cold_start_cycles);
          push_event(replicas[static_cast<std::size_t>(inst)].ready_cycle,
                     Event::Kind::kReplicaReady, inst);
          fleet.scale_events.push_back({now, true, inst, cls});
          ++live_replicas;
          fleet.peak_replicas = std::max(fleet.peak_replicas, live_replicas);
          rep.counters.add("fleet.scale_ups");
          trace_ev(now, replica_name(inst),
                   "spawn class=" + spec.classes[static_cast<std::size_t>(
                                                     cls)].name,
                   inst);
        }
        if (d.retire) {
          const int inst = pick_retire(replicas, class_passes, now);
          if (inst >= 0) {
            ReplicaInstance& r = replicas[static_cast<std::size_t>(inst)];
            r.retired = true;
            r.retired_cycle = now;
            fleet.scale_events.push_back({now, false, inst, r.cls});
            --live_replicas;
            rep.counters.add("fleet.scale_downs");
            trace_ev(now, replica_name(inst), "retire", inst);
          }
        }
        if (resolved < n) {
          push_event(now + spec.autoscaler.interval_cycles,
                     Event::Kind::kScalerTick, 0);
        }
        break;
      }
      case Event::Kind::kExecutorFail: {
        const int inst = ev.payload;
        const auto ui = static_cast<std::size_t>(inst);
        ReplicaInstance& dead = replicas[ui];
        if (dead.failed) break;
        // Dead for good, but still provisioned: it stays in the
        // utilization denominator until the makespan.
        dead.failed = true;
        rep.counters.add("serve.executor_failures");
        trace_ev(now, replica_name(inst), "executor failed", inst);
        if (dead.busy_until > now) {
          // The aborted batch's remaining service never happened.
          rep.unit_busy_cycles[ui] -= dead.busy_until - now;
          dead.busy_until = now;
        }
        for (const QueueEntry& e : inflight[ui]) {
          const auto ie = static_cast<std::size_t>(e.id);
          // Finished at or before the death cycle: counts as completed
          // (its kComplete event is processed normally).
          if (records[ie].complete_cycle <= now) continue;
          completed[ie] = false;
          if (retries[ie] < policy.max_retries) {
            ++retries[ie];
            queue.requeue(e);  // original arrival & deadline preserved
            rep.counters.add("serve.retried");
            trace_ev(now, "queue", "requeue req" + std::to_string(e.id));
          } else {
            rep.counters.add("serve.failed");
            trace_ev(now, "queue", "abandon req" + std::to_string(e.id));
            if (trace.closed_loop && next_closed_id < n) {
              push_event(now + trace.think_cycles, Event::Kind::kArrival,
                         next_closed_id++);
            }
          }
        }
        inflight[ui].clear();
        sample_depth(now);
        try_dispatch(now);
        break;
      }
      case Event::Kind::kReplicaReady: {
        const int inst = ev.payload;
        trace_ev(now, replica_name(inst), "ready", inst);
        try_dispatch(now);
        break;
      }
      case Event::Kind::kReplicaFree:
      case Event::Kind::kTimer:
        try_dispatch(now);
        break;
    }
  }
  if (!queue.empty()) {
    // Admitted work stranded because every replica died.
    rep.counters.add("serve.stranded", queue.size());
  }

  // ---- report assembly (serial, id order) ----
  std::vector<std::uint64_t> total, wait, service;
  for (std::size_t i = 0; i < un; ++i) {
    if (!completed[i]) continue;
    const LatencyRecord& r = records[i];
    rep.records.push_back(r);
    total.push_back(r.total_cycles());
    wait.push_back(r.queue_cycles());
    service.push_back(r.service_cycles());
    rep.makespan_cycles = std::max(rep.makespan_cycles, r.complete_cycle);
    if (!r.slo_met) ++rep.slo_violations;
  }
  rep.latency = summarize_latencies(std::move(total));
  rep.queue_wait = summarize_latencies(std::move(wait));
  rep.service = summarize_latencies(std::move(service));
  rep.max_queue_depth = queue.peak_depth();
  if (num_tenants > 1) {
    // Single-tenant runs leave this empty, keeping the report (and its
    // JSON) free of a "tenants" section.
    rep.tenants = tenant_breakdowns(rep, tenant_by_id, num_tenants);
    for (TenantBreakdown& row : rep.tenants) {
      const auto k = static_cast<std::size_t>(row.tenant);
      if (k < spec.tenants.size()) {
        row.name = spec.tenants.tenants[k].name;
        row.tier = spec.tenants.tenants[k].tier;
      }
    }
  }

  // Provisioned replica-cycles: spawn decision -> retirement (or
  // makespan). A replica spawned after the last completion contributes
  // nothing rather than negative time. A fixed pool provisions
  // replicas x makespan, so utilization is busy / (replicas x makespan).
  std::uint64_t busy = 0;
  for (const std::uint64_t b : rep.unit_busy_cycles) busy += b;
  for (const ReplicaInstance& r : replicas) {
    const std::uint64_t end =
        r.retired ? r.retired_cycle : rep.makespan_cycles;
    if (end > r.provisioned_cycle) {
      fleet.replica_cycles += end - r.provisioned_cycle;
    }
  }
  rep.utilization =
      fleet.replica_cycles == 0
          ? 0.0
          : static_cast<double>(busy) /
                static_cast<double>(fleet.replica_cycles);
  rep.completed_rps =
      rep.makespan_cycles == 0
          ? 0.0
          : static_cast<double>(rep.records.size()) /
                (static_cast<double>(rep.makespan_cycles) / freq);
  rep.counters.add("serve.slo_violations", rep.slo_violations);
  rep.counters.add("serve.makespan_cycles", rep.makespan_cycles);
  rep.counters.add("serve.peak_queue_depth", rep.max_queue_depth);
  fleet.replicas = replicas;
  fleet.classes.reserve(spec.classes.size());
  for (const ReplicaClassSpec& c : spec.classes) {
    fleet.classes.push_back({c.name, c.cards, c.strategy,
                             c.initial_replicas, c.max_replicas});
  }
  return fleet;
}

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string FleetReport::to_json() const {
  std::ostringstream os;
  os << "{\"fleet\":{";
  os << "\"classes\":[";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const FleetClassInfo& c = classes[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << json_escape(c.name) << "\",\"cards\":" << c.cards
       << ",\"strategy\":\"" << json_escape(c.strategy)
       << "\",\"initial_replicas\":" << c.initial_replicas
       << ",\"max_replicas\":" << c.max_replicas << "}";
  }
  os << "],";
  os << "\"peak_replicas\":" << peak_replicas << ",";
  os << "\"replica_cycles\":" << replica_cycles << ",";
  os << "\"scale_events\":[";
  for (std::size_t i = 0; i < scale_events.size(); ++i) {
    const FleetScaleEvent& e = scale_events[i];
    if (i != 0) os << ",";
    os << "{\"cycle\":" << e.cycle << ",\"kind\":\""
       << (e.up ? "up" : "down") << "\",\"instance\":" << e.instance
       << ",\"class\":" << e.cls << "}";
  }
  os << "],";
  os << "\"replicas\":[";
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaInstance& r = replicas[i];
    if (i != 0) os << ",";
    os << "{\"instance\":" << r.instance << ",\"class\":" << r.cls
       << ",\"provisioned_cycle\":" << r.provisioned_cycle
       << ",\"ready_cycle\":" << r.ready_cycle
       << ",\"retired\":" << (r.retired ? "true" : "false")
       << ",\"retired_cycle\":" << r.retired_cycle << "}";
  }
  os << "],";
  os << "\"utilization\":" << fmt_double(serve.utilization);
  os << "},\"serve\":" << serve.to_json() << "}";
  return os.str();
}

}  // namespace bfpsim
