// Fleet capacity bench: capacity-vs-SLO curves for a fixed fleet, plus the
// autoscaler-reaction experiment — a seeded diurnal trace served twice,
// once by a static fleet sized for the peak and once by the autoscaler
// growing from the trough, emitting one stable-key JSON document so both
// trajectories can be tracked run over run and archived by CI.
//
// Self-checking: the run fails (exit 1) unless the autoscaled fleet holds
// the p95 SLO on the diurnal trace with strictly fewer provisioned
// replica-cycles than the peak-sized static fleet, without leaning on
// shedding to get there. That inequality is the whole point of the
// subsystem; a regression that breaks it should break CI.
//
// Usage: bench_fleet_capacity [--smoke] [--threads N] [--requests N]
//                             [--seed S] [--json-out FILE]
// Numeric flags are range-checked (bench_args.hpp; garbage or out of
// range exits 2): --threads [0, 1024], --requests [0, 2^20] (0 = the
// per-mode default), --seed any unsigned 64-bit integer.
// JSON goes to stdout (or the file); the human summary to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "cluster/cluster_executor.hpp"
#include "common/thread_pool.hpp"
#include "serving/event_loop.hpp"

int main(int argc, char** argv) {
  using namespace bfpsim;
  bool smoke = false;
  int threads = 0;
  int requests = 0;
  std::uint64_t seed = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--threads" && i + 1 < argc) {
      threads = parse_threads_arg(argv[0], argv[++i]);
    } else if (a == "--requests" && i + 1 < argc) {
      requests = static_cast<int>(
          parse_int_arg(argv[0], "--requests", argv[++i], 0, 1 << 20));
    } else if (a == "--seed" && i + 1 < argc) {
      seed = parse_seed_arg(argv[0], argv[++i]);
    } else if (a == "--json-out" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads N] [--requests N] "
                   "[--seed S] [--json-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (requests <= 0) requests = smoke ? 160 : 480;
  if (threads <= 0) threads = ThreadPool::hardware_threads();
  ThreadPool pool(threads);

  const VitConfig cfg = vit_test_tiny();
  const SystemConfig card;
  const double freq = card.pu.freq_hz;
  const VitWeights weights = random_weights(cfg, 42);

  // Probe one sharded forward for the modelled per-request service time.
  // The replica cost model is content-independent, so one probe prices
  // every request — the event loops, not the forwards, are under test.
  const ClusterExecutor exec(weights, ClusterTopology::ring(1, {}, card),
                             PartitionStrategy::kPipeline);
  ClusterStats stats;
  (void)exec.forward(random_embeddings(cfg, seed), &stats, &pool);
  const std::uint64_t req_cycles = stats.total_cycles();
  const double replica_rps = freq / static_cast<double>(req_cycles);
  const PassSpec pass{0, req_cycles, 0};

  ServePolicy policy;
  policy.queue_capacity = 64;
  policy.max_batch = 4;
  policy.slo_ms = 5.0;
  const auto slo_cycles =
      static_cast<std::uint64_t>(policy.slo_ms * 1e-3 * freq);

  auto make_class = [&](int initial, int max_r) {
    ReplicaClassSpec c;
    c.name = "1xpipeline";
    c.cards = 1;
    c.strategy = "pipeline";
    c.passes.assign(static_cast<std::size_t>(requests), pass);
    c.initial_replicas = initial;
    c.max_replicas = max_r;
    return c;
  };

  std::ostringstream json;
  json << "{\"bench\":\"fleet_capacity\",\"model\":\"" << cfg.name
       << "\",\"requests\":" << requests << ",\"seed\":" << seed
       << ",\"replica_rps\":" << replica_rps
       << ",\"slo_ms\":" << policy.slo_ms << ",\"capacity\":[";

  std::fprintf(stderr,
               "fleet capacity bench: %s, %d requests, %.0f req/s per "
               "replica\n",
               cfg.name.c_str(), requests, replica_rps);

  // ---- part 1: capacity vs SLO for a fixed two-replica fleet ----
  const std::vector<double> fracs =
      smoke ? std::vector<double>{0.5, 1.1}
            : std::vector<double>{0.5, 0.8, 1.1, 1.4};
  const int fixed_replicas = 2;
  bool first = true;
  for (const double frac : fracs) {
    const double rate =
        frac * static_cast<double>(fixed_replicas) * replica_rps;
    const ArrivalTrace trace = poisson_trace(requests, rate, seed, freq);
    FleetSpec spec;
    spec.freq_hz = freq;
    spec.classes = {make_class(fixed_replicas, fixed_replicas)};
    const FleetReport rep = serve_fleet(spec, trace, policy);
    if (!first) json << ",";
    first = false;
    json << "{\"load_fraction\":" << frac
         << ",\"p95_cycles\":" << rep.serve.latency.p95
         << ",\"slo_violations\":" << rep.serve.slo_violations
         << ",\"rejected\":" << rep.serve.rejected_ids.size()
         << ",\"completed\":" << rep.serve.records.size() << "}";
    std::fprintf(stderr,
                 "  load %.1fx: p95 %.3f ms, %zu SLO misses, %zu "
                 "rejected/shed\n",
                 frac, rep.serve.cycles_to_ms(rep.serve.latency.p95),
                 rep.serve.slo_violations, rep.serve.rejected_ids.size());
  }
  json << "],";

  // ---- part 2: autoscaler reaction on a diurnal day ----
  // Peak arrival rate sized to need ~4 replicas; trough needs ~1.
  const int peak_replicas = 4;
  const double peak_rate =
      0.85 * static_cast<double>(peak_replicas) * replica_rps;
  const double base_rate = peak_rate / 6.0;
  const double period_s = 12e-3;  // two-ish day cycles per run
  const ArrivalTrace diurnal =
      diurnal_trace(requests, base_rate, peak_rate, period_s, seed, freq);

  FleetSpec static_spec;
  static_spec.freq_hz = freq;
  static_spec.classes = {make_class(peak_replicas, peak_replicas)};
  const FleetReport static_rep = serve_fleet(static_spec, diurnal, policy);

  FleetSpec auto_spec;
  auto_spec.freq_hz = freq;
  auto_spec.classes = {make_class(1, peak_replicas + 2)};
  auto_spec.autoscaler.enabled = true;
  auto_spec.autoscaler.interval_cycles =
      static_cast<std::uint64_t>(0.5e-3 * freq);  // 0.5 ms ticks
  auto_spec.autoscaler.cold_start_cycles =
      static_cast<std::uint64_t>(1e-3 * freq);    // 1 ms cold start
  auto_spec.autoscaler.cooldown_cycles = auto_spec.autoscaler.interval_cycles;
  auto_spec.autoscaler.up_queue_per_replica = 3.0;
  auto_spec.autoscaler.down_headroom = 0.5;
  auto_spec.autoscaler.scale_step = 1;
  auto_spec.autoscaler.min_replicas = 1;
  const FleetReport auto_rep = serve_fleet(auto_spec, diurnal, policy);

  json << "\"diurnal\":{\"base_rps\":" << base_rate
       << ",\"peak_rps\":" << peak_rate << ",\"period_s\":" << period_s
       << ",\"static\":" << static_rep.to_json()
       << ",\"autoscaled\":" << auto_rep.to_json()
       << ",\"replica_cycles_saved\":"
       << (static_rep.replica_cycles > auto_rep.replica_cycles
               ? static_rep.replica_cycles - auto_rep.replica_cycles
               : 0)
       << "}}";

  std::fprintf(stderr,
               "  diurnal static %d replicas: p95 %.3f ms, %llu "
               "replica-cycles\n",
               peak_replicas,
               static_rep.serve.cycles_to_ms(static_rep.serve.latency.p95),
               static_cast<unsigned long long>(static_rep.replica_cycles));
  std::fprintf(stderr,
               "  diurnal autoscaled      : p95 %.3f ms, %llu "
               "replica-cycles, %zu scale events, peak %d\n",
               auto_rep.serve.cycles_to_ms(auto_rep.serve.latency.p95),
               static_cast<unsigned long long>(auto_rep.replica_cycles),
               auto_rep.scale_events.size(), auto_rep.peak_replicas);

  // ---- self-checks: the autoscaler must hold the SLO on strictly fewer
  // provisioned cycles than the peak-sized static fleet, honestly ----
  bool ok = true;
  if (auto_rep.serve.latency.p95 > slo_cycles) {
    std::fprintf(stderr, "FAIL: autoscaled p95 busts the SLO\n");
    ok = false;
  }
  if (auto_rep.replica_cycles >= static_rep.replica_cycles) {
    std::fprintf(stderr,
                 "FAIL: autoscaler did not save replica-cycles over the "
                 "static peak fleet\n");
    ok = false;
  }
  const std::size_t dropped = auto_rep.serve.rejected_ids.size();
  if (dropped * 10 > static_cast<std::size_t>(requests)) {
    std::fprintf(stderr,
                 "FAIL: autoscaled fleet shed more than 10%% of the "
                 "trace (%zu of %d)\n",
                 dropped, requests);
    ok = false;
  }
  if (auto_rep.scale_events.empty()) {
    std::fprintf(stderr, "FAIL: autoscaler never acted on a diurnal day\n");
    ok = false;
  }

  if (json_path.empty()) {
    std::printf("%s\n", json.str().c_str());
  } else {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    os << json.str() << "\n";
    std::fprintf(stderr, "json written to %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
