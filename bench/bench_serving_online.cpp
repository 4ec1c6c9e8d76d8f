// Online serving bench: sweep offered load through the virtual-time event
// loop and emit one machine-readable JSON document so the serving
// trajectory (latency percentiles vs. load, shed rate past saturation) can
// be tracked run over run and archived by CI.
//
// The sweep self-scales: it probes one functional forward for the modelled
// per-request service time, derives the multi-unit capacity, and offers
// 0.5x / 0.9x / 1.5x of it — underload, near-saturation, overload — so the
// bench exercises the same three regimes for any model or system config.
//
// Usage: bench_serving_online [--smoke] [--threads N] [--requests N]
//                             [--seed S] [--json-out FILE]
//   --smoke     tiny trace (CI-sized: a few requests, one rate per regime)
//   --json-out  write the JSON there instead of stdout
// Numeric flags are range-checked (bench_args.hpp; garbage or out of
// range exits 2): --threads [0, 1024], --requests [0, 2^20] (0 = the
// per-mode default), --seed any unsigned 64-bit integer.
//
// JSON goes to stdout (or the file); the human-readable summary to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "cluster/cluster_serving.hpp"
#include "common/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace bfpsim;
  bool smoke = false;
  int threads = 0;  // 0 = hardware concurrency
  int requests = 0; // 0 = default per mode
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
  if (requests <= 0) requests = smoke ? 8 : 96;
  if (threads <= 0) threads = ThreadPool::hardware_threads();
  ThreadPool pool(threads);

  const VitConfig cfg = vit_test_tiny();
  const VitModel model{random_weights(cfg, 42)};
  const AcceleratorSystem sys;
  const double freq = sys.config().pu.freq_hz;

  // Probe the modelled service time to scale the offered-load sweep.
  ForwardStats stats;
  SystemConfig one = sys.config();
  one.num_units = 1;
  {
    const AcceleratorSystem unit(one);
    (void)model.forward_mixed(random_embeddings(cfg, seed), unit, &stats);
  }
  const double capacity_rps =
      static_cast<double>(sys.config().num_units) * freq /
      static_cast<double>(stats.total_cycles());

  ServePolicy policy;
  policy.queue_capacity = 32;
  policy.max_batch = 4;
  policy.slo_ms = 5.0;

  std::ostringstream json;
  json << "{\"bench\":\"serving_online\",\"model\":\"" << cfg.name
       << "\",\"units\":" << sys.config().num_units
       << ",\"requests\":" << requests << ",\"seed\":" << seed
       << ",\"capacity_rps\":" << capacity_rps << ",\"points\":[";

  std::fprintf(stderr,
               "online serving sweep: %s, %d requests, capacity %.0f req/s, "
               "%d worker threads\n",
               cfg.name.c_str(), requests, capacity_rps, pool.size());
  bool first = true;
  for (const double frac : {0.5, 0.9, 1.5}) {
    const double rate = frac * capacity_rps;
    const ArrivalTrace trace = poisson_trace(requests, rate, seed, freq);
    const OnlineServeResult r =
        serve_online(model, sys, trace, policy, &pool);
    const ServeReport& rep = r.report;
    if (!first) json << ",";
    first = false;
    json << "{\"load_fraction\":" << frac << ",\"report\":" << rep.to_json()
         << "}";
    std::fprintf(stderr,
                 "  load %.1fx: completed %zu, rejected %zu, p50 %.3f ms, "
                 "p99 %.3f ms, util %.1f%%\n",
                 frac, rep.records.size(), rep.rejected_ids.size(),
                 rep.cycles_to_ms(rep.latency.p50),
                 rep.cycles_to_ms(rep.latency.p99),
                 100.0 * rep.utilization);
  }
  json << "]}";

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
  return 0;
}
