// Cluster scaling bench: sweep card count x partition strategy over the
// sharded transformer executor and emit one machine-readable JSON document
// so the scaling trajectory (prefill throughput, collective share, per-card
// utilization) can be tracked run over run and archived by CI.
//
// For each configuration the bench runs one functional sharded forward
// (which also checks the determinism contract: the features must equal the
// single-card reference bit-for-bit), then projects an R-request prefill
// stream through the analytic tandem-queue timing model. The 1-card
// pipeline configuration is the speedup baseline.
//
// Usage: bench_cluster_scaling [--smoke] [--threads N] [--requests N]
//                              [--cards LIST] [--seed S] [--json-out FILE]
//   --smoke     CI-sized: vit-test-tiny, 2 cards max, few requests
//   --cards     comma-separated card counts, each in [1, 1024]
//               (default 1,2,4; smoke: 1,2)
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
#include "cluster/cluster_executor.hpp"
#include "common/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace bfpsim;
  bool smoke = false;
  int threads = 0;   // 0 = hardware concurrency
  int requests = 0;  // 0 = default per mode
  std::uint64_t seed = 1;
  std::string cards_arg;
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
    } else if (a == "--cards" && i + 1 < argc) {
      cards_arg = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed = parse_seed_arg(argv[0], argv[++i]);
    } else if (a == "--json-out" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads N] [--requests N] "
                   "[--cards LIST] [--seed S] [--json-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (requests <= 0) requests = smoke ? 8 : 64;
  if (threads <= 0) threads = ThreadPool::hardware_threads();
  if (cards_arg.empty()) cards_arg = smoke ? "1,2" : "1,2,4";
  ThreadPool pool(threads);

  std::vector<int> card_counts;
  {
    std::stringstream ss(cards_arg);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      card_counts.push_back(static_cast<int>(
          parse_int_arg(argv[0], "--cards", tok.c_str(), 1, 1024)));
    }
  }

  // vit-test-tiny divides for 2-way tensor and pipeline splits; the full
  // run uses deit-small (6 heads, depth 12) so 1/2/4-card sweeps divide.
  VitConfig cfg = smoke ? vit_test_tiny() : deit_small();
  const VitWeights w = random_weights(cfg, 42);
  const std::vector<float> x = random_embeddings(cfg, seed);

  // Bit-identity reference and speedup baseline: one card, whole model.
  const VitModel reference(w);
  std::vector<float> want;
  {
    const AcceleratorSystem sys{SystemConfig{}};
    want = reference.forward_mixed(x, sys);
  }
  double baseline_rps = 0.0;

  std::ostringstream json;
  json << "{\"bench\":\"cluster_scaling\",\"model\":\"" << cfg.name
       << "\",\"requests\":" << requests << ",\"seed\":" << seed
       << ",\"threads\":" << pool.size() << ",\"configs\":[";

  std::fprintf(stderr,
               "cluster scaling sweep: %s, %d requests, cards {%s}, "
               "%d worker threads\n",
               cfg.name.c_str(), requests, cards_arg.c_str(), pool.size());
  bool first = true;
  double two_card_pipeline_speedup = 0.0;
  for (const int cards : card_counts) {
    for (const PartitionStrategy strategy :
         {PartitionStrategy::kPipeline, PartitionStrategy::kTensor}) {
      if (cards == 1 && strategy == PartitionStrategy::kTensor) {
        continue;  // identical to 1-card pipeline; keep one baseline row
      }
      ClusterStats stats;
      StreamTiming t;
      try {
        const ClusterExecutor exec(w, ClusterTopology::ring(cards),
                                   strategy);
        const std::vector<float> got = exec.forward(x, &stats, &pool);
        if (got != want) {
          std::fprintf(stderr,
                       "FAIL: %d-card %s features differ from the "
                       "single-card reference\n",
                       cards, to_string(strategy));
          return 1;
        }
        t = exec.project_stream(stats, requests);
      } catch (const ShapeError& e) {
        std::fprintf(stderr, "  skip %d-card %s: %s\n", cards,
                     to_string(strategy), e.what());
        continue;
      }
      if (cards == 1) baseline_rps = t.requests_per_second;
      const double speedup =
          baseline_rps > 0.0 ? t.requests_per_second / baseline_rps : 0.0;
      if (cards == 2 && strategy == PartitionStrategy::kPipeline) {
        two_card_pipeline_speedup = speedup;
      }

      if (!first) json << ",";
      first = false;
      json << "{\"cards\":" << cards << ",\"strategy\":\""
           << to_string(strategy) << "\""
           << ",\"request_cycles\":" << t.request_cycles
           << ",\"makespan_cycles\":" << t.makespan_cycles
           << ",\"requests_per_second\":" << t.requests_per_second
           << ",\"speedup\":" << speedup
           << ",\"collective_share\":" << t.collective_share
           << ",\"collective_bytes\":" << t.collective_bytes
           << ",\"card_utilization\":[";
      for (std::size_t c = 0; c < t.card_utilization.size(); ++c) {
        if (c) json << ",";
        json << t.card_utilization[c];
      }
      json << "]}";

      double min_util = 1.0;
      for (const double u : t.card_utilization) {
        min_util = u < min_util ? u : min_util;
      }
      std::fprintf(stderr,
                   "  %d-card %-8s: %8.0f req/s, speedup %.2fx, "
                   "collectives %4.1f%%, min util %4.1f%%\n",
                   cards, to_string(strategy), t.requests_per_second,
                   speedup, 100.0 * t.collective_share, 100.0 * min_util);
    }
  }
  json << "],\"two_card_pipeline_speedup\":" << two_card_pipeline_speedup
       << "}";

  // Acceptance floor: two pipeline cards must buy >= 1.6x prefill
  // throughput on this compute-bound shape (ideal is 2R/(R+1)).
  if (two_card_pipeline_speedup != 0.0 && two_card_pipeline_speedup < 1.6) {
    std::fprintf(stderr, "FAIL: 2-card pipeline speedup %.2fx < 1.6x\n",
                 two_card_pipeline_speedup);
    return 1;
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
  return 0;
}
