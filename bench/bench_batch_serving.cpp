// System-level serving bench: batch throughput across the 15 independent
// units (Section III-A: parallel units "running with independent
// instructions"), plus an LPT scheduling demonstration on a mixed layer
// set and a functional batch execution on the parallel engine.
//
// Usage: bench_batch_serving [--threads N]
//   N > 1 runs the functional section on an N-worker thread pool;
//   N == 0 uses the host's hardware concurrency. Modelled cycles and all
//   output bits are identical for every N (see ARCHITECTURE.md, threading
//   model); only host wall-clock changes.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "bench_args.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "fabric/scheduler.hpp"
#include "runtime/session.hpp"
#include "transformer/latency.hpp"

int main(int argc, char** argv) {
  using namespace bfpsim;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = parse_threads_arg(argv[0], argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0] << " [--threads N]\n";
      return 2;
    }
  }
  if (threads <= 0) threads = ThreadPool::hardware_threads();
  const AcceleratorSystem sys;

  std::cout << "BATCH SERVING on " << sys.config().num_units
            << " independent units\n\n";

  for (const VitConfig& cfg : {deit_tiny(), deit_small()}) {
    std::cout << cfg.name << " (per-image latency "
              << fmt_double(batch_transformer_throughput(cfg, sys, 1)
                                .latency_ms_per_image,
                            2)
              << " ms on one unit):\n\n";
    TextTable t({"batch", "makespan (ms)", "images/s", "utilization"});
    for (int batch : {1, 4, 8, 15, 16, 30, 60}) {
      const BatchResult r = batch_transformer_throughput(cfg, sys, batch);
      t.add_row({std::to_string(batch),
                 fmt_double(static_cast<double>(r.makespan_cycles) /
                                sys.config().pu.freq_hz * 1e3,
                            2),
                 fmt_double(r.images_per_second, 1),
                 fmt_percent(100.0 * r.utilization, 1)});
    }
    std::cout << t << "\n";
  }
  std::cout << "Throughput scales linearly to the unit count, then in "
               "whole rounds — the\nexpected profile for whole-image-"
               "per-unit placement (weights stay resident,\nno cross-unit "
               "traffic).\n\n";

  // LPT on a heterogeneous layer mix (pipeline-parallel alternative).
  std::cout << "LPT scheduling of one DeiT-Small block's layers across 4 "
               "units (layer-parallel mode):\n\n";
  const VitConfig cfg = deit_small();
  const int t = cfg.tokens();
  const int d = cfg.embed_dim;
  std::vector<WorkItem> layers = {
      {"QKV", sys.gemm_latency(t, d, 3 * d).cycles},
      {"scores", sys.gemm_latency(t, cfg.head_dim(), t).cycles *
                     static_cast<std::uint64_t>(cfg.num_heads)},
      {"attn*V", sys.gemm_latency(t, t, cfg.head_dim()).cycles *
                     static_cast<std::uint64_t>(cfg.num_heads)},
      {"proj", sys.gemm_latency(t, d, d).cycles},
      {"fc1", sys.gemm_latency(t, d, cfg.mlp_hidden()).cycles},
      {"fc2", sys.gemm_latency(t, cfg.mlp_hidden(), d).cycles},
  };
  const ScheduleResult s = schedule_lpt(layers, 4);
  TextTable t2({"unit", "assigned layers", "cycles"});
  for (const UnitAssignment& u : s.units) {
    std::string names;
    for (const std::size_t i : u.items) {
      if (!names.empty()) names += ", ";
      names += layers[i].name;
    }
    t2.add_row({std::to_string(u.unit), names, std::to_string(u.cycles)});
  }
  std::cout << t2;
  std::cout << "  makespan " << s.makespan << " cycles, utilization "
            << fmt_percent(100.0 * s.utilization, 1)
            << " (data dependences ignored here — an upper bound the real "
               "compiler\n   would refine; batch mode above needs none of "
               "this).\n\n";

  // Functional batch execution on the parallel engine: every image really
  // flows through the bfp8/fp32 forward on its own one-unit system
  // (Session::infer_batch). Modelled cycles are engine-invariant;
  // wall-clock shows the host-side speedup from --threads.
  const VitConfig fcfg = vit_test_tiny();
  Session session(sys.config());
  const ModelId id = session.deploy(random_weights(fcfg, 42));
  std::vector<std::vector<float>> images;
  for (int i = 0; i < 16; ++i) {
    images.push_back(random_embeddings(fcfg, 1000 + i));
  }
  ThreadPool pool(threads);
  std::cout << "FUNCTIONAL batch execution (" << fcfg.name << ", batch "
            << images.size() << ", " << pool.size() << " host thread"
            << (pool.size() == 1 ? "" : "s") << "):\n\n";
  const auto t0 = std::chrono::steady_clock::now();
  const Session::BatchInference batch =
      session.infer_batch(id, images, &pool);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::uint64_t bfp_macs = 0;
  for (const InferenceResult& r : batch.results) bfp_macs += r.stats.bfp_macs;
  std::cout << "  modelled makespan      "
            << fmt_double(static_cast<double>(batch.makespan_cycles) /
                              sys.config().pu.freq_hz * 1e3,
                          3)
            << " ms (" << batch.makespan_cycles << " cycles)\n"
            << "  modelled images/s      "
            << fmt_double(batch.images_per_second, 1) << "\n"
            << "  unit utilization       "
            << fmt_percent(100.0 * batch.utilization, 1) << "\n"
            << "  host wall-clock        " << fmt_double(wall_ms, 1)
            << " ms (simulation cost, not modelled time)\n"
            << "  bfp MACs simulated     " << bfp_macs << "\n";
  std::cout << "\nModelled numbers above are bit-identical for any "
               "--threads value;\nonly the host wall-clock line changes.\n";
  return 0;
}
