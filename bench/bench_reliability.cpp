// Reliability bench: sweep PSU fault rate x protection mode over seeded
// GEMMs and emit one JSON document with detection coverage, corrected
// fraction, silent-data-corruption rate and the ABFT throughput overhead,
// so the fault-tolerance story can be tracked run over run and archived by
// CI alongside the serving benches.
//
// The bench is also a self-check: it exits nonzero if any reliability
// invariant breaks —
//   * detect/abft modes must detect every faulty tile product,
//   * abft must correct >= 99% of faulty products (bounded retries),
//   * the unprotected baseline must show SDC whenever faults landed
//     (otherwise the injector is not actually injecting),
//   * the end-to-end executor overhead of ABFT must stay <= 25%.
//
// Usage: bench_reliability [--smoke] [--threads N] [--trials N] [--seed S]
//                          [--json-out FILE]
// Numeric flags are range-checked (bench_args.hpp; garbage or out of
// range exits 2): --threads [0, 1024], --trials [0, 2^20] (0 = the
// per-mode default), --seed any unsigned 64-bit integer.
// JSON goes to stdout (or the file); the human-readable summary to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fabric/system.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"
#include "reliability/abft.hpp"

int main(int argc, char** argv) {
  using namespace bfpsim;
  bool smoke = false;
  int threads = 0;
  int trials = 0;  // 0 = default per mode
  std::uint64_t seed = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--threads" && i + 1 < argc) {
      threads = parse_threads_arg(argv[0], argv[++i]);
    } else if (a == "--trials" && i + 1 < argc) {
      trials = static_cast<int>(
          parse_int_arg(argv[0], "--trials", argv[++i], 0, 1 << 20));
    } else if (a == "--seed" && i + 1 < argc) {
      seed = parse_seed_arg(argv[0], argv[++i]);
    } else if (a == "--json-out" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads N] [--trials N] "
                   "[--seed S] [--json-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (trials <= 0) trials = smoke ? 2 : 6;
  if (threads <= 0) threads = ThreadPool::hardware_threads();
  ThreadPool pool(threads);

  const int m = smoke ? 32 : 96;
  const int k = smoke ? 32 : 128;
  const int n = smoke ? 32 : 64;
  const std::vector<double> rates =
      smoke ? std::vector<double>{1e-3}
            : std::vector<double>{1e-5, 1e-4, 1e-3};
  const PuConfig pu;
  const BfpFormat fmt = bfp8_format();

  std::fprintf(stderr,
               "reliability sweep: %dx%dx%d GEMM, %d trials/rate, "
               "%d worker threads\n",
               m, k, n, trials, pool.size());

  // End-to-end ABFT cycle overhead via the executor: same program with and
  // without protection, no injected faults. The checksum work rides the
  // compute-only part of the pipelined cycle model, so this is the
  // deployment-relevant number (< the 25% MAC-path fraction).
  double e2e_overhead = 0.0;
  {
    Rng rng(seed);
    const auto a =
        rng.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
    const auto b =
        rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 1.0F);
    const AcceleratorSystem sys;
    Executor ex(sys);
    ex.set_tensor(0, m, k, a);
    ex.set_tensor(1, k, n, b);
    ProgramBuilder pb;
    pb.bfp_matmul(2, 0, 1, m, k, n).halt();
    const Program prog = pb.build();
    const ExecutionStats base = ex.run(prog);
    ReliabilityConfig rc;
    rc.mode = AbftMode::kCorrect;
    ex.set_reliability(rc);
    const ExecutionStats prot = ex.run(prog);
    e2e_overhead = static_cast<double>(prot.device_cycles) /
                       static_cast<double>(base.device_cycles) -
                   1.0;
    std::fprintf(stderr, "  abft end-to-end cycle overhead: %.2f%%\n",
                 100.0 * e2e_overhead);
  }

  struct Cell {
    AbftMode mode = AbftMode::kUnprotected;
    std::uint64_t injected = 0;
    std::uint64_t faulty = 0;
    std::uint64_t detected = 0;
    std::uint64_t patched = 0;
    std::uint64_t recomputed = 0;
    std::uint64_t exhausted = 0;
    std::uint64_t sdc_words = 0;
    std::uint64_t total_words = 0;
    double mac_overhead = 0.0;

    double detection() const {
      return faulty == 0 ? 1.0
                         : static_cast<double>(detected) /
                               static_cast<double>(faulty);
    }
    double corrected() const {
      return faulty == 0 ? 1.0
                         : static_cast<double>(faulty - exhausted) /
                               static_cast<double>(faulty);
    }
    double sdc_rate() const {
      return total_words == 0 ? 0.0
                              : static_cast<double>(sdc_words) /
                                    static_cast<double>(total_words);
    }
  };

  std::vector<std::string> violations;
  std::ostringstream json;
  json << "{\"bench\":\"reliability\",\"m\":" << m << ",\"k\":" << k
       << ",\"n\":" << n << ",\"trials\":" << trials << ",\"seed\":" << seed
       << ",\"abft_e2e_overhead\":" << e2e_overhead << ",\"points\":[";

  bool first_point = true;
  for (const double rate : rates) {
    std::vector<Cell> cells;
    for (const AbftMode mode :
         {AbftMode::kUnprotected, AbftMode::kDetect, AbftMode::kCorrect}) {
      Cell cell;
      cell.mode = mode;
      double overhead_sum = 0.0;
      for (int t = 0; t < trials; ++t) {
        const std::uint64_t trial_seed = seed + static_cast<std::uint64_t>(t);
        Rng rng(trial_seed);
        const auto a =
            rng.normal_vec(static_cast<std::size_t>(m) * k, 0.0F, 1.0F);
        const auto b =
            rng.normal_vec(static_cast<std::size_t>(k) * n, 0.0F, 1.0F);
        const AbftGemmResult clean = abft_gemm(
            a, m, k, b, n, fmt, pu.quant_round, pu.psu_bits,
            AbftOptions{AbftMode::kUnprotected, nullptr, 0}, &pool);
        FaultRates fr;
        fr.psu_word = rate;
        FaultPlan plan(trial_seed, fr);
        const AbftGemmResult res =
            abft_gemm(a, m, k, b, n, fmt, pu.quant_round, pu.psu_bits,
                      AbftOptions{mode, &plan, 2}, &pool);
        const auto snap = res.counters.snapshot();
        auto get = [&](const char* key) -> std::uint64_t {
          const auto it = snap.find(key);
          return it == snap.end() ? 0 : it->second;
        };
        cell.injected += get("reliability.injected");
        cell.faulty += get("reliability.faulty_products");
        cell.detected += get("reliability.detected_products");
        cell.patched += get("reliability.patched");
        cell.recomputed += get("reliability.recomputed");
        cell.exhausted += get("reliability.retries_exhausted");
        overhead_sum += res.work.overhead_fraction();
        cell.total_words += clean.c.size();
        for (std::size_t i = 0; i < clean.c.size(); ++i) {
          if (float_to_bits(res.c[i]) != float_to_bits(clean.c[i])) {
            ++cell.sdc_words;
          }
        }
      }
      cell.mac_overhead = overhead_sum / trials;
      cells.push_back(cell);
    }

    for (const Cell& c : cells) {
      const char* mode_name = to_string(c.mode);
      if (c.mode != AbftMode::kUnprotected && c.faulty > 0 &&
          c.detection() < 1.0) {
        violations.push_back(std::string(mode_name) + " missed faults at rate " +
                             std::to_string(rate));
      }
      if (c.mode == AbftMode::kCorrect && c.corrected() < 0.99) {
        violations.push_back("abft corrected < 99% at rate " +
                             std::to_string(rate));
      }
      if (c.mode == AbftMode::kUnprotected && c.faulty > 0 &&
          c.sdc_words == 0) {
        violations.push_back(
            "unprotected run shows no SDC despite injected faults at rate " +
            std::to_string(rate));
      }
      std::fprintf(stderr,
                   "  rate %g %-11s: injected %llu faulty %llu detect %.3f "
                   "corrected %.3f sdc %llu/%llu mac-ovh %.1f%%\n",
                   rate, mode_name,
                   static_cast<unsigned long long>(c.injected),
                   static_cast<unsigned long long>(c.faulty), c.detection(),
                   c.corrected(),
                   static_cast<unsigned long long>(c.sdc_words),
                   static_cast<unsigned long long>(c.total_words),
                   100.0 * c.mac_overhead);
    }

    if (!first_point) json << ",";
    first_point = false;
    json << "{\"rate\":" << rate << ",\"modes\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      if (i != 0) json << ",";
      json << "{\"mode\":\"" << to_string(c.mode)
           << "\",\"injected\":" << c.injected << ",\"faulty\":" << c.faulty
           << ",\"detected\":" << c.detected << ",\"patched\":" << c.patched
           << ",\"recomputed\":" << c.recomputed
           << ",\"retries_exhausted\":" << c.exhausted
           << ",\"detection\":" << c.detection()
           << ",\"corrected\":" << c.corrected()
           << ",\"sdc_words\":" << c.sdc_words
           << ",\"sdc_rate\":" << c.sdc_rate()
           << ",\"mac_overhead\":" << c.mac_overhead << "}";
    }
    json << "]}";
  }
  json << "]}";

  if (e2e_overhead > 0.25) {
    violations.push_back("abft end-to-end overhead " +
                         std::to_string(e2e_overhead) + " > 0.25");
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

  for (const std::string& v : violations) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", v.c_str());
  }
  return violations.empty() ? 0 : 1;
}
