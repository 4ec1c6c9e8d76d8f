// spec_pipeline: single-threaded compiler and runtime sweep. For every
// registered spec: load_model_spec -> build_fused_spec_graph -> compile
// (with its mandatory verify post-pass) -> verify_model_spec at cards
// {1,2,4} where the spec splits that way (decoders too big to materialize skip the lowering, as
// verify_model_spec does), plus the schedule search at 2 and 4 cards for
// encoders. The vit-tiny-test program is then compiled and executed once in
// each numeric mode, and every decoder spec is decode-served with
// serve_decode over seeded, interleaved multi-turn sequences in the default
// arena (one full-context sequence), below their combined KV working set,
// so the pager evicts and reloads. This covers the compiler, the verifier,
// weight materialization, the element-mode goldens, the ISA executor and
// the paged-KV pager; the other workloads never enter them, and the bfp8
// GEMM barely runs here.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "compiler/compile.hpp"
#include "compiler/schedule.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"
#include "numerics/format/registry.hpp"
#include "runtime/decode_serve.hpp"
#include "transformer/model.hpp"

namespace bfpbench {

using namespace bfpsim;

namespace {

// Registry loads timed before the first pass and again after every pass,
// so the set-up median spans the whole run rather than its first moments.
constexpr int kSetupRepsPerPass = 201;
constexpr int kMinPasses = 3;
constexpr int kMinTracedReps = 2;
constexpr const char* kExecSpec = "vit-tiny-test";
/// The compile carve-out verify_model_spec applies to decoders.
constexpr std::int64_t kMaxCompileParams = 8'000'000;
constexpr int kDecodeSequences = 3;
constexpr int kTurnsPerSequence = 3;

/// FNV-1a of every DecodeServeReport of one pass, in registry order, at
/// kDefaultSeed.
constexpr std::uint64_t kDecodeDigest = 0x20980e50a79f1667ULL;
/// Inputs the bfp8 compiled program's error against fp32 is averaged over.
constexpr int kMaeInputs = 16;
/// Committed bound on that mean error.
constexpr double kMaeBound = 0.00065;

/// Seeded multi-turn conversations: kDecodeSequences sequences take turns
/// round-robin, each turn adding a prompt and generating tokens, never
/// past the spec's context.
std::vector<ServeTurn> make_turns(const ModelSpec& spec, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + fnv1a_string(spec.name));
  const int ctx = spec.context;
  std::vector<int> used(kDecodeSequences, 0);
  std::vector<ServeTurn> turns;
  for (int t = 0; t < kTurnsPerSequence; ++t) {
    for (int s = 0; s < kDecodeSequences; ++s) {
      ServeTurn turn;
      turn.seq = s;
      turn.prompt_tokens = static_cast<int>(
          rng.uniform_int(std::max(1, ctx / 16), std::max(1, ctx / 8)));
      turn.gen_tokens = static_cast<int>(
          rng.uniform_int(std::max(1, ctx / 32), std::max(1, ctx / 16)));
      if (used[s] + turn.prompt_tokens + turn.gen_tokens > ctx) continue;
      used[s] += turn.prompt_tokens + turn.gen_tokens;
      turns.push_back(turn);
    }
  }
  return turns;
}

std::string decode_record(const DecodeServeReport& d) {
  std::ostringstream os;
  os << d.table() << '|' << d.total_cycles << '|' << d.total_tokens << '|'
     << d.kv.hits << '|' << d.kv.cold_allocs << '|' << d.kv.reloads << '|'
     << d.kv.evictions << '|' << d.kv.transfer_cycles << '|'
     << d.kv_page_bytes;
  return os.str();
}

/// Everything one sweep pass produced that the checks and metrics read.
struct Pass {
  bool verify_clean = true;
  std::vector<std::string> findings;
  std::uint64_t nodes = 0;
  std::uint64_t instructions = 0;
  std::vector<std::unique_ptr<CompiledModel>> encoders;  ///< per encoder
  std::vector<std::pair<std::string, RunResult>> runs;   ///< per mode
  std::vector<DecodeServeReport> decode;
  std::string decode_records;
};

/// Constant inputs of the sweep: the systems per mode (compiled programs
/// point at them) and the executed input.
struct Sweep {
  const AcceleratorSystem sys;
  std::vector<std::unique_ptr<AcceleratorSystem>> mode_sys;
  std::vector<float> x;
  std::uint64_t seed = 0;

  explicit Sweep(std::uint64_t s) : seed(s) {
    for (const NumericMode& m : numeric_modes()) {
      SystemConfig cfg;
      cfg.pu.mode = m.name;
      cfg.pu.format = m.spec;
      mode_sys.push_back(std::make_unique<AcceleratorSystem>(cfg));
    }
    x = random_embeddings(vit_config_of(load_model_spec(kExecSpec)), seed);
  }
};

/// One full pass; every public call is one operation, timed as a span
/// when `log` is set.
Pass sweep_pass(const Sweep& sw, SpanLog* log, Result& r) {
  auto step = [&](const std::string& name, const std::function<void()>& fn) {
    ++r.attempted;
    try {
      if (log != nullptr) {
        log->time(name, fn);
      } else {
        fn();
      }
    } catch (const std::exception& e) {
      ++r.failed;
      r.note(name + " threw: " + e.what());
    }
  };

  Pass p;
  std::optional<Graph> exec_graph;
  for (const RegisteredSpec& reg : registered_specs()) {
    ModelSpec spec;
    step("compiler.parse", [&] { spec = load_model_spec(reg.name); });
    const bool encoder = spec.family == SpecFamily::kEncoder;
    if (encoder ||
        spec_decode_costs(spec, sw.sys, spec.context).params <=
            kMaxCompileParams) {
      const int tokens = encoder ? 0 : std::min(spec.context, 32);
      Graph g;
      step("compiler.graph",
           [&] { g = build_fused_spec_graph(spec, tokens); });
      CompileOptions copt;
      copt.macro_kernels = true;
      step("compiler.compile", [&] {
        auto cm = std::make_unique<CompiledModel>(compile(g, sw.sys, copt));
        p.instructions += cm->program().size();
        if (encoder) p.encoders.push_back(std::move(cm));
      });
      p.nodes += g.size();
      if (reg.name == kExecSpec) exec_graph = std::move(g);
    }
    // Card counts the spec can be split across (by blocks or by heads);
    // vit-tiny-test (depth 2, 2 heads) has no 4-card partitioning.
    std::vector<int> cards_list;
    for (const int cards : {1, 2, 4}) {
      if (spec.depth % cards == 0 || spec.heads % cards == 0) {
        cards_list.push_back(cards);
      }
    }
    for (const int cards : cards_list) {
      step("compiler.verify_spec", [&] {
        const VerifyReport rep = verify_model_spec(spec, sw.sys, cards);
        if (!rep.clean()) {
          p.verify_clean = false;
          p.findings.push_back(spec.name + " cards=" + std::to_string(cards) +
                               ": " + rep.summary());
        }
      });
    }
    if (encoder) {
      const VitConfig cfg = vit_config_of(spec);
      for (const int cards : cards_list) {
        if (cards == 1) continue;
        step("compiler.schedule", [&] {
          (void)search_schedule(
              cfg, ClusterTopology::ring(cards, LinkConfig{},
                                         sw.sys.config()));
        });
      }
    } else {
      const std::vector<ServeTurn> turns = make_turns(spec, sw.seed);
      step("runtime.serve_decode", [&] {
        p.decode.push_back(serve_decode(spec, sw.sys, turns));
        p.decode_records += decode_record(p.decode.back()) + "\n";
      });
    }
  }

  if (exec_graph) {
    const std::vector<std::vector<float>> inputs{sw.x};
    const auto& modes = numeric_modes();
    for (std::size_t i = 0; i < modes.size(); ++i) {
      CompileOptions copt;
      copt.macro_kernels = true;
      std::optional<CompiledModel> cm;
      step("compiler.compile",
           [&] { cm.emplace(compile(*exec_graph, *sw.mode_sys[i], copt)); });
      if (!cm) continue;
      RunResult rr;
      step("isa.run." + modes[i].name, [&] { rr = cm->run(inputs); });
      p.runs.emplace_back(modes[i].name, std::move(rr));
    }
  }
  return p;
}

/// Output checks on one pass; returns the bfp8 output's error vs fp32.
double check_pass(Result& r, const Options& opt, const Sweep& sw,
                  const Pass& p) {
  for (const std::string& f : p.findings) r.note("verify: " + f);
  r.check(p.verify_clean, "a verify_model_spec report is not clean");
  r.check(p.runs.size() == numeric_modes().size(),
          "not every numeric mode executed");

  const ModelSpec spec = load_model_spec(kExecSpec);
  const VitConfig cfg = vit_config_of(spec);
  const VitModel model(random_weights(cfg, spec.seed));
  const std::vector<float> golden = model.forward_mixed(sw.x, sw.sys);
  for (const auto& [mode, rr] : p.runs) {
    bool finite = true;
    for (const float v : rr.output) finite = finite && std::isfinite(v);
    r.check(finite && rr.output.size() == golden.size(),
            mode + " compiled output is not a finite tokens x d tensor");
    if (mode == "bfp8") {
      r.check(same_bits(rr.output, golden),
              "bfp8 compiled output differs from forward_mixed");
    }
  }

  // The bfp8 program on kMaeInputs inputs (input 0 is the sweep's):
  // bit-equal to forward_mixed on each, and its mean error against fp32.
  CompileOptions copt;
  copt.macro_kernels = true;
  const CompiledModel cm = compile(build_fused_spec_graph(spec), sw.sys, copt);
  double sum = 0.0;
  for (int i = 0; i < kMaeInputs; ++i) {
    const std::vector<float> x =
        random_embeddings(cfg, sw.seed + static_cast<std::uint64_t>(i));
    const std::vector<float> out =
        cm.run(std::vector<std::vector<float>>{x}).output;
    r.check(same_bits(out, model.forward_mixed(x, sw.sys)),
            "bfp8 compiled output differs from forward_mixed on input " +
                std::to_string(i));
    sum += mean_abs_error(out, model.forward_reference(x));
  }
  const double mae = sum / kMaeInputs;
  r.check(mae <= kMaeBound, "bfp8 mae_vs_fp32 " + std::to_string(mae) +
                                " exceeds the committed bound");

  const std::uint64_t digest = fnv1a_string(p.decode_records);
  char buf[160];
  std::snprintf(buf, sizeof buf, "spec_pipeline decode digest: %016llx",
                static_cast<unsigned long long>(digest));
  r.note(buf);
  if (opt.seed == kDefaultSeed) {
    r.check(digest == kDecodeDigest,
            "DecodeServeReports differ from the committed digest");
  }
  return mae;
}

const RunResult* find_run(const Pass& p, const std::string& mode) {
  for (const auto& [m, rr] : p.runs) {
    if (m == mode) return &rr;
  }
  return nullptr;
}

double decode_tokens_per_s(const Pass& p, double freq) {
  std::uint64_t tokens = 0;
  std::uint64_t cycles = 0;
  for (const DecodeServeReport& d : p.decode) {
    tokens += d.total_tokens;
    cycles += d.total_cycles;
  }
  return static_cast<double>(tokens) * freq / static_cast<double>(cycles);
}

/// Modelled outcome of a pass, for the traced/untraced reconciliation.
std::string modelled_record(const Pass& p) {
  std::string s = p.decode_records;
  for (const auto& [mode, rr] : p.runs) {
    s += mode + ":" + std::to_string(rr.stats.device_cycles) + ":" +
         std::to_string(rr.stats.move_cycles) + ":" +
         std::to_string(rr.stats.instructions) + ":" +
         std::to_string(fnv1a_floats(rr.output)) + "\n";
  }
  s += std::to_string(p.nodes) + ":" + std::to_string(p.instructions);
  return s;
}

double load_registry() {
  const auto t0 = Clock::now();
  for (const RegisteredSpec& reg : registered_specs()) {
    (void)load_model_spec(reg.name);
  }
  return seconds_since(t0);
}

Result run_untraced(const Options& opt) {
  Result r;
  std::vector<double> setup_s;
  auto sample_setup = [&] {
    for (int i = 0; i < kSetupRepsPerPass; ++i) {
      setup_s.push_back(load_registry());
    }
  };
  sample_setup();
  const Sweep sw(opt.seed);

  std::vector<double> pass_ms;
  std::optional<Pass> first;
  std::string first_record;
  const auto start = Clock::now();
  while (pass_ms.size() < kMinPasses || seconds_since(start) < opt.seconds) {
    const auto t0 = Clock::now();
    Pass p = sweep_pass(sw, nullptr, r);
    pass_ms.push_back(seconds_since(t0) * 1e3);
    // Free the compiled encoders (DeiT-Small's constants) before the next
    // pass, so peak memory is one pass's whatever the pass count.
    p.encoders.clear();
    sample_setup();
    std::string rec = modelled_record(p);
    if (!first) {
      first = std::move(p);
      first_record = std::move(rec);
    } else if (rec != first_record) {
      ++r.failed;  // every pass of the same inputs must model the same
    }
    if (r.failed > 3) break;
  }

  const double mae = check_pass(r, opt, sw, *first);
  const double freq = sw.sys.config().pu.freq_hz;
  const RunResult* bfp8 = find_run(*first, "bfp8");
  const double host_ms = median(pass_ms);
  const double tok_s = decode_tokens_per_s(*first, freq);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "spec_pipeline: %zu passes, sweep_s %.4f, "
                "decode_tokens_per_s %.1f",
                pass_ms.size(), host_ms * 1e-3, tok_s);
  r.note(buf);

  r.metric("setup_s", median(setup_s), "s");
  r.metric("host_ms_p50", host_ms, "ms");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("modelled_mcycles",
           bfp8 == nullptr ? std::nan("")
                           : static_cast<double>(bfp8->stats.device_cycles) /
                                 1e6,
           "Mcycles");
  r.metric("modelled_goodput_per_s", tok_s, "1/s");
  r.metric("mae_vs_fp32", mae, "abs");
  return r;
}

Result run_traced(const Options& opt) {
  Result r;
  SpanLog log;
  LayerValues v;
  log.time("compiler.registry", [] { (void)load_registry(); });
  const Sweep sw(opt.seed);

  // The untraced and the traced sweep alternate.
  std::vector<double> plain_ms, traced_ms;
  std::optional<Pass> plain, traced;
  int reps = 0;
  for (const auto start = Clock::now();
       reps < kMinTracedReps || seconds_since(start) < opt.seconds; ++reps) {
    const auto t0 = Clock::now();
    plain = sweep_pass(sw, nullptr, r);
    plain_ms.push_back(seconds_since(t0) * 1e3);
    traced_ms.push_back(
        log.time("sweep", [&] { traced = sweep_pass(sw, &log, r); }));
    r.check(modelled_record(*traced) == modelled_record(*plain),
            "traced sweep models differently from the untraced sweep");
    traced->encoders.clear();
  }
  const double untraced_ms = median(plain_ms);
  (void)check_pass(r, opt, sw, *plain);

  // Re-run the verifier on each compiled encoder program: the share of
  // compile() its mandatory post-pass takes.
  for (const auto& cm : plain->encoders) {
    ++r.attempted;
    log.time("compiler.verify_program", [&] {
      const VerifyReport rep =
          verify_program(cm->program(), cm->verify_bindings(), sw.sys);
      r.check(rep.clean(), "verify_program re-run is not clean");
    });
  }

  // Sweep spans are summed over the reps; report one pass's.
  auto ms = [&](const std::string& name) { return log.total_ms(name) / reps; };
  double covered = 0.0;
  for (const char* name :
       {"compiler.parse", "compiler.graph", "compiler.compile",
        "compiler.verify_spec", "compiler.schedule", "runtime.serve_decode"}) {
    v[std::string(name) + ".ms"] = ms(name);
    covered += ms(name);
  }
  v["compiler.verify_program.ms"] =
      log.total_ms("compiler.verify_program");  // one re-run, after the reps
  v["compiler.nodes"] = static_cast<double>(plain->nodes);
  v["compiler.instructions"] = static_cast<double>(plain->instructions);
  for (const NumericMode& m : numeric_modes()) {
    const std::string name = "isa.run." + m.name;
    v[name + ".ms"] = ms(name);
    covered += ms(name);
  }
  KvStats kv;
  for (const DecodeServeReport& d : plain->decode) {
    kv.hits += d.kv.hits;
    kv.cold_allocs += d.kv.cold_allocs;
    kv.reloads += d.kv.reloads;
    kv.evictions += d.kv.evictions;
    kv.transfer_cycles += d.kv.transfer_cycles;
  }
  std::uint64_t decode_cycles = 0;
  for (const DecodeServeReport& d : plain->decode) {
    decode_cycles += d.total_cycles;
  }
  const double freq = sw.sys.config().pu.freq_hz;
  v["runtime.kv.hits"] = static_cast<double>(kv.hits);
  v["runtime.kv.cold"] = static_cast<double>(kv.cold_allocs);
  v["runtime.kv.reloads"] = static_cast<double>(kv.reloads);
  v["runtime.kv.evictions"] = static_cast<double>(kv.evictions);
  v["runtime.kv.hit_ratio"] = kv.hit_rate();
  v["runtime.kv.transfer_share"] = static_cast<double>(kv.transfer_cycles) /
                                   static_cast<double>(decode_cycles);
  v["decode_tokens_per_s"] = decode_tokens_per_s(*plain, freq);
  v["trace.coverage"] = covered / untraced_ms;
  v["trace.overhead"] = median(traced_ms) / untraced_ms - 1.0;

  if (!opt.span_path.empty() &&
      !write_file(opt.span_path, log.to_chrome_json())) {
    r.note("could not write spans to " + opt.span_path);
  }
  emit_per_layer(r, v);
  return r;
}

}  // namespace

Result run_spec_pipeline(const Options& opt) {
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}

}  // namespace bfpbench
