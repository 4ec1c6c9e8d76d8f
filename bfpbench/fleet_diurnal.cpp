// fleet_diurnal: an open loop in virtual time. A seeded diurnal_trace of
// vit_test_tiny requests (17 tokens, d=64, 2 blocks), tagged for two
// tenants on different tiers, runs through Session::serve_fleet with the
// autoscaler on and a 2-worker ThreadPool. The rate puts the diurnal peak
// above the initial replicas' capacity, so queues build, replicas spawn,
// and replicas retire in the trough. Thousands of tiny forwards make
// per-call dispatch and quantization dominate rather than MACs, and this
// is the only workload that enters the cluster executor, the fleet loop,
// admission and the autoscaler.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "fabric/hbm.hpp"
#include "replay.hpp"
#include "runtime/session.hpp"

namespace bfpbench {

using namespace bfpsim;

namespace {

constexpr std::uint64_t kWeightSeed = 42;
// Set-up samples taken before the first run and again before every run,
// so the median spans the whole run rather than its first moments.
constexpr int kSetupRepsPerRun = 7;
constexpr int kWorkers = 2;
constexpr int kMinTracedReps = 2;
constexpr int kReplays = 64;

// kTraces distinct seeded traces per run (trace k of seed s is seeded
// s * kTraces + k); the modelled metrics are medians over them, which
// steadies the tail latency of any one diurnal realization. Runs cycle
// through the traces until the time is up, so host time gets more samples
// while the modelled numbers stay fixed per seed.
constexpr int kTraces = 8;
// Requests whose features are checked against the fp32 reference.
constexpr int kMaeRequests = 16;
// Traffic shape: kRequests arrivals whose rate swings between trough and
// peak (kPeakRatio apart) over kPeriodMs of virtual time, averaging
// kLoad of the initial fleet's capacity.
constexpr int kRequests = 2000;
constexpr int kInitialReplicas = 2;
constexpr int kMaxReplicas = 8;
constexpr double kLoad = 0.7;
constexpr double kPeakRatio = 3.0;
constexpr double kPeriodMs = 50.0;
constexpr double kColdStartUs = 2000.0;
constexpr double kScaleIntervalUs = 1000.0;

/// FNV-1a of the kTraces FleetReport::to_json() documents, concatenated,
/// at kDefaultSeed.
constexpr std::uint64_t kReportDigest = 0x5a3a6c84624bfa55ULL;
/// Committed bound on the mean feature error of the first kMaeRequests
/// requests against the fp32 reference.
constexpr double kMaeBound = 0.00065;

struct Workload {
  VitConfig cfg = vit_test_tiny();
  std::unique_ptr<Session> session;
  ModelId id = -1;
  VitWeights weights;
  Session::FleetConfig fleet;
  std::vector<ArrivalTrace> traces;
  ArrivalTrace trace;  ///< traces[0], the one the traced run serves
  ServePolicy policy;
};

void set_up(Workload& w, SpanLog* log) {
  auto materialize = [&] { w.weights = random_weights(w.cfg, kWeightSeed); };
  auto deploy = [&] {
    w.session = std::make_unique<Session>();
    w.id = w.session->deploy(w.weights, w.cfg.name);
  };
  if (log != nullptr) {
    log->time("transformer.random_weights", materialize);
    log->time("runtime.deploy", deploy);
  } else {
    materialize();
    deploy();
  }
}

/// The fleet, its tenants, and the seeded arrival trace (generated inputs;
/// not timed).
void make_inputs(Workload& w, std::uint64_t seed) {
  const SystemConfig& sys = w.session->system().config();
  const double freq = sys.pu.freq_hz;
  Session::FleetClassConfig cls;
  cls.cards = 1;
  cls.strategy = PartitionStrategy::kPipeline;
  cls.initial_replicas = kInitialReplicas;
  cls.max_replicas = kMaxReplicas;
  w.fleet.classes = {cls};
  w.fleet.tenants.tenants = {TenantSpec{"interactive", 0, 1.0, 0.0},
                             TenantSpec{"batch", 1, 1.0, 0.0}};
  w.fleet.autoscaler.enabled = true;
  w.fleet.autoscaler.cold_start_cycles =
      static_cast<std::uint64_t>(kColdStartUs * 1e-6 * freq);
  w.fleet.autoscaler.interval_cycles =
      static_cast<std::uint64_t>(kScaleIntervalUs * 1e-6 * freq);
  w.fleet.autoscaler.cooldown_cycles = w.fleet.autoscaler.interval_cycles;

  // Capacity of the initial replicas from one probe forward, as
  // `bfpsim fleet` sizes its automatic rate.
  const ClusterExecutor probe(w.weights,
                              ClusterTopology::ring(1, LinkConfig{}, sys),
                              PartitionStrategy::kPipeline);
  ClusterStats stats;
  (void)probe.forward(random_embeddings(w.cfg, seed), &stats);
  const double capacity_rps = kInitialReplicas * freq /
                              static_cast<double>(stats.total_cycles());
  const double base = 2.0 * kLoad * capacity_rps / (1.0 + kPeakRatio);
  for (int k = 0; k < kTraces; ++k) {
    ArrivalTrace t = diurnal_trace(kRequests, base, base * kPeakRatio,
                                   kPeriodMs * 1e-3, seed * kTraces + k, freq);
    assign_tenants(&t, w.fleet.tenants);
    w.traces.push_back(std::move(t));
  }
  w.trace = w.traces[0];
}

std::size_t slo_met(const FleetReport& rep) {
  std::size_t n = 0;
  for (const LatencyRecord& rec : rep.serve.records) n += rec.slo_met;
  return n;
}

/// Mean feature error of the first kMaeRequests requests of `trace`.
double fleet_mae(const Workload& w, const ArrivalTrace& trace,
                 const std::vector<std::vector<float>>& features) {
  const VitModel reference(w.weights);
  double sum = 0.0;
  for (int i = 0; i < kMaeRequests; ++i) {
    sum += mean_abs_error(
        features[static_cast<std::size_t>(i)],
        reference.forward_reference(random_embeddings(
            w.cfg, trace.seed + static_cast<std::uint64_t>(i))));
  }
  return sum / kMaeRequests;
}

/// Output checks: the committed digest of the report documents (default
/// seed), request accounting, and the feature error bound.
void check_reports(Result& r, const Options& opt,
                   const std::vector<std::string>& jsons,
                   const std::vector<FleetReport>& reps, double mae) {
  std::string all;
  for (const std::string& j : jsons) all += j;
  const std::uint64_t digest = fnv1a_string(all);
  char buf[160];
  std::snprintf(buf, sizeof buf, "fleet_diurnal report digest: %016llx",
                static_cast<unsigned long long>(digest));
  r.note(buf);
  if (opt.seed == kDefaultSeed && jsons.size() == kTraces) {
    r.check(digest == kReportDigest,
            "FleetReport JSON differs from the committed digest");
  }
  for (const FleetReport& rep : reps) {
    r.check(rep.serve.records.size() + rep.serve.rejected_ids.size() ==
                static_cast<std::size_t>(kRequests),
            "completed + rejected != requests");
  }
  r.check(mae <= kMaeBound, "mae_vs_fp32 " + std::to_string(mae) +
                                " exceeds the committed bound");
}

Result run_untraced(const Options& opt) {
  Result r;
  Workload w;
  std::vector<double> setup_s;
  auto sample_setup = [&] {
    for (int i = 0; i < kSetupRepsPerRun; ++i) {
      Workload scratch;
      const auto t0 = Clock::now();
      set_up(scratch, nullptr);
      setup_s.push_back(seconds_since(t0));
    }
  };
  sample_setup();
  set_up(w, nullptr);
  make_inputs(w, opt.seed);
  ThreadPool pool(kWorkers);

  std::vector<double> run_ms;
  std::vector<FleetReport> reports;
  std::vector<std::string> jsons;
  std::vector<std::vector<float>> features0;
  const auto start = Clock::now();
  for (std::size_t j = 0;
       j < kTraces || seconds_since(start) < opt.seconds; ++j) {
    const std::size_t k = j % kTraces;
    sample_setup();
    ++r.attempted;
    try {
      const auto t0 = Clock::now();
      Session::FleetServeResult res = w.session->serve_fleet(
          w.id, w.fleet, w.traces[k], w.policy, &pool);
      run_ms.push_back(seconds_since(t0) * 1e3);
      std::string json = res.report.to_json();
      if (j < kTraces) {
        if (j == 0) features0 = std::move(res.features);
        reports.push_back(std::move(res.report));
        jsons.push_back(std::move(json));
      } else if (json != jsons[k]) {
        ++r.failed;  // a replay of the same trace must report the same
      }
    } catch (const std::exception& e) {
      ++r.failed;
      r.note(std::string("serve_fleet threw: ") + e.what());
      if (r.failed > 3) break;
    }
  }
  if (reports.size() != kTraces) return r;

  const double mae = fleet_mae(w, w.traces[0], features0);
  check_reports(r, opt, jsons, reports, mae);
  std::vector<double> p95, p95_ms, goodput, attainment, replica_s;
  for (const FleetReport& rep : reports) {
    const ServeReport& s = rep.serve;
    const double rs = static_cast<double>(rep.replica_cycles) / s.freq_hz;
    const double met = static_cast<double>(slo_met(rep));
    p95.push_back(static_cast<double>(s.latency.p95));
    p95_ms.push_back(s.cycles_to_ms(s.latency.p95));
    goodput.push_back(met / rs);
    attainment.push_back(met / kRequests);
    replica_s.push_back(rs);
  }
  const double host_ms = median(run_ms);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "fleet_diurnal: %zu runs over %d traces of %d requests, "
                "requests_per_host_s %.1f; trace medians: modelled_p95_ms "
                "%.4f, slo_attainment %.4f, replica_s %.6f",
                run_ms.size(), kTraces, kRequests,
                kRequests / (host_ms * 1e-3), median(p95_ms),
                median(attainment), median(replica_s));
  r.note(buf);

  r.metric("setup_s", median(setup_s), "s");
  r.metric("host_ms_p50", host_ms, "ms");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("modelled_mcycles", median(p95) / 1e6, "Mcycles");
  r.metric("modelled_goodput_per_s", median(goodput), "1/s");
  r.metric("mae_vs_fp32", mae, "abs");
  return r;
}

/// Session::serve_fleet rebuilt from its public parts: per-request
/// random_embeddings + ClusterExecutor::forward on the pool, the class-0
/// pass table, then the pure fleet event loop.
Session::FleetServeResult serve_fleet_outside_in(const Workload& w,
                                                 ThreadPool& pool,
                                                 SpanLog& log) {
  const SystemConfig& sys = w.session->system().config();
  const auto n = static_cast<std::size_t>(w.trace.total_requests);
  const Session::FleetClassConfig& fc = w.fleet.classes[0];
  Session::FleetServeResult out;
  out.features.resize(n);
  out.request_stats.resize(n);

  const ClusterExecutor exec(
      w.weights, ClusterTopology::ring(fc.cards, w.fleet.link, sys),
      fc.strategy);
  std::vector<SpanLog> request_logs(n, SpanLog(log.origin()));
  log.time("fleet.forwards", [&] {
    pool.parallel_for(n, [&](std::size_t i) {
      SpanLog& rl = request_logs[i];
      const auto id = static_cast<std::int64_t>(i);
      std::vector<float> x;
      rl.time("transformer.random_embeddings", [&] {
        x = random_embeddings(w.cfg, w.trace.seed + i);
      }, id);
      rl.time("cluster.forward", [&] {
        out.features[i] =
            exec.forward(std::move(x), &out.request_stats[i], nullptr);
      }, id);
    });
    for (const SpanLog& rl : request_logs) log.merge(rl);
  });

  FleetSpec spec;
  log.time("fleet.pass_table", [&] {
    const VitConfig& cfg = w.cfg;
    const std::uint64_t io_bytes = static_cast<std::uint64_t>(cfg.tokens()) *
                                   static_cast<std::uint64_t>(cfg.embed_dim) *
                                   sizeof(float);
    const std::uint64_t io =
        transfer_cycles(sys.hbm, io_bytes, sys.hbm.bfp_burst_bytes);
    spec.freq_hz = sys.pu.freq_hz;
    spec.tenants = w.fleet.tenants;
    spec.autoscaler = w.fleet.autoscaler;
    ReplicaClassSpec cls;
    cls.name = std::to_string(fc.cards) + "x" + to_string(fc.strategy);
    cls.cards = fc.cards;
    cls.strategy = to_string(fc.strategy);
    cls.initial_replicas = fc.initial_replicas;
    cls.max_replicas = fc.max_replicas;
    cls.passes.reserve(n);
    for (const ClusterStats& st : out.request_stats) {
      cls.passes.push_back({io, st.total_cycles(), io});
    }
    spec.classes.push_back(std::move(cls));
  });
  log.time("fleet.loop", [&] {
    out.report = serve_fleet(spec, w.trace, w.policy);
  });
  for (const ClusterStats& st : out.request_stats) {
    out.report.serve.counters.add("serve.bfp_macs", st.bfp_macs);
    out.report.serve.counters.add("cluster.collective_cycles",
                                  st.collective_cycles);
    out.report.serve.counters.add("cluster.collective_bytes",
                                  st.collective_bytes);
  }
  return out;
}

Result run_traced(const Options& opt) {
  Result r;
  SpanLog log;
  LayerValues v;
  Workload w;
  set_up(w, &log);
  make_inputs(w, opt.seed);
  ThreadPool pool(kWorkers);

  // Session::serve_fleet and its outside-in rebuild alternate.
  std::vector<double> plain_ms, rebuilt_ms;
  Session::FleetServeResult plain, rebuilt;
  int reps = 0;
  for (const auto start = Clock::now();
       reps < kMinTracedReps || seconds_since(start) < opt.seconds; ++reps) {
    r.attempted += 2;
    const auto t0 = Clock::now();
    plain = w.session->serve_fleet(w.id, w.fleet, w.trace, w.policy, &pool);
    plain_ms.push_back(seconds_since(t0) * 1e3);
    rebuilt_ms.push_back(log.time(
        "fleet.serve", [&] { rebuilt = serve_fleet_outside_in(w, pool, log); }));
    r.check(rebuilt.report.to_json() == plain.report.to_json(),
            "rebuilt fleet report differs from Session::serve_fleet's");
    r.check(rebuilt.features == plain.features,
            "rebuilt per-request features differ from Session::serve_fleet's");
  }
  const double untraced_ms = median(plain_ms);
  const std::string json = plain.report.to_json();
  // The traced run serves trace 0 only; its digest is not the committed
  // one (which covers every trace), so only accounting and error apply.
  check_reports(r, opt, {json}, {plain.report},
                fleet_mae(w, w.trace, plain.features));

  // One forward's layer calls at the workload's own (tiny) shapes,
  // averaged over kReplays replays of request 0.
  ReplayCounts rc;
  const AcceleratorSystem sys(w.session->system().config());
  const std::vector<float> x0 = random_embeddings(w.cfg, w.trace.seed);
  SpanLog layers(log.origin());
  for (int i = 0; i < kReplays; ++i) {
    ++r.attempted;
    rc = ReplayCounts{};
    r.check(replay_forward(w.weights, x0, sys, layers, rc) ==
                plain.features[0],
            "outside-in replay differs from the fleet's request-0 features");
  }
  auto layer_ms = [&](const char* name) {
    return layers.total_ms(name) / kReplays;
  };
  const double gemm = layer_ms("fabric.gemm");
  const double quant = layer_ms("numerics.quantize");
  const double kernel = layer_ms("numerics.gemm_kernel");
  v["fabric.gemm.ms"] = gemm;
  v["fabric.gemm.calls"] = static_cast<double>(rc.gemm_calls);
  v["fabric.gemm.self_ms"] = gemm - quant - kernel;
  v["numerics.quantize.ms"] = quant;
  v["numerics.quantize.elems"] = static_cast<double>(rc.quant_elems);
  v["numerics.quantize.weight_share"] =
      static_cast<double>(rc.quant_weight_elems) /
      static_cast<double>(rc.quant_elems);
  v["numerics.gemm_kernel.ms"] = kernel;
  v["numerics.gemm_kernel.macs"] = static_cast<double>(rc.kernel_macs);
  v["numerics.gemm_kernel.macs_per_ns"] =
      static_cast<double>(rc.kernel_macs) / (kernel * 1e6);
  v["numerics.softmax.ms"] = layer_ms("numerics.softmax");
  v["numerics.softmax.elems"] = static_cast<double>(rc.softmax_elems);
  v["numerics.gelu.ms"] = layer_ms("numerics.gelu");
  v["numerics.gelu.elems"] = static_cast<double>(rc.gelu_elems);
  v["numerics.layernorm.ms"] = layer_ms("numerics.layernorm");
  v["numerics.layernorm.elems"] = static_cast<double>(rc.layernorm_elems);
  v["numerics.elementwise.ms"] = layer_ms("numerics.elementwise");
  v["numerics.elementwise.elems"] = static_cast<double>(rc.elementwise_elems);

  auto ms = [&](const char* name) { return log.total_ms(name); };
  const ServeReport& s = plain.report.serve;
  const double freq = s.freq_hz;
  // Rebuild spans are summed over the reps; report one run's.
  auto per_run = [&](const char* name) { return ms(name) / reps; };
  const double loop = per_run("fleet.loop");
  const double batches = static_cast<double>(s.counters.get("serve.batches"));
  v["transformer.random_weights.ms"] = ms("transformer.random_weights");
  v["runtime.deploy.ms"] = ms("runtime.deploy");
  v["transformer.random_embeddings.ms"] =
      per_run("transformer.random_embeddings");
  v["cluster.forward.ms"] = per_run("cluster.forward");
  v["cluster.forward.calls"] =
      static_cast<double>(log.count("cluster.forward")) / reps;
  v["fleet.loop.ms"] = loop;
  v["fleet.loop.ns_per_request"] = loop * 1e6 / kRequests;
  v["serving.queue_wait_p50_ms"] = s.cycles_to_ms(s.queue_wait.p50);
  v["serving.queue_wait_p95_ms"] = s.cycles_to_ms(s.queue_wait.p95);
  v["serving.batches"] = batches;
  v["serving.mean_batch"] =
      static_cast<double>(s.counters.get("serve.dispatched")) / batches;
  v["serving.rejected"] = static_cast<double>(s.rejected_ids.size());
  v["fleet.scale_ups"] = static_cast<double>(s.counters.get("fleet.scale_ups"));
  v["fleet.scale_downs"] =
      static_cast<double>(s.counters.get("fleet.scale_downs"));
  v["fleet.peak_replicas"] = plain.report.peak_replicas;
  v["fleet.utilization"] = s.utilization;
  v["modelled_p95_ms"] = s.cycles_to_ms(s.latency.p95);
  v["slo_attainment"] =
      static_cast<double>(slo_met(plain.report)) / kRequests;
  v["replica_s"] = static_cast<double>(plain.report.replica_cycles) / freq;
  // The forward phase runs on kWorkers threads, so its span time is
  // divided by the worker count before it is set against wall time.
  const double covered = (per_run("transformer.random_embeddings") +
                          per_run("cluster.forward")) /
                             kWorkers +
                         per_run("fleet.pass_table") + loop;
  v["trace.coverage"] = covered / untraced_ms;
  v["trace.overhead"] = median(rebuilt_ms) / untraced_ms - 1.0;

  log.merge(layers);
  if (!opt.span_path.empty() &&
      !write_file(opt.span_path, log.to_chrome_json())) {
    r.note("could not write spans to " + opt.span_path);
  }
  emit_per_layer(r, v);
  return r;
}

}  // namespace

Result run_fleet_diurnal(const Options& opt) {
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}

}  // namespace bfpbench
