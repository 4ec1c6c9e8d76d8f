// bfpbench — the end-to-end benchmark of bfpsim.
//
//   bfpbench --workload deit_forward|fleet_diurnal|spec_pipeline
//            [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//
// Runs one workload through the library's public API for about S seconds,
// checks its outputs, and prints as the last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the separate
// outside-in traced pass and reports the per-layer metrics instead (and
// writes its spans as a Chrome trace to FILE when --spans is given).
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace bfpbench {

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    checks_ok = false;
    notes.push_back("CHECK FAILED: " + what);
  }
  return ok;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_floats(std::span<const float> v) {
  return fnv1a(v.data(), v.size() * sizeof(float));
}

std::uint64_t fnv1a_string(const std::string& s) {
  return fnv1a(s.data(), s.size());
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double mean_abs_error(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size() || a.empty()) return std::nan("");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return sum / static_cast<double>(a.size());
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

double SpanLog::time(const std::string& name, const std::function<void()>& fn,
                     std::int64_t request) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {name, now_ns(), 0, open_.empty() ? -1 : open_.back(), request});
  open_.push_back(id);
  try {
    fn();
  } catch (...) {
    open_.pop_back();
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    throw;
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
}

void SpanLog::merge(const SpanLog& other) {
  const int base = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  for (Span s : other.spans_) {
    s.parent = s.parent < 0 ? parent : s.parent + base;
    spans_.push_back(std::move(s));
  }
}

double SpanLog::total_ms(const std::string& name) const {
  double ms = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }
  return ms;
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

std::string SpanLog::to_chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << (s.request < 0 ? 0 : s.request + 1)
       << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}}";
  }
  os << "]}\n";
  return os.str();
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> k = {
      {"setup_s", "s"},
      {"host_ms_p50", "ms"},
      {"peak_rss_mb", "MB"},
      {"modelled_mcycles", "Mcycles"},
      {"modelled_goodput_per_s", "1/s"},
      {"mae_vs_fp32", "abs"},
  };
  return k;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> k = {
      // set-up
      {"transformer.random_weights.ms", "ms"},
      {"runtime.deploy.ms", "ms"},
      // forward (deit_forward; per replayed forward on fleet_diurnal too)
      {"runtime.infer.self_ms", "ms"},
      {"fabric.gemm.ms", "ms"},
      {"fabric.gemm.calls", "count"},
      {"fabric.gemm.self_ms", "ms"},
      {"numerics.quantize.ms", "ms"},
      {"numerics.quantize.elems", "count"},
      {"numerics.quantize.weight_share", "ratio"},
      {"numerics.gemm_kernel.ms", "ms"},
      {"numerics.gemm_kernel.macs", "count"},
      {"numerics.gemm_kernel.macs_per_ns", "1/ns"},
      {"numerics.softmax.ms", "ms"},
      {"numerics.softmax.elems", "count"},
      {"numerics.gelu.ms", "ms"},
      {"numerics.gelu.elems", "count"},
      {"numerics.layernorm.ms", "ms"},
      {"numerics.layernorm.elems", "count"},
      {"numerics.elementwise.ms", "ms"},
      {"numerics.elementwise.elems", "count"},
      // modelled hardware, one DeiT-Small image
      {"model.linear_cycles", "cycles"},
      {"model.vector_cycles", "cycles"},
      {"model.dma_cycles", "cycles"},
      {"model.bfp_macs", "count"},
      {"modelled_ms", "ms"},
      {"paper.table4.linear_rel_err", "ratio"},
      {"paper.table4.fp32_rel_err", "ratio"},
      {"paper.table4.total_rel_err", "ratio"},
      {"paper.table4.fp32_share_rel_err", "ratio"},
      // fleet
      {"transformer.random_embeddings.ms", "ms"},
      {"cluster.forward.ms", "ms"},
      {"cluster.forward.calls", "count"},
      {"fleet.loop.ms", "ms"},
      {"fleet.loop.ns_per_request", "ns"},
      {"serving.queue_wait_p50_ms", "ms"},
      {"serving.queue_wait_p95_ms", "ms"},
      {"serving.batches", "count"},
      {"serving.mean_batch", "count"},
      {"serving.rejected", "count"},
      {"fleet.scale_ups", "count"},
      {"fleet.scale_downs", "count"},
      {"fleet.peak_replicas", "count"},
      {"fleet.utilization", "ratio"},
      {"modelled_p95_ms", "ms"},
      {"slo_attainment", "ratio"},
      {"replica_s", "s"},
      // compiler, ISA executor, paged-KV decode
      {"compiler.parse.ms", "ms"},
      {"compiler.graph.ms", "ms"},
      {"compiler.compile.ms", "ms"},
      {"compiler.verify_program.ms", "ms"},
      {"compiler.verify_spec.ms", "ms"},
      {"compiler.schedule.ms", "ms"},
      {"compiler.nodes", "count"},
      {"compiler.instructions", "count"},
      {"isa.run.bfp8.ms", "ms"},
      {"isa.run.fp8_e4m3.ms", "ms"},
      {"isa.run.fp8_e5m2.ms", "ms"},
      {"isa.run.bf16.ms", "ms"},
      {"isa.run.lmul.ms", "ms"},
      {"isa.run.sliced_fp32.ms", "ms"},
      {"runtime.serve_decode.ms", "ms"},
      {"runtime.kv.hits", "count"},
      {"runtime.kv.cold", "count"},
      {"runtime.kv.reloads", "count"},
      {"runtime.kv.evictions", "count"},
      {"runtime.kv.hit_ratio", "ratio"},
      {"runtime.kv.transfer_share", "ratio"},
      {"decode_tokens_per_s", "tok/s"},
      // the trace itself
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return k;
}

void emit_per_layer(Result& r, const LayerValues& values) {
  std::size_t known = 0;
  for (const MetricDef& m : per_layer_metrics()) {
    const auto it = values.find(m.name);
    known += it != values.end();
    r.metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
  if (known != values.size()) {
    throw std::logic_error("emit_per_layer: unlisted per-layer metric");
  }
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  return static_cast<bool>(os);
}

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "bfpbench: %s\nusage: bfpbench --workload "
               "deit_forward|fleet_diurnal|spec_pipeline [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE]\n",
               msg);
  return 2;
}

/// JSON number with every significant digit, so runs compare by their raw
/// values; non-finite values become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace bfpbench

int main(int argc, char** argv) {
  using namespace bfpbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage("bad --seed");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 3600.0) {
        return usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--spans") {
      opt.span_path = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }

  Result r;
  try {
    if (opt.workload == "deit_forward") {
      r = run_deit_forward(opt);
    } else if (opt.workload == "fleet_diurnal") {
      r = run_fleet_diurnal(opt);
    } else if (opt.workload == "spec_pipeline") {
      r = run_spec_pipeline(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bfpbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  // The result carries exactly the metric set of its kind, in list order.
  const auto& defs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  bool listed = r.metrics.size() == defs.size();
  for (std::size_t i = 0; listed && i < defs.size(); ++i) {
    listed = r.metrics[i].name == defs[i].name &&
             r.metrics[i].unit == defs[i].unit;
  }
  if (!listed && r.attempted > r.failed) {
    std::fprintf(stderr, "bfpbench: %s reported an unexpected metric set\n",
                 opt.workload.c_str());
    return 1;
  }

  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  const bool correct = r.checks_ok && r.failed == 0 && r.attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
