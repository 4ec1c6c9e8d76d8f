// Shared pieces of the bfpbench program: run options, the result record
// every workload fills, host timing, output checks, and the outside-in span
// log the traced runs use.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace bfpbench {

/// Default workload seed: the one the committed digests are taken at.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  std::string span_path;  ///< where a traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the operation counts, the named metrics in
/// emission order, and free-form lines printed before the JSON result.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Record an output check; a failed check marks the run incorrect.
  bool check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> v);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// FNV-1a over raw bytes: the committed output digests.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 14695981039346656037ULL);
std::uint64_t fnv1a_floats(std::span<const float> v);
std::uint64_t fnv1a_string(const std::string& s);

/// Bitwise equality of two float vectors.
bool same_bits(std::span<const float> a, std::span<const float> b);

/// Mean absolute difference of two equal-length vectors (NaN otherwise).
double mean_abs_error(std::span<const float> a, std::span<const float> b);

/// Host-time spans recorded around public calls, kept in memory until the
/// run ends. A span's parent is an index into the same log (-1 = root);
/// `request` tags every span of one request (-1 = none).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t request = -1;
};

class SpanLog {
 public:
  /// Span times are taken relative to `origin`; logs that will be merged
  /// share one origin.
  explicit SpanLog(Clock::time_point origin = Clock::now())
      : origin_(origin) {}

  Clock::time_point origin() const { return origin_; }

  /// Time `fn` as a span named `name` nested under the innermost open
  /// span, and return its duration in ms.
  double time(const std::string& name, const std::function<void()>& fn,
              std::int64_t request = -1);

  /// Append another log's spans (index-remapped) under this log's
  /// innermost open span, e.g. per-request logs filled by pool workers.
  void merge(const SpanLog& other);

  /// Summed duration of the spans named `name` (0 when there are none).
  double total_ms(const std::string& name) const;

  /// Number of spans named `name`.
  std::size_t count(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, one thread row per request).
  std::string to_chrome_json() const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Every end-to-end metric (--trace 0) and every per-layer metric
/// (--trace 1), in output order, with units. BENCHMARK.json lists the same
/// names.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Per-layer values of one traced run, by metric name. Layers a workload
/// never enters are reported as 0.
using LayerValues = std::map<std::string, double>;

/// Append every per-layer metric to `r` from `values`; throws on a name
/// that is not a per-layer metric.
void emit_per_layer(Result& r, const LayerValues& values);

/// Write `text` to `path`; returns false on failure.
bool write_file(const std::string& path, const std::string& text);

// Workload entry points (one translation unit each).
Result run_deit_forward(const Options& opt);
Result run_fleet_diurnal(const Options& opt);
Result run_spec_pipeline(const Options& opt);

}  // namespace bfpbench
