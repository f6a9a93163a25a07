#pragma once
// Shared pieces of the perfbench binary: options, the clock, process
// resource usage, seeded input draws, latency percentiles, per-name span
// totals for traced runs, and the result every workload hands back.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seeded-violation self-test: corrupt the expected output of every N-th
  /// timed op (0 = off). Such ops must be counted as failed.
  std::uint64_t tamper_every = 0;
};

/// The seed the output pins were recorded for.
inline constexpr std::uint64_t kPinnedSeed = 1;

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (every thread).
[[nodiscard]] double process_cpu_s();
/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set size in MB (ru_maxrss).
[[nodiscard]] double peak_rss_mb();
/// Involuntary context switches of the process so far.
[[nodiscard]] long involuntary_switches();
/// The 1-minute load average, or -1 when unreadable.
[[nodiscard]] double load_average();
/// CPU seconds the hypervisor gave to other guests (steal time, all CPUs),
/// or -1 when unreadable.
[[nodiscard]] double steal_seconds();
/// Host-speed probe: wall milliseconds of a fixed single-threaded integer
/// kernel (median of three). Printed with the result, never folded into a
/// metric, so a run on a slowed-down host shows as such.
[[nodiscard]] double speed_probe_ms();

/// Seeded input draws, independent of the program's own RNG so the inputs
/// stay fixed when the program's utilities change.
class Draw {
 public:
  Draw(std::uint64_t seed, std::uint64_t stream)
      : engine_(seed * 0x9E3779B97F4A7C15ULL ^ stream) {}
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return engine_() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  std::uint64_t bits() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

/// Linear-interpolated quantile of `sorted` (ascending), q in [0, 1].
template <typename T>
[[nodiscard]] double quantile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) +
         static_cast<double>(sorted[hi] - sorted[lo]) * frac;
}
[[nodiscard]] double median(std::vector<double> values);

/// Op latencies in seconds, kept as a uniform random sample of at most
/// kCapacity values (reservoir sampling). The sample's memory is then the
/// same whatever the throughput, so peak RSS measures the program rather
/// than how many ops the benchmark recorded.
class LatencySample {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 18;

  LatencySample() { values_.reserve(kCapacity); }
  void add(double seconds);
  /// Every latency added, sampled or not.
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  [[nodiscard]] std::vector<float>& values() noexcept { return values_; }

 private:
  std::vector<float> values_;
  std::uint64_t seen_ = 0;
  Draw draw_{0, 0x1a7e};
};

/// Spans recorded by the benchmark around its calls into each layer, kept
/// as a total duration and a count per span name.
class SpanLog {
 public:
  void add(const char* name, double seconds);

  /// Total seconds and count of spans named `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  [[nodiscard]] double mean_s(const std::string& name) const;

 private:
  struct Total {
    const char* name;
    double seconds;
    std::size_t count;
  };
  [[nodiscard]] const Total* find(const std::string& name) const;

  std::vector<Total> totals_;
};

/// RAII span: times its scope into `log`. A null log records nothing (the
/// untraced run).
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), name_(name), start_(log != nullptr ? now_s() : 0.0) {}
  ~Scope() {
    if (log_ != nullptr) log_->add(name_, now_s() - start_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  double start_;
};

/// What one workload run hands back to main.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;      ///< one per set-up repetition
  double window_s = 0.0;            ///< wall seconds of the timed loop
  double cpu_s = 0.0;               ///< process CPU over the timed loop
  /// Latencies of the completed, correct timed ops.
  LatencySample latencies;
  double tail_q = 0.90;             ///< the tail percentile reported
  long involuntary_switches = 0;    ///< over the timed loop
  /// Per-layer metrics (traced run only); names as in BENCHMARK.json.
  std::map<std::string, double> layers;
  /// Free-form notes for the metadata line (e.g. the pinned outputs).
  std::map<std::string, std::string> notes;
};

/// The registry counter `name`, read from a merged snapshot.
[[nodiscard]] std::uint64_t counter(const std::string& name);

Result run_svc_warm(const Options& options, SpanLog* spans);
Result run_sort_rt(const Options& options, SpanLog* spans);

}  // namespace perfbench
