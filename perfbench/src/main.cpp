// perfbench: runs one named workload of the repository's benchmark, checks
// every output, and prints the metrics as the last line of stdout:
//
//   perfbench --workload svc_warm|sort_rt [--seed N] [--seconds S]
//             [--trace 0|1] [--tamper K]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (BENCHMARK.json lists both). A metadata line before the result records
// the host noise (nproc, load, steal time, involuntary context switches),
// the compiler, the build type and the tail percentile with its sample
// counts. Exit codes: 0 all outputs correct, 1 an output check failed, 2 bad
// usage, 3 a build that must not be measured (not Release, or sanitized).

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace perfbench {
namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload svc_warm|sort_rt [--seed N] [--seconds S]\n"
    "                 [--trace 0|1] [--tamper K]\n"
    "  --seed N        input seed (default 1, the seed the pins hold for)\n"
    "  --seconds S     length of the timed window (default 10)\n"
    "  --trace 0|1     0: end-to-end metrics; 1: per-layer metrics from a\n"
    "                  traced run (default 0)\n"
    "  --tamper K      self-test: corrupt the expected output of every K-th\n"
    "                  timed op, which must then count as failed\n";

struct UsageError {
  std::string message;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    throw UsageError{flag + " expects a non-negative integer, got '" + text +
                     "'"};
  }
  return value;
}

Options parse(int argc, char** argv, bool& help) {
  Options options;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--help" || flag == "-h") {
      help = true;
      return options;
    }
    if (i + 1 >= args.size()) throw UsageError{"missing value for " + flag};
    const std::string& value = args[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t seconds = parse_u64(flag, value);
      if (seconds < 1 || seconds > 600) {
        throw UsageError{"--seconds must be in [1, 600]"};
      }
      options.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw UsageError{"--trace expects 0 or 1"};
      }
      options.trace = value == "1";
    } else if (flag == "--tamper") {
      options.tamper_every = parse_u64(flag, value);
    } else {
      throw UsageError{"unknown flag " + flag};
    }
  }
  if (options.workload != "svc_warm" && options.workload != "sort_rt") {
    throw UsageError{"--workload must be svc_warm or sort_rt"};
  }
  return options;
}

/// Why this build must not be measured, or empty when it may be.
std::string build_refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release") {
    return "built as CMAKE_BUILD_TYPE='" + type +
           "'; only Release builds are measured";
  }
#ifndef NDEBUG
  return "built without NDEBUG; assertions distort the timings";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (PERFBENCH_SANITIZED != 0) return "built with a sanitizer";
  return {};
}

/// Every per-layer metric the traced run prints, with its unit. A layer the
/// workload does not call reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.messages_delivered", "count"},
    {"sim.phases", "count"},
    {"plancache.hits", "count"},
    {"plancache.misses", "count"},
    {"scenario.hits", "count"},
    {"scenario.misses", "count"},
    {"svc.submit_us", "us"},
    {"svc.exec_us", "us"},
    {"svc.queue_wait_us", "us"},
    {"svc.coalesced_ratio", "ratio"},
    {"collectives.plancache_hit_us", "us"},
    {"experiments.scenario_hit_us", "us"},
    {"core.fingerprint_us", "us"},
    {"obs.counter_lookup_ns", "ns"},
    {"plancache.hit_ratio", "ratio"},
    {"scenario.hit_ratio", "ratio"},
    {"collectives.fill_plan_s", "s"},
    {"core.fill_cost_s", "s"},
    {"experiments.fill_simulate_s", "s"},
    {"runtime.run_ms", "ms"},
    {"runtime.superstep_us", "us"},
    {"runtime.instance_cpu_ms", "ms"},
    {"apps.critical_path_ms", "ms"},
    {"runtime.supersteps", "count"},
    {"trace.throughput_per_s", "1/s"},
};

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void add_metric(std::ostringstream& out, bool& first, const std::string& name,
                double value, const char* unit) {
  out << (first ? "" : ", ") << quoted(name)
      << ": {\"value\": " << number(value) << ", \"unit\": " << quoted(unit)
      << "}";
  first = false;
}

int run(const Options& options) {
  const double load_before = load_average();
  const double steal_before = steal_seconds();
  const double probe_before = speed_probe_ms();
  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  Result result;
  if (options.workload == "svc_warm") {
    result = run_svc_warm(options, log);
  } else {
    result = run_sort_rt(options, log);
  }
  const double load_after = load_average();
  const double steal_after = steal_seconds();
  const double probe_after = speed_probe_ms();

  const double rss_mb = peak_rss_mb();  // before any post-processing
  std::vector<float>& sorted = result.latencies.values();
  std::sort(sorted.begin(), sorted.end());
  const double completed = static_cast<double>(result.latencies.seen());
  const double p50 = quantile(sorted, 0.5);
  const double tail = quantile(sorted, result.tail_q);
  const auto beyond = static_cast<std::size_t>(std::count_if(
      sorted.begin(), sorted.end(), [&](float x) { return x > tail; }));
  const double throughput =
      result.window_s > 0.0 ? completed / result.window_s : 0.0;

  std::ostringstream meta;
  meta << "{\"meta\": {\"workload\": " << quoted(options.workload)
       << ", \"seed\": " << options.seed
       << ", \"seconds\": " << number(options.seconds)
       << ", \"trace\": " << (options.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"load_before\": " << number(load_before)
       << ", \"load_after\": " << number(load_after)
       << ", \"steal_s\": "
       << number(steal_before < 0 ? -1.0 : steal_after - steal_before)
       << ", \"speed_probe_ms_before\": " << number(probe_before)
       << ", \"speed_probe_ms_after\": " << number(probe_after)
       << ", \"involuntary_switches\": " << result.involuntary_switches
       << ", \"compiler\": " << quoted(__VERSION__)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"tail_percentile\": " << number(result.tail_q * 100)
       << ", \"completed\": " << result.latencies.seen()
       << ", \"samples\": " << sorted.size()
       << ", \"samples_beyond_tail\": " << beyond
       << ", \"latency_ms\": {\"p10\": " << number(quantile(sorted, 0.10) * 1e3)
       << ", \"p25\": " << number(quantile(sorted, 0.25) * 1e3)
       << ", \"p75\": " << number(quantile(sorted, 0.75) * 1e3)
       << ", \"p90\": " << number(quantile(sorted, 0.90) * 1e3)
       << ", \"p99\": " << number(quantile(sorted, 0.99) * 1e3)
       << ", \"max\": " << number(sorted.empty() ? 0.0 : sorted.back() * 1e3)
       << "}"
       << ", \"window_s\": " << number(result.window_s)
       << ", \"throughput_per_s\": " << number(throughput)
       << ", \"setup_reps_s\": [";
  for (std::size_t i = 0; i < result.setup_s.size(); ++i) {
    meta << (i == 0 ? "" : ", ") << number(result.setup_s[i]);
  }
  meta << "]";
  for (const auto& [key, value] : result.notes) {
    meta << ", " << quoted(key) << ": " << quoted(value);
  }
  meta << "}}";
  std::cout << meta.str() << "\n";
  if (!options.trace && beyond < 10) {
    std::cerr << "perfbench: warning: only " << beyond
              << " samples beyond the tail percentile\n";
  }

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  if (!options.trace) {
    add_metric(out, first, "setup_s", median(result.setup_s), "s");
    add_metric(out, first, "throughput_per_s", throughput, "1/s");
    add_metric(out, first, "latency_p50_ms", p50 * 1e3, "ms");
    add_metric(out, first, "latency_tail_ms", tail * 1e3, "ms");
    add_metric(out, first, "cpu_ms_per_op",
               completed > 0 ? result.cpu_s * 1e3 / completed : 0.0, "ms");
    add_metric(out, first, "peak_rss_mb", rss_mb, "MB");
    const auto attempted = std::max<std::uint64_t>(1, result.attempted);
    add_metric(out, first, "completed_fraction",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(attempted),
               "fraction");
  } else {
    result.layers["trace.throughput_per_s"] = throughput;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = result.layers.find(name);
      add_metric(out, first, name, it != result.layers.end() ? it->second : 0.0,
                 unit);
    }
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  bool help = false;
  Options options;
  try {
    options = parse(argc, argv, help);
  } catch (const UsageError& error) {
    std::cerr << "perfbench: " << error.message << "\n" << kUsage;
    return 2;
  }
  if (help) {
    std::cout << kUsage;
    return 0;
  }
  if (const std::string refusal = build_refusal(); !refusal.empty()) {
    std::cerr << "perfbench: refusing to measure: " << refusal << "\n";
    return 3;
  }
  // glibc raises its mmap threshold after the first large free, so which big
  // buffers land in (and stay in) per-thread heaps varies from run to run and
  // peak RSS with it. A fixed threshold keeps large buffers mmapped.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
