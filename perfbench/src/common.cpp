#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"

namespace perfbench {
namespace {

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// Written by the speed probe so its loop is not folded away.
volatile std::uint64_t probe_sink = 0;

rusage self_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

}  // namespace

double process_cpu_s() {
  const rusage usage = self_usage();
  return seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  return static_cast<double>(self_usage().ru_maxrss) / 1024.0;
}

long involuntary_switches() { return self_usage().ru_nivcsw; }

double load_average() {
  std::ifstream in{"/proc/loadavg"};
  double load = -1.0;
  if (!(in >> load)) return -1.0;
  return load;
}

double steal_seconds() {
  std::ifstream in{"/proc/stat"};
  std::string cpu;
  double ticks[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1.0;
  for (double& t : ticks) {
    if (!(in >> t)) return -1.0;
  }
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double speed_probe_ms() {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 4000000; ++i) {
      x ^= x >> 29;
      x *= 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 32;
    }
    probe_sink = x;
    times.push_back((now_s() - t0) * 1e3);
  }
  return median(times);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile(values, 0.5);
}

void LatencySample::add(double seconds) {
  ++seen_;
  if (values_.size() < kCapacity) {
    values_.push_back(static_cast<float>(seconds));
    return;
  }
  const std::uint64_t slot = draw_.below(seen_);
  if (slot < kCapacity) values_[slot] = static_cast<float>(seconds);
}

void SpanLog::add(const char* name, double seconds) {
  for (Total& total : totals_) {
    if (std::strcmp(total.name, name) == 0) {
      total.seconds += seconds;
      ++total.count;
      return;
    }
  }
  totals_.push_back(Total{name, seconds, 1});
}

const SpanLog::Total* SpanLog::find(const std::string& name) const {
  for (const Total& total : totals_) {
    if (name == total.name) return &total;
  }
  return nullptr;
}

double SpanLog::total_s(const std::string& name) const {
  const Total* total = find(name);
  return total != nullptr ? total->seconds : 0.0;
}

std::size_t SpanLog::count(const std::string& name) const {
  const Total* total = find(name);
  return total != nullptr ? total->count : 0;
}

double SpanLog::mean_s(const std::string& name) const {
  const std::size_t n = count(name);
  return n > 0 ? total_s(name) / static_cast<double>(n) : 0.0;
}

std::uint64_t counter(const std::string& name) {
  return hbsp::obs::Registry::global().snapshot().counter(name);
}

}  // namespace perfbench
