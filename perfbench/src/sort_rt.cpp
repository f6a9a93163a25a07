// sort_rt: one client sorting 2^20 seeded int32 per op with the
// heterogeneous sample sort (balanced shares) on the 10-machine paper
// testbed, executed by the virtual-time SPMD runtime (one thread per
// processor). The only workload that runs through src/runtime.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <vector>

#include "apps/sample_sort.hpp"
#include "common.hpp"
#include "core/topology.hpp"
#include "runtime/hbsplib.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kItems = std::size_t{1} << 20;
constexpr int kProcessors = 10;
constexpr int kSetupReps = 5;

/// virtual_seconds of the sort of seed kPinnedSeed's input, recorded from a
/// Release build of the program.
constexpr double kPinnedVirtualSeconds = 0x1.1ce362368fb76p+3;

std::vector<std::int32_t> make_input(std::uint64_t seed) {
  Draw draw{seed, 0x5047};
  std::vector<std::int32_t> input(kItems);
  for (std::int32_t& value : input) {
    value = static_cast<std::int32_t>(static_cast<std::uint32_t>(draw.bits()));
  }
  return input;
}

struct Sorted {
  hbsp::apps::SortRun run;
  std::size_t supersteps = 0;
};

/// The traced op: rt::run_program on a Program that wraps sample_sort_spmd
/// and times each SPMD instance (thread CPU and wall), followed by the same
/// validation apps::run_sample_sort performs.
Sorted traced_sort(const hbsp::MachineTree& machine,
                   const std::vector<std::int32_t>& input, SpanLog& spans,
                   double& instance_cpu_s, double& critical_path_s) {
  Sorted out;
  std::vector<double> cpu(kProcessors, 0.0);
  std::vector<double> wall(kProcessors, 0.0);
  const hbsp::rt::Program program = [&](hbsp::rt::Hbsp& ctx) {
    const double w0 = now_s();
    const double c0 = thread_cpu_s();
    auto sorted = hbsp::apps::sample_sort_spmd(ctx, input, input.size(),
                                               hbsp::coll::Shares::kBalanced);
    const auto pid = static_cast<std::size_t>(ctx.pid());
    cpu[pid] = thread_cpu_s() - c0;
    wall[pid] = now_s() - w0;
    if (ctx.pid() == ctx.fastest_pid()) {
      out.run.sorted = std::move(sorted);
      out.run.virtual_seconds = ctx.time();
    }
  };
  {
    const Scope span{&spans, "runtime.run_program"};
    out.supersteps =
        hbsp::rt::run_program(machine, hbsp::sim::SimParams{}, program)
            .supersteps;
  }
  for (std::size_t pid = 0; pid < cpu.size(); ++pid) {
    instance_cpu_s += cpu[pid];
  }
  critical_path_s += *std::max_element(wall.begin(), wall.end());
  hbsp::apps::SortRun& run = out.run;
  run.valid = run.sorted.size() == input.size() &&
              std::is_sorted(run.sorted.begin(), run.sorted.end());
  if (run.valid) {
    std::vector<std::int32_t> reference(input.begin(), input.end());
    std::sort(reference.begin(), reference.end());
    run.valid = reference == run.sorted;
  }
  return out;
}

/// Wall seconds per superstep of a payload-free program with `supersteps`
/// whole-machine barriers on `machine` (median of a few runs).
double superstep_s(const hbsp::MachineTree& machine, std::size_t supersteps) {
  const hbsp::rt::Program program = [&](hbsp::rt::Hbsp& ctx) {
    for (std::size_t i = 0; i < supersteps; ++i) ctx.sync();
  };
  std::vector<double> per_step;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    (void)hbsp::rt::run_program(machine, hbsp::sim::SimParams{}, program);
    per_step.push_back((now_s() - t0) / static_cast<double>(supersteps));
  }
  return median(per_step);
}

}  // namespace

Result run_sort_rt(const Options& options, SpanLog* spans) {
  Result result;
  result.tail_q = 0.90;

  // Set-up, repeated: build the machine, generate the input, one untimed
  // sort. The first sort's registry deltas are the exact per-sort counts.
  hbsp::MachineTree machine = hbsp::make_paper_testbed(kProcessors);
  std::vector<std::int32_t> input;
  double reference_seconds = 0.0;
  std::uint64_t phases = 0;
  std::uint64_t delivered = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t phases0 = counter("sim.phases");
    const std::uint64_t delivered0 = counter("sim.messages_delivered");
    const double t0 = now_s();
    machine = hbsp::make_paper_testbed(kProcessors);
    input = make_input(options.seed);
    const hbsp::apps::SortRun run = hbsp::apps::run_sample_sort(
        machine, input, hbsp::coll::Shares::kBalanced);
    result.setup_s.push_back(now_s() - t0);
    ++result.attempted;
    if (!run.valid) ++result.failed;
    if (rep == 0) {
      reference_seconds = run.virtual_seconds;
      phases = counter("sim.phases") - phases0;
      delivered = counter("sim.messages_delivered") - delivered0;
    } else if (run.virtual_seconds != reference_seconds) {
      ++result.failed;
    }
  }
  const double expected =
      options.seed == kPinnedSeed ? kPinnedVirtualSeconds : reference_seconds;
  char note[64];
  std::snprintf(note, sizeof note, "%a", reference_seconds);
  result.notes["reference"] = note;

  double instance_cpu_s = 0.0;
  double critical_path_s = 0.0;
  std::size_t supersteps = 0;
  const long switches0 = involuntary_switches();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  for (std::uint64_t op = 0; now_s() - t0 < options.seconds; ++op) {
    const double start = now_s();
    hbsp::apps::SortRun run;
    if (spans != nullptr) {
      Sorted sorted =
          traced_sort(machine, input, *spans, instance_cpu_s, critical_path_s);
      run = std::move(sorted.run);
      supersteps = sorted.supersteps;
    } else {
      run = hbsp::apps::run_sample_sort(machine, input,
                                        hbsp::coll::Shares::kBalanced);
    }
    const double latency = now_s() - start;
    double want = expected;
    if (options.tamper_every > 0 && op % options.tamper_every == 0) {
      want = std::nextafter(want, 1e300);
    }
    ++result.attempted;
    if (run.valid && run.virtual_seconds == want) {
      result.latencies.add(latency);
    } else {
      ++result.failed;
    }
  }
  result.window_s = now_s() - t0;
  result.cpu_s = process_cpu_s() - cpu0;
  result.involuntary_switches = involuntary_switches() - switches0;

  if (spans != nullptr) {
    const double sorts =
        static_cast<double>(spans->count("runtime.run_program"));
    result.layers["runtime.run_ms"] =
        spans->mean_s("runtime.run_program") * 1e3;
    result.layers["runtime.instance_cpu_ms"] = instance_cpu_s * 1e3 / sorts;
    result.layers["apps.critical_path_ms"] = critical_path_s * 1e3 / sorts;
    result.layers["runtime.superstep_us"] =
        superstep_s(machine, supersteps) * 1e6;
    result.layers["runtime.supersteps"] = static_cast<double>(supersteps);
    result.layers["sim.phases"] = static_cast<double>(phases);
    result.layers["sim.messages_delivered"] = static_cast<double>(delivered);
  }
  return result;
}

}  // namespace perfbench
