// Trace explorer: run any collective on any built-in machine with span
// tracing, print a per-processor utilisation breakdown, and export the
// virtual-time spans as a Chrome tracing file (open it at chrome://tracing or
// https://ui.perfetto.dev to see each machine's supersteps, send and receive
// batches, and barrier waits).
//
//   ./build/examples/trace_explorer --collective gather --machine campus
//                                   --kbytes 200 --out trace.json

#include <cstdio>
#include <stdexcept>
#include <string>

#include "collectives/advisor.hpp"
#include "core/topology.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "sim/cluster_sim.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;

MachineTree pick_machine(const std::string& name) {
  if (name == "testbed") return make_paper_testbed(10);
  if (name == "campus") return make_figure1_cluster();
  if (name == "wan") return make_wide_area_grid();
  throw std::invalid_argument{"unknown machine '" + name +
                              "' (testbed|campus|wan)"};
}

coll::CollectiveKind pick_collective(const std::string& name) {
  if (name == "gather") return coll::CollectiveKind::kGather;
  if (name == "broadcast") return coll::CollectiveKind::kBroadcast;
  if (name == "scatter") return coll::CollectiveKind::kScatter;
  if (name == "reduce") return coll::CollectiveKind::kReduce;
  throw std::invalid_argument{"unknown collective '" + name +
                              "' (gather|broadcast|scatter|reduce)"};
}

}  // namespace

int run(hbsp::util::Cli& cli) {
  cli.allow("collective", "gather|broadcast|scatter|reduce (default gather)")
      .allow("machine", "testbed|campus|wan (default campus)")
      .allow("kbytes", "problem size in KB (default 200)")
      .allow("out", "Chrome trace output path (default hbspk_trace.json)");
  cli.validate();

  const MachineTree machine = pick_machine(cli.get("machine", "campus"));
  const auto kind = pick_collective(cli.get("collective", "gather"));
  const auto n =
      hbsp::util::ints_in_kbytes(static_cast<std::size_t>(cli.get_int("kbytes", 200)));

  // Let the advisor pick the configuration, then trace its schedule.
  const auto advice = coll::advise(machine, kind, n);
  std::printf("advisor: %s with %s -> predicted %s (%s)\n",
              coll::to_string(kind), advice.options.empty()
                                         ? "?"
                                         : advice.options.front().description.c_str(),
              util::format_time(advice.predicted_cost).c_str(),
              advice.rationale.c_str());
  const auto schedule = advice.plan(machine, n);

  auto& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  sim::ClusterSim sim{machine, sim::SimParams{}};
  const auto result = sim.run(schedule);
  recorder.set_enabled(false);
  std::printf("simulated makespan: %s over %zu phase(s)\n\n",
              util::format_time(result.makespan).c_str(),
              result.phase_completion.size());

  util::Table table{"Per-processor utilisation"};
  table.set_header({"pid", "name", "r", "send", "recv", "compute", "busy",
                    "utilisation"});
  for (int pid = 0; pid < machine.num_processors(); ++pid) {
    const auto& stats = sim.trace().pid_stats(pid);
    table.add_row(
        {std::to_string(pid), machine.node(machine.processor(pid)).name,
         util::Table::num(machine.processor_r(pid), 2),
         util::format_time(stats.send_seconds),
         util::format_time(stats.recv_seconds),
         util::format_time(stats.compute_seconds),
         util::format_time(stats.busy_seconds),
         util::Table::num(100.0 * stats.busy_seconds / result.makespan, 1) +
             "%"});
  }
  table.print();

  const std::string out = cli.get("out", "hbspk_trace.json");
  const obs::TraceSnapshot snapshot = recorder.snapshot();
  obs::write_chrome_trace(snapshot, out, obs::TraceFilter::kVirtualOnly);
  std::printf(
      "\nWrote %zu spans to %s - open in chrome://tracing or\n"
      "https://ui.perfetto.dev to inspect the timeline.\n",
      snapshot.spans.size(), out.c_str());
  return 0;
}

int main(int argc, char** argv) {
  return hbsp::util::run_main(argc, argv, run);
}
