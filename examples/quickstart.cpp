// Quickstart: describe a heterogeneous cluster, gather data to the fastest
// machine on the HBSPlib-like runtime, and compare the measured virtual time
// with the HBSP^k model's prediction.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart

#include <cstdio>
#include <numeric>

#include "collectives/executors.hpp"
#include "core/analysis.hpp"
#include "core/topology_io.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

int run(hbsp::util::Cli& cli) {
  cli.validate();
  using namespace hbsp;

  // 1. An HBSP^1 machine: four workstations, the fastest has r = 1 (§3.3).
  //    The same description can live in a file (core/topology_io.hpp).
  const MachineTree machine = parse_topology(R"(
    g 1e-6
    machine cluster L=2e-3 {
      machine fast    r=1
      machine medium  r=1.5
      machine slow    r=2.2
      machine slowest r=3.0
    }
  )");

  // 2. Every processor holds a balanced share of n items: faster machines
  //    hold more (c_j ∝ 1/r_j, the paper's load-balancing rule).
  const std::size_t n = 100000;
  const auto shares = coll::leaf_shares(machine, n, coll::Shares::kBalanced);
  std::puts("Balanced shares (items per processor):");
  for (int pid = 0; pid < machine.num_processors(); ++pid) {
    std::printf("  %-8s r=%.1f  ->  %zu items\n",
                machine.node(machine.processor(pid)).name.c_str(),
                machine.processor_r(pid), shares[static_cast<std::size_t>(pid)]);
  }

  // 3. Run the HBSP^1 gather on the runtime (virtual-time engine): an SPMD
  //    program, one instance per processor.
  double measured = 0.0;
  std::size_t checksum = 0;
  const rt::Program program = [&](rt::Hbsp& ctx) {
    std::vector<std::int32_t> mine(
        shares[static_cast<std::size_t>(ctx.pid())],
        static_cast<std::int32_t>(ctx.pid()));
    const auto gathered = coll::gather<std::int32_t>(ctx, mine, n, {});
    if (gathered) {
      checksum = gathered->size();
      measured = ctx.time();
    }
  };
  (void)rt::run_program(machine, sim::SimParams{}, program);

  // 4. Compare with the closed-form model cost: gn + L for balanced gather.
  const auto predicted = analysis::hbsp1_gather(
      machine, machine.root(), machine.coordinator_pid(machine.root()), n,
      analysis::Shares::kBalanced);
  std::printf("\nGathered %zu items to '%s'.\n", checksum,
              machine.node(machine.processor(0)).name.c_str());
  std::printf("model cost  T = gh + L = %s\n",
              util::format_time(predicted.total()).c_str());
  std::printf("virtual time on the simulated cluster = %s\n",
              util::format_time(measured).c_str());
  std::puts("\nNext: examples/sample_sort (a full application),");
  std::puts("      examples/campus_grid_planner (HBSP^2 strategy planning),");
  std::puts("      examples/heterogeneity_report (rank this host's hardware).");
  return 0;
}

int main(int argc, char** argv) {
  return hbsp::util::run_main(argc, argv, run);
}
