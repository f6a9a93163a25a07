// Reproduces Table 1 (the HBSP^k parameter set) for the reproduction's two
// reference machines, and validates the §3.4 cost model T_i(λ) = w_i + gh +
// L_{i,j} against the discrete-event substrate on canonical supersteps.
//
// The model is an abstraction of the substrate: it prices the h-relation at
// g·h while the substrate adds per-message overheads, latency, the
// receive-side discount and wire contention. The table reports both numbers
// and their ratio so the reader can see how tight the abstraction is.

#include <cstdio>

#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "experiments/figures.hpp"
#include "sim/cluster_sim.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;

void print_parameters(const MachineTree& tree, const char* title) {
  util::Table table{std::string{"Table 1 instance - "} + title};
  table.set_header({"M_{i,j}", "name", "children m_{i,j}", "r_{i,j}",
                    "L_{i,j}", "c_{i,j}", "coordinator pid"});
  for (int level = tree.height(); level >= 0; --level) {
    for (const MachineId id : tree.level_ids(level)) {
      const auto& node = tree.node(id);
      table.add_row({"M_{" + std::to_string(id.level) + "," +
                         std::to_string(id.index) + "}",
                     node.name, util::Table::num(static_cast<long long>(
                                    tree.num_children(id))),
                     util::Table::num(node.r, 2), util::Table::num(node.sync_L, 4),
                     util::Table::num(node.c, 3),
                     util::Table::num(static_cast<long long>(
                         tree.coordinator_pid(id)))});
    }
  }
  table.print();
  std::printf("g (bandwidth indicator of the fastest machine) = %g s/item\n",
              tree.g());
}

void validate_superstep_costs(const MachineTree& tree, const char* title) {
  const CostModel model{tree};
  sim::ClusterSim simulator{tree, sim::SimParams{}};

  util::Table table{std::string{"Superstep cost: model vs substrate - "} + title};
  table.set_header({"superstep", "h", "model T=w+gh+L", "simulated", "sim/model"});

  const auto check = [&](const char* label, SuperstepPlan plan) {
    CommSchedule schedule;
    Phase& phase = schedule.add_phase();
    phase.plans.push_back(std::move(plan));
    const SuperstepCost predicted = model.cost(phase.plans.front());
    simulator.reset();
    const double simulated = simulator.run(schedule).makespan;
    table.add_row({label, util::Table::num(predicted.h, 0),
                   util::format_time(predicted.total()),
                   util::format_time(simulated),
                   util::Table::num(simulated / predicted.total(), 3)});
  };

  const int p = tree.num_processors();
  const int coord = tree.coordinator_pid(tree.root());
  const int slow = tree.slowest_pid(tree.root());

  SuperstepPlan fan_in;
  fan_in.label = "fan-in";
  fan_in.level = tree.height();
  fan_in.sync_scope = tree.root();
  for (int pid = 0; pid < p; ++pid) {
    if (pid != coord) fan_in.transfers.push_back({pid, coord, 10000});
  }
  check("fan-in 10k items/proc -> coordinator", fan_in);

  SuperstepPlan fan_out;
  fan_out.label = "fan-out";
  fan_out.level = tree.height();
  fan_out.sync_scope = tree.root();
  for (int pid = 0; pid < p; ++pid) {
    if (pid != coord) fan_out.transfers.push_back({coord, pid, 10000});
  }
  check("fan-out 10k items/proc from coordinator", fan_out);

  SuperstepPlan pairwise;
  pairwise.label = "shift";
  pairwise.level = tree.height();
  pairwise.sync_scope = tree.root();
  for (int pid = 0; pid < p; ++pid) {
    pairwise.transfers.push_back({pid, (pid + 1) % p, 10000});
  }
  check("cyclic shift, 10k items each", pairwise);

  SuperstepPlan slow_heavy;
  slow_heavy.label = "slow-heavy";
  slow_heavy.level = tree.height();
  slow_heavy.sync_scope = tree.root();
  slow_heavy.transfers.push_back({slow, coord, 50000});
  check("slowest sends 50k to coordinator", slow_heavy);

  SuperstepPlan compute_only;
  compute_only.label = "compute";
  compute_only.level = tree.height();
  compute_only.sync_scope = tree.root();
  for (int pid = 0; pid < p; ++pid) compute_only.compute.push_back({pid, 50000});
  check("50k ops on every processor, no comm", compute_only);

  table.print();
}

}  // namespace

int run(hbsp::util::Cli& cli) {
  cli.validate();
  const MachineTree testbed = make_paper_testbed(10);
  print_parameters(testbed, "10-workstation testbed (HBSP^1)");
  validate_superstep_costs(testbed, "testbed");

  const MachineTree campus = make_figure1_cluster();
  print_parameters(campus, "Figure 1 campus machine (HBSP^2)");
  validate_superstep_costs(campus, "campus");

  std::puts(
      "\nThe substrate tracks the model within a small constant factor: the\n"
      "model charges g*h while the substrate adds receive-side processing,\n"
      "per-message overheads, latency and shared-medium contention.");
  return 0;
}

int main(int argc, char** argv) {
  return hbsp::util::run_main(argc, argv, run);
}
