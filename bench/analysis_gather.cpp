// Reproduces the §4.2/§4.3 gather analysis as tables:
//
//  * the HBSP^1 closed form g·max{r_j·x_j, r_root·(n−x_root)} + L and its
//    balanced simplification gn + L, with the r_j·c_j < 1 condition;
//  * the HBSP^2 decomposition into super^1 + super^2 steps and the paper's
//    point that "the problem size must outweigh the cost of the extra level
//    of communication and synchronization";
//  * closed form vs priced planner schedule vs simulated substrate.

#include <cstdio>

#include "collectives/planners.hpp"
#include "core/analysis.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "core/workload.hpp"
#include "experiments/figures.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;
using analysis::Shares;

void hbsp1_table() {
  const MachineTree tree = make_paper_testbed(10);
  const CostModel model{tree};
  util::Table table{
      "HBSP^1 gather (p=10): closed form vs gn+L bound vs substrate"};
  table.set_header({"n (KB)", "shares", "closed form", "gn+L", "planner cost",
                    "simulated"});
  for (const std::size_t kb : {100u, 500u, 1000u}) {
    const std::size_t n = util::ints_in_kbytes(kb);
    for (const Shares shares : {Shares::kEqual, Shares::kBalanced}) {
      const int root = tree.coordinator_pid(tree.root());
      const auto closed = analysis::hbsp1_gather(tree, tree.root(), root, n, shares);
      const auto schedule =
          coll::plan_gather(tree, n, {.root_pid = root, .shares = shares});
      const double bound =
          tree.g() * static_cast<double>(n) + tree.sync_L(tree.root());
      const double simulated =
          exp::simulate_makespan(tree, schedule, sim::SimParams{});
      table.add_row({std::to_string(kb),
                     shares == Shares::kEqual ? "equal" : "balanced",
                     util::format_time(closed.total()), util::format_time(bound),
                     util::format_time(model.cost(schedule).total()),
                     util::format_time(simulated)});
    }
  }
  table.print();
  std::puts(
      "Balanced shares meet the paper's gn+L bound; equal shares exceed it\n"
      "whenever some r_j/p > 1 (the slow sender's r_j*x_j dominates).");
}

void efficiency_condition_table() {
  const MachineTree tree = make_paper_testbed(10);
  util::Table table{"The r_j*c_j < 1 efficiency condition (SS4.2)"};
  table.set_header({"pid", "r_j", "balanced c_j", "r_j*c_j", "equal 1/p",
                    "r_j/p"});
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    const MachineId id = tree.processor(pid);
    const double r = tree.r(id);
    const double c = tree.c(id);
    const double p = tree.num_processors();
    table.add_row({std::to_string(pid), util::Table::num(r, 2),
                   util::Table::num(c, 4), util::Table::num(r * c, 4),
                   util::Table::num(1.0 / p, 4), util::Table::num(r / p, 4)});
  }
  table.print();
}

void hbsp2_table() {
  const MachineTree tree = make_figure1_cluster();
  const CostModel model{tree};
  util::Table table{
      "HBSP^2 gather on the Figure 1 machine: superstep decomposition"};
  table.set_header({"n (KB)", "super^1 (clusters)", "super^2 (to root)",
                    "total closed", "planner", "simulated", "flat-BSP view"});
  for (const std::size_t kb : {10u, 100u, 500u, 1000u}) {
    const std::size_t n = util::ints_in_kbytes(kb);
    const auto closed = analysis::hbsp2_gather(tree, n, Shares::kBalanced);
    const auto schedule = coll::plan_gather(tree, n, {});
    const double simulated =
        exp::simulate_makespan(tree, schedule, sim::SimParams{});
    // What a flat (hierarchy-blind) analysis would claim: one superstep with
    // every processor sending straight to the root at level-2 cost.
    const auto flat = analysis::hbsp1_gather(
        tree, tree.root(), tree.coordinator_pid(tree.root()), n,
        Shares::kBalanced);
    table.add_row({std::to_string(kb), util::format_time(closed.steps[0].cost),
                   util::format_time(closed.steps[1].cost),
                   util::format_time(closed.total()),
                   util::format_time(model.cost(schedule).total()),
                   util::format_time(simulated), util::format_time(flat.total())});
  }
  table.print();
  std::puts(
      "The super^2 term (campus network + L_{2,0}) dominates small problems:\n"
      "the problem size must outweigh the extra level's cost (SS4.3).");
}

}  // namespace

int run(hbsp::util::Cli& cli) {
  cli.validate();
  hbsp1_table();
  efficiency_condition_table();
  hbsp2_table();
  return 0;
}

int main(int argc, char** argv) {
  return hbsp::util::run_main(argc, argv, run);
}
