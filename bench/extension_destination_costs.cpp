// E13 (extension): the paper's §6 future work, evaluated.
//
// "We plan to investigate extending the r_{i,j} parameter to accommodate
// communication costs incurred by M_{i,j} as a result of sending data to
// various destinations."
//
// We calibrate per-level destination factors λ from the substrate (as a
// practitioner would with ping-pong probes), then compare the base model's
// and the extended model's predictions against the substrate for schedules
// with increasing shares of cross-hierarchy traffic. The extension should —
// and does — cut the prediction error exactly where the base model is blind.
//
// The four probe schedules are independent, so they shard across a
// util::ThreadPool into per-case slots (each case builds its own simulator
// and cost models); the table assembles in case order.

#include <cmath>
#include <cstdio>
#include <vector>

#include "collectives/planners.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/dest_calibration.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;

double simulated(const MachineTree& tree, const CommSchedule& schedule) {
  sim::ClusterSim sim{tree, sim::SimParams{}};
  return sim.run(schedule).makespan;
}

}  // namespace

int run(hbsp::util::Cli& cli) {
  cli.allow("threads", "worker threads for the case sweep (default 1)");
  cli.validate();

  const MachineTree tree = make_figure1_cluster();

  // Calibrate λ per level from the substrate.
  const auto probes = sim::probe_levels(tree, sim::SimParams{});
  util::Table calib{"Calibrated destination factors (ping-pong probes)"};
  calib.set_header({"network level", "probed", "factor lambda"});
  for (const auto& probe : probes) {
    calib.add_row({std::to_string(probe.level), probe.measured ? "yes" : "no",
                   util::Table::num(probe.factor, 2)});
  }
  calib.print();
  const auto costs = sim::calibrate_destination_costs(tree, sim::SimParams{});

  // Schedules with growing cross-campus traffic shares.
  const std::size_t n = util::ints_in_kbytes(400);
  struct Case {
    const char* name;
    CommSchedule schedule;
  };
  std::vector<Case> cases;
  {
    CommSchedule local;
    SuperstepPlan& plan = local.add_step("intra-cluster", 1, tree.child(tree.root(), 0));
    plan.transfers = {{1, 0, n}, {2, 0, n}, {3, 0, n}};
    cases.push_back({"intra-SMP fan-in", std::move(local)});
  }
  {
    CommSchedule mixed = coll::plan_gather(tree, n, {});
    cases.push_back({"hierarchical gather (mixed)", std::move(mixed)});
  }
  {
    CommSchedule cross;
    SuperstepPlan& plan = cross.add_step("cross-campus", 2, tree.root());
    plan.transfers = {{0, 8, n}, {1, 7, n}, {2, 6, n}, {3, 5, n}};
    cases.push_back({"all cross-campus pairs", std::move(cross)});
  }
  {
    CommSchedule bcast = coll::plan_broadcast(tree, n, {});
    cases.push_back({"hierarchical broadcast", std::move(bcast)});
  }

  struct Prediction {
    double actual = 0.0;
    double base = 0.0;
    double extended = 0.0;
  };
  std::vector<Prediction> predictions(cases.size());
  util::ThreadPool pool{static_cast<int>(cli.get_positive_int("threads", 1))};
  pool.parallel_for(cases.size(), [&](std::size_t i) {
    const Case& test_case = cases[i];
    Prediction& out = predictions[i];
    out.actual = simulated(tree, test_case.schedule);
    CostModel model{tree};
    out.base = model.cost(test_case.schedule).total();
    model.set_destination_costs(&costs);
    out.extended = model.cost(test_case.schedule).total();
  });

  util::Table table{
      "Prediction error: base SS3.4 model vs SS6 destination-extended model"};
  table.set_header({"schedule", "substrate", "base model", "base err",
                    "extended model", "ext err"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Prediction& prediction = predictions[i];
    const auto err = [&](double value) {
      return util::Table::num(
                 100.0 * std::abs(value - prediction.actual) / prediction.actual,
                 1) +
             "%";
    };
    table.add_row({cases[i].name, util::format_time(prediction.actual),
                   util::format_time(prediction.base), err(prediction.base),
                   util::format_time(prediction.extended),
                   err(prediction.extended)});
  }
  table.print();

  std::puts(
      "\nThe extended model keeps the base model's accuracy on intra-cluster\n"
      "traffic (lambda = 1 there) and substantially tightens predictions for\n"
      "cross-hierarchy traffic, where the single-r model undercharges.");
  return 0;
}

int main(int argc, char** argv) {
  return hbsp::util::run_main(argc, argv, run);
}
