// E16 (extension): predictive value of heterogeneity-awareness.
//
// HBSP (the 1-level precursor paper) distinguishes itself from HCGM by
// aiming to be "an accurate predictor of execution times". This bench
// quantifies that on our substrate: predict collective times with
//
//   (a) plain BSP        — every processor assumed as fast as the fastest
//                          (r ≡ 1, the homogeneous model's view),
//   (b) HBSP^k           — the §3.4 cost model with true r values,
//   (c) HBSP^k + §6 λ    — destination-weighted on hierarchical machines,
//
// and report each model's error against the simulated cluster. The ordering
// (a) > (b) > (c) in error is the quantitative case for the model.
//
// The (machine, collective, size) cases are independent; each case plans and
// simulates against shared *immutable* models, so they shard across a
// util::ThreadPool into per-case slots and the tables assemble in case order
// — identical output at any --threads value.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "collectives/planners.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/dest_calibration.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;

/// The same machine with every r (and compute_r) forced to 1 — what a
/// homogeneous BSP model believes about the cluster.
MachineTree homogenised(const MachineTree& tree) {
  const auto strip = [&](auto&& self, MachineId id) -> MachineSpec {
    MachineSpec spec;
    const auto& node = tree.node(id);
    spec.name = node.name;
    spec.sync_L = node.sync_L;
    if (tree.is_processor(id)) {
      spec.r = 1.0;
      return spec;
    }
    for (int j = 0; j < tree.num_children(id); ++j) {
      spec.children.push_back(self(self, tree.child(id, j)));
    }
    return spec;
  };
  return MachineTree::build(strip(strip, tree.root()), tree.g());
}

/// One machine's trees, calibration, and the three predictor models; built
/// once, then shared read-only by the parallel cases.
struct Machine {
  std::string name;
  MachineTree tree;
  MachineTree flat_view;
  CostModel bsp_model;
  CostModel hbsp_model;
  CostModel extended_model;
  DestinationCosts lambda;

  Machine(std::string machine_name, MachineTree machine_tree)
      : name{std::move(machine_name)},
        tree{std::move(machine_tree)},
        flat_view{homogenised(tree)},
        bsp_model{flat_view},
        hbsp_model{tree},
        extended_model{tree},
        lambda{sim::calibrate_destination_costs(tree, sim::SimParams{})} {
    extended_model.set_destination_costs(&lambda);
  }
};

struct Case {
  const Machine* machine = nullptr;
  std::string name;
  CommSchedule schedule;
};

struct Prediction {
  double actual = 0.0;
  double bsp = 0.0;
  double hbsp = 0.0;
  double extended = 0.0;
};

}  // namespace

int run(hbsp::util::Cli& cli) {
  cli.allow("threads", "worker threads for the case sweep (default 1)");
  cli.validate();

  std::vector<std::unique_ptr<Machine>> machines;
  machines.push_back(std::make_unique<Machine>("testbed", make_paper_testbed(10)));
  machines.push_back(std::make_unique<Machine>("campus", make_figure1_cluster()));
  machines.push_back(std::make_unique<Machine>("wan-grid", make_wide_area_grid()));

  std::vector<Case> cases;
  for (const auto& machine : machines) {
    const MachineTree& tree = machine->tree;
    for (const std::size_t kb : {100u, 1000u}) {
      const std::size_t n = util::ints_in_kbytes(kb);
      const std::string size = std::to_string(kb) + "KB";
      const auto add = [&](const std::string& name, CommSchedule schedule) {
        cases.push_back({machine.get(), name, std::move(schedule)});
      };
      add("gather " + size, coll::plan_gather(tree, n, {}));
      add("gather-slowroot " + size,
          coll::plan_gather(tree, n,
                            {.root_pid = tree.slowest_pid(tree.root()),
                             .shares = coll::Shares::kEqual}));
      add("bcast " + size, coll::plan_broadcast(tree, n, {}));
      add("scatter " + size, coll::plan_scatter(tree, n, {}));
      add("reduce " + size, coll::plan_reduce_tree(tree, n, {}));
    }
  }

  std::vector<Prediction> predictions(cases.size());
  util::ThreadPool pool{static_cast<int>(cli.get_positive_int("threads", 1))};
  pool.parallel_for(cases.size(), [&](std::size_t i) {
    const Case& test_case = cases[i];
    const Machine& machine = *test_case.machine;
    sim::ClusterSim sim{machine.tree, sim::SimParams{}};
    Prediction& out = predictions[i];
    out.actual = sim.run(test_case.schedule).makespan;
    out.bsp = machine.bsp_model.cost(test_case.schedule).total();
    out.hbsp = machine.hbsp_model.cost(test_case.schedule).total();
    out.extended = machine.extended_model.cost(test_case.schedule).total();
  });

  util::Table table{
      "Prediction error vs the simulated cluster: BSP / HBSP^k / HBSP^k+lambda"};
  table.set_header({"case", "simulated", "BSP err", "HBSP^k err",
                    "+dest-costs err"});
  util::Accumulator bsp_errors;
  util::Accumulator hbsp_errors;
  util::Accumulator extended_errors;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Prediction& prediction = predictions[i];
    const auto rel = [&](double value) {
      return std::abs(value - prediction.actual) / prediction.actual;
    };
    bsp_errors.add(rel(prediction.bsp));
    hbsp_errors.add(rel(prediction.hbsp));
    extended_errors.add(rel(prediction.extended));
    table.add_row({cases[i].machine->name + " " + cases[i].name,
                   util::format_time(prediction.actual),
                   util::Table::num(100 * rel(prediction.bsp), 1) + "%",
                   util::Table::num(100 * rel(prediction.hbsp), 1) + "%",
                   util::Table::num(100 * rel(prediction.extended), 1) + "%"});
  }
  table.print();

  util::Table summary{"Mean relative error over all cases"};
  summary.set_header({"model", "mean error"});
  summary.add_row({"BSP (homogeneous r=1)",
                   util::Table::num(100 * bsp_errors.summary().mean, 1) + "%"});
  summary.add_row({"HBSP^k (SS3.4)",
                   util::Table::num(100 * hbsp_errors.summary().mean, 1) + "%"});
  summary.add_row({"HBSP^k + SS6 destination costs",
                   util::Table::num(100 * extended_errors.summary().mean, 1) +
                       "%"});
  summary.print();

  std::puts(
      "\nIgnoring heterogeneity (BSP) underpredicts whenever slow machines\n"
      "sit on the critical path; the HBSP^k model recovers most of that, and\n"
      "the destination-cost extension recovers the per-level link penalty the\n"
      "single-r model still misses on hierarchies.");
  return 0;
}

int main(int argc, char** argv) {
  return hbsp::util::run_main(argc, argv, run);
}
