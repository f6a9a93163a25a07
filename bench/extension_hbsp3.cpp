// E15 (extension): HBSP^3 — the generalisation the paper sketches but never
// builds ("We do not specify algorithms for higher-level machines (i.e.
// k >= 3). However, one can generalize the approach given here").
//
// Our planners recurse over the machine tree, so the same code runs on a
// 3-level wide-area grid. This bench prints the super^i-step decomposition
// of gather and broadcast on that machine, the hierarchy-vs-flat comparison
// at each scale, and where the extra levels start paying for themselves.
//
// Each table's size points are independent (every point builds its own
// schedules and simulator), so they shard across a util::ThreadPool into
// per-point slots; rows assemble in size order.

#include <cstdio>
#include <vector>

#include "collectives/planners.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "experiments/figures.hpp"
#include "sim/cluster_sim.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;

/// A flat fan-in/fan-out alternative that ignores the hierarchy (what a
/// BSP-minded port would do): every processor exchanges directly with the
/// root in one superstep at the top network level.
CommSchedule flat_gather(const MachineTree& tree, std::size_t n) {
  CommSchedule schedule;
  schedule.name = "flat gather";
  SuperstepPlan& plan = schedule.add_step("flat fan-in", tree.height(),
                                          tree.root());
  const int root = tree.coordinator_pid(tree.root());
  const auto shares = coll::leaf_shares(tree, n, coll::Shares::kBalanced);
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    if (pid != root && shares[static_cast<std::size_t>(pid)] > 0) {
      plan.transfers.push_back({pid, root, shares[static_cast<std::size_t>(pid)]});
    }
  }
  return schedule;
}

}  // namespace

int run(hbsp::util::Cli& cli) {
  cli.allow("threads", "worker threads for the size sweeps (default 1)");
  cli.validate();
  util::ThreadPool pool{static_cast<int>(cli.get_positive_int("threads", 1))};

  const MachineTree tree = make_wide_area_grid();
  const CostModel model{tree};
  std::printf(
      "HBSP^3 machine: %d processors in 4 labs + 1 server across 2 campuses\n"
      "joined by a wide-area link (k = %d).\n",
      tree.num_processors(), tree.height());

  {
    const std::vector<std::size_t> sizes = {10, 100, 1000};
    struct Row {
      ScheduleCost cost;
      ScheduleCost flat;
    };
    std::vector<Row> rows(sizes.size());
    pool.parallel_for(sizes.size(), [&](std::size_t i) {
      const std::size_t n = util::ints_in_kbytes(sizes[i]);
      rows[i] = {model.cost(coll::plan_gather(tree, n, {})),
                 model.cost(flat_gather(tree, n))};
    });

    util::Table table{"Gather on the HBSP^3 grid: super^i-step decomposition"};
    table.set_header({"n (KB)", "super^1 (labs)", "super^2 (campuses)",
                      "super^3 (wide-area)", "total", "flat fan-in"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      table.add_row({std::to_string(sizes[i]),
                     util::format_time(rows[i].cost.phases[0].total()),
                     util::format_time(rows[i].cost.phases[1].total()),
                     util::format_time(rows[i].cost.phases[2].total()),
                     util::format_time(rows[i].cost.total()),
                     util::format_time(rows[i].flat.total())});
    }
    table.print();
  }

  {
    const std::vector<std::size_t> sizes = {10, 100, 1000};
    struct Row {
      double hier = 0.0;
      double flat = 0.0;
      std::size_t hier_msgs = 0;
      std::size_t flat_msgs = 0;
    };
    std::vector<Row> rows(sizes.size());
    pool.parallel_for(sizes.size(), [&](std::size_t i) {
      const std::size_t n = util::ints_in_kbytes(sizes[i]);
      sim::ClusterSim simulator{tree, sim::SimParams{}};
      rows[i].hier = simulator.run(coll::plan_gather(tree, n, {})).makespan;
      rows[i].hier_msgs = simulator.network().stats(tree.root()).messages_crossed;
      simulator.reset();
      rows[i].flat = simulator.run(flat_gather(tree, n)).makespan;
      rows[i].flat_msgs = simulator.network().stats(tree.root()).messages_crossed;
    });

    util::Table table{
        "Simulated substrate: hierarchical vs flat gather, and wide-area "
        "message counts"};
    table.set_header({"n (KB)", "hier. simulated", "flat simulated",
                      "hier. WAN msgs", "flat WAN msgs"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      table.add_row({std::to_string(sizes[i]), util::format_time(rows[i].hier),
                     util::format_time(rows[i].flat),
                     std::to_string(rows[i].hier_msgs),
                     std::to_string(rows[i].flat_msgs)});
    }
    table.print();
  }

  {
    const std::vector<std::size_t> sizes = {1, 10, 100, 1000};
    struct Row {
      double one = 0.0;
      double two = 0.0;
    };
    std::vector<Row> rows(sizes.size());
    pool.parallel_for(sizes.size(), [&](std::size_t i) {
      const std::size_t n = util::ints_in_kbytes(sizes[i]);
      rows[i].one = model
                        .cost(coll::plan_broadcast(
                            tree, n,
                            {.root_pid = -1,
                             .top_phase = coll::TopPhase::kOnePhase,
                             .shares = coll::Shares::kEqual}))
                        .total();
      rows[i].two = model
                        .cost(coll::plan_broadcast(
                            tree, n,
                            {.root_pid = -1,
                             .top_phase = coll::TopPhase::kTwoPhase,
                             .shares = coll::Shares::kEqual}))
                        .total();
    });

    util::Table table{"Broadcast on the HBSP^3 grid: top-level strategy"};
    table.set_header({"n (KB)", "one-phase top", "two-phase top", "winner"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      table.add_row({std::to_string(sizes[i]), util::format_time(rows[i].one),
                     util::format_time(rows[i].two),
                     rows[i].two <= rows[i].one ? "two-phase" : "one-phase"});
    }
    table.print();
  }

  std::puts(
      "\nThe recursion the paper sketches works unchanged at k = 3: each level\n"
      "adds one super^i-step whose L and link costs must be amortised, and\n"
      "the hierarchy keeps wide-area traffic at one message per campus.");
  return 0;
}

int main(int argc, char** argv) {
  return hbsp::util::run_main(argc, argv, run);
}
