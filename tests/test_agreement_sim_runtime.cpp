// Agreement between the two execution paths (DESIGN.md §2): simulating a
// CommSchedule directly with ClusterSim must give the same virtual makespan
// as replaying that schedule as an SPMD program on the runtime's
// virtual-time engine — for the planned collectives and for random
// schedules. Also checks the executors produce the planner's timing.

#include <gtest/gtest.h>

#include <string>

#include "collectives/executors.hpp"
#include "collectives/planners.hpp"
#include "collectives/schedule_replay.hpp"
#include "core/topology.hpp"
#include "sim/cluster_sim.hpp"
#include "util/rng.hpp"

namespace hbsp {
namespace {

const sim::SimParams kParams{};

double simulate(const MachineTree& tree, const CommSchedule& schedule) {
  sim::ClusterSim sim{tree, kParams};
  return sim.run(schedule).makespan;
}

double replay(const MachineTree& tree, const CommSchedule& schedule) {
  return rt::run_program(tree, kParams,
                         coll::make_replay_program(tree, schedule))
      .makespan;
}

TEST(SimRuntimeAgreement, PlannedCollectivesMatch) {
  const MachineTree flat = make_paper_testbed(6);
  const MachineTree deep = make_figure1_cluster();
  const std::size_t n = 25000;
  const std::vector<std::pair<const MachineTree*, CommSchedule>> cases = {
      {&flat, coll::plan_gather(flat, n, {})},
      {&flat, coll::plan_gather(flat, n,
                                {.root_pid = flat.slowest_pid(flat.root()),
                                 .shares = coll::Shares::kEqual})},
      {&flat, coll::plan_broadcast(flat, n, {})},
      {&flat, coll::plan_scatter(flat, n, {})},
      {&flat, coll::plan_allgather(flat, n)},
      {&flat, coll::plan_reduce(flat, n, {})},
      {&flat, coll::plan_scan(flat, n)},
      {&flat, coll::plan_alltoall(flat, n)},
      {&deep, coll::plan_gather(deep, n, {})},
      {&deep, coll::plan_broadcast(deep, n, {})},
      {&deep, coll::plan_scatter(deep, n, {})},
  };
  for (const auto& [tree, schedule] : cases) {
    const double simulated = simulate(*tree, schedule);
    const double replayed = replay(*tree, schedule);
    EXPECT_NEAR(replayed, simulated, 1e-9 * simulated + 1e-15)
        << schedule.name;
  }
}

/// Random single-phase schedules over random flat clusters.
class RandomScheduleAgreement : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomScheduleAgreement, MakespansMatch) {
  util::Rng rng{GetParam() * 7919 + 13};
  RandomTreeOptions options;
  options.levels = 1 + static_cast<int>(rng.uniform_u64(0, 1));
  options.min_fanout = 2;
  options.max_fanout = 3;
  const MachineTree tree = make_random_tree(options, GetParam() + 555);

  CommSchedule schedule;
  schedule.name = "random";
  const auto steps = rng.uniform_u64(1, 4);
  for (std::uint64_t s = 0; s < steps; ++s) {
    std::string step_name = "s";
    step_name += std::to_string(s);
    SuperstepPlan& plan =
        schedule.add_step(step_name, tree.height(), tree.root());
    const auto messages = rng.uniform_u64(0, 12);
    for (std::uint64_t m = 0; m < messages; ++m) {
      const int src = static_cast<int>(rng.uniform_u64(
          0, static_cast<std::uint64_t>(tree.num_processors() - 1)));
      const int dst = static_cast<int>(rng.uniform_u64(
          0, static_cast<std::uint64_t>(tree.num_processors() - 1)));
      plan.transfers.push_back(
          {src, dst, static_cast<std::size_t>(rng.uniform_u64(0, 5000))});
    }
    const auto workers = rng.uniform_u64(0, 3);
    for (std::uint64_t w = 0; w < workers; ++w) {
      plan.compute.push_back(
          {static_cast<int>(rng.uniform_u64(
               0, static_cast<std::uint64_t>(tree.num_processors() - 1))),
           static_cast<double>(rng.uniform_u64(0, 10000))});
    }
  }

  const double simulated = simulate(tree, schedule);
  const double replayed = replay(tree, schedule);
  EXPECT_NEAR(replayed, simulated, 1e-9 * simulated + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScheduleAgreement,
                         ::testing::Range<std::uint64_t>(0, 20));

/// Executors must realise exactly the schedules their planners emit: the SPMD
/// gather/broadcast virtual makespan equals the simulated planner makespan.
TEST(ExecutorTimingAgreement, GatherMatchesPlanner) {
  const MachineTree tree = make_paper_testbed(5);
  const std::size_t n = 10000;
  for (const auto shares : {coll::Shares::kEqual, coll::Shares::kBalanced}) {
    for (const int root :
         {tree.coordinator_pid(tree.root()), tree.slowest_pid(tree.root())}) {
      const auto schedule =
          coll::plan_gather(tree, n, {.root_pid = root, .shares = shares});
      const double planned = simulate(tree, schedule);

      const auto leaf_counts = coll::leaf_shares(tree, n, shares);
      const rt::Program program = [&](rt::Hbsp& ctx) {
        const std::vector<std::int32_t> mine(
            leaf_counts[static_cast<std::size_t>(ctx.pid())], 7);
        (void)coll::gather<std::int32_t>(ctx, mine, n,
                                         {.root_pid = root, .shares = shares});
      };
      const double executed = rt::run_program(tree, kParams, program).makespan;
      EXPECT_NEAR(executed, planned, 1e-9 * planned) << "root=" << root;
    }
  }
}

TEST(ExecutorTimingAgreement, BroadcastMatchesPlanner) {
  const MachineTree tree = make_figure1_cluster();
  const std::size_t n = 10000;
  for (const auto top : {coll::TopPhase::kOnePhase, coll::TopPhase::kTwoPhase}) {
    const coll::BroadcastOptions options{
        .root_pid = -1, .top_phase = top, .shares = coll::Shares::kEqual};
    const double planned = simulate(tree, coll::plan_broadcast(tree, n, options));
    const std::vector<std::int32_t> input(n, 3);
    const rt::Program program = [&](rt::Hbsp& ctx) {
      const std::span<const std::int32_t> mine =
          ctx.pid() == tree.coordinator_pid(tree.root())
              ? std::span<const std::int32_t>{input}
              : std::span<const std::int32_t>{};
      (void)coll::broadcast<std::int32_t>(ctx, mine, n, options);
    };
    const double executed = rt::run_program(tree, kParams, program).makespan;
    EXPECT_NEAR(executed, planned, 1e-9 * planned);
  }
}

}  // namespace
}  // namespace hbsp
