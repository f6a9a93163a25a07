// Pins on the SPMD collective executors beyond their data contracts:
//  * fold order — reduce, reduce_tree and scan run with a non-associative
//    double operation and must match, bit for bit, a serial reference that
//    folds in the documented order;
//  * round trips above paper scale — scatter/gather, broadcast,
//    allgather_tree and reduce_tree on 64- and 81-processor uniform trees
//    (k = 3 and k = 4), with the runtime makespan equal to the simulator's
//    for the planner's schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "collectives/executors.hpp"
#include "collectives/planners.hpp"
#include "core/topology.hpp"
#include "sim/cluster_sim.hpp"

namespace hbsp {
namespace {

const sim::SimParams kParams{};

/// Non-associative and non-commutative: any change of fold order or
/// grouping changes the bits of the result.
double skew(double a, double b) { return a * 0.5 + b; }

constexpr double kIdentity = 0.25;

/// pid-ordered slices of a global sequence of distinct fractional values.
std::vector<std::vector<double>> fractional_slices(
    const std::vector<std::size_t>& shares) {
  std::vector<std::vector<double>> slices;
  double next = 1.0;
  for (const std::size_t count : shares) {
    std::vector<double>& slice = slices.emplace_back();
    for (std::size_t i = 0; i < count; ++i) {
      slice.push_back(next);
      next = next * 1.1 + 0.3;
    }
  }
  return slices;
}

double fold(double start, std::span<const double> values) {
  for (const double v : values) start = skew(start, v);
  return start;
}

TEST(FoldOrder, FlatReduceFoldsPartialsInPidOrderFromIdentity) {
  const MachineTree tree = make_paper_testbed(6);
  const std::size_t n = 40;
  for (const int root :
       {tree.coordinator_pid(tree.root()), tree.slowest_pid(tree.root())}) {
    const auto leaf = coll::leaf_shares(tree, n, coll::Shares::kBalanced);
    const auto slices = fractional_slices(leaf);
    double expected = kIdentity;
    for (const auto& slice : slices) {
      expected = skew(expected, fold(kIdentity, slice));
    }
    std::optional<double> got;
    const rt::Program program = [&](rt::Hbsp& ctx) {
      const auto result = coll::reduce<double>(
          ctx, slices[static_cast<std::size_t>(ctx.pid())], n, skew, kIdentity,
          {.root_pid = root, .shares = coll::Shares::kBalanced});
      if (ctx.pid() == root) got = result;
    };
    (void)rt::run_program(tree, kParams, program);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected) << "root=" << root;
  }
}

/// Serial reduce_tree: local folds, then level by level each cluster's
/// target folds the partials of its other member sites in src pid order.
double reduce_tree_reference(const MachineTree& tree, int root_pid,
                             const std::vector<std::vector<double>>& slices) {
  std::vector<double> partial;
  for (const auto& slice : slices) partial.push_back(fold(kIdentity, slice));
  for (int level = 1; level <= tree.height(); ++level) {
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId cluster{level, j};
      if (tree.is_processor(cluster)) continue;
      const int target = coll::cluster_target(tree, cluster, root_pid);
      std::vector<int> senders;
      for (int c = 0; c < tree.num_children(cluster); ++c) {
        const MachineId child = tree.child(cluster, c);
        const int site = tree.is_processor(child)
                             ? tree.node(child).pid
                             : coll::cluster_target(tree, child, root_pid);
        if (site != target) senders.push_back(site);
      }
      std::sort(senders.begin(), senders.end());
      for (const int site : senders) {
        partial[static_cast<std::size_t>(target)] = skew(
            partial[static_cast<std::size_t>(target)],
            partial[static_cast<std::size_t>(site)]);
      }
    }
  }
  return partial[static_cast<std::size_t>(root_pid)];
}

TEST(FoldOrder, ReduceTreeFoldsArrivalsInSrcPidOrderLevelByLevel) {
  const MachineTree figure1 = make_figure1_cluster();
  const MachineTree flat = make_paper_testbed(5);
  const std::size_t n = 60;
  for (const MachineTree* tree : {&figure1, &flat}) {
    for (const int root : {tree->coordinator_pid(tree->root()),
                           tree->slowest_pid(tree->root())}) {
      const auto leaf = coll::leaf_shares(*tree, n, coll::Shares::kEqual);
      const auto slices = fractional_slices(leaf);
      const double expected = reduce_tree_reference(*tree, root, slices);
      std::optional<double> got;
      const rt::Program program = [&](rt::Hbsp& ctx) {
        const auto result = coll::reduce_tree<double>(
            ctx, slices[static_cast<std::size_t>(ctx.pid())], n, skew,
            kIdentity, {.root_pid = root, .shares = coll::Shares::kEqual});
        if (ctx.pid() == root) got = result;
      };
      (void)rt::run_program(*tree, kParams, program);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, expected) << "p=" << tree->num_processors()
                                << " root=" << root;
    }
  }
}

TEST(FoldOrder, ScanAppliesExclusivePrefixOverPidOrder) {
  const MachineTree tree = make_paper_testbed(5);
  const std::size_t n = 23;
  const auto leaf = coll::leaf_shares(tree, n, coll::Shares::kBalanced);
  const auto slices = fractional_slices(leaf);

  std::vector<std::vector<double>> expected;
  double prefix = kIdentity;
  for (const auto& slice : slices) {
    std::vector<double> local;
    double running = kIdentity;
    for (const double v : slice) {
      running = skew(running, v);
      local.push_back(running);
    }
    for (double& v : local) v = skew(prefix, v);
    expected.push_back(std::move(local));
    prefix = skew(prefix, running);
  }

  std::vector<std::vector<double>> got(slices.size());
  const rt::Program program = [&](rt::Hbsp& ctx) {
    got[static_cast<std::size_t>(ctx.pid())] = coll::scan<double>(
        ctx, slices[static_cast<std::size_t>(ctx.pid())], n, skew, kIdentity,
        coll::Shares::kBalanced);
  };
  (void)rt::run_program(tree, kParams, program);
  EXPECT_EQ(got, expected);
}

// --- above paper scale -------------------------------------------------------

const double kCycle[] = {1.0, 1.5, 2.0, 3.0};

struct Scale {
  int levels;
  int fanout;
};

class ExecutorScale : public ::testing::TestWithParam<Scale> {
 protected:
  [[nodiscard]] MachineTree tree() const {
    return make_uniform_tree(GetParam().levels, GetParam().fanout, kCycle);
  }
};

double simulate(const MachineTree& tree, const CommSchedule& schedule) {
  sim::ClusterSim sim{tree, kParams};
  return sim.run(schedule).makespan;
}

std::vector<std::int32_t> iota_from(std::size_t n, std::int32_t first) {
  std::vector<std::int32_t> values(n);
  std::iota(values.begin(), values.end(), first);
  return values;
}

TEST_P(ExecutorScale, ScatterThenGatherIsIdentity) {
  const MachineTree t = tree();
  const std::size_t n = 5003;
  const auto input = iota_from(n, -17);
  for (const int root : {t.coordinator_pid(t.root()), t.slowest_pid(t.root())}) {
    const coll::RootedOptions options{.root_pid = root,
                                      .shares = coll::Shares::kBalanced};
    std::optional<std::vector<std::int32_t>> back;
    const rt::Program program = [&](rt::Hbsp& ctx) {
      const auto mine = coll::scatter<std::int32_t>(
          ctx,
          ctx.pid() == root ? std::span<const std::int32_t>{input}
                            : std::span<const std::int32_t>{},
          n, options);
      auto gathered = coll::gather<std::int32_t>(ctx, mine, n, options);
      if (ctx.pid() == root) back = std::move(gathered);
    };
    const double executed = rt::run_program(t, kParams, program).makespan;
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, input) << "root=" << root;
    CommSchedule both = coll::plan_scatter(t, n, options);
    for (auto& phase : coll::plan_gather(t, n, options).phases) {
      both.phases.push_back(std::move(phase));
    }
    const double planned = simulate(t, both);
    EXPECT_NEAR(executed, planned, 1e-9 * planned) << "root=" << root;
  }
}

TEST_P(ExecutorScale, BroadcastDeliversEverywhere) {
  const MachineTree t = tree();
  const std::size_t n = 4001;
  const auto input = iota_from(n, 3);
  for (const auto top : {coll::TopPhase::kOnePhase, coll::TopPhase::kTwoPhase}) {
    const coll::BroadcastOptions options{.root_pid = t.slowest_pid(t.root()),
                                         .top_phase = top,
                                         .shares = coll::Shares::kBalanced};
    std::atomic<int> confirmed{0};
    const rt::Program program = [&](rt::Hbsp& ctx) {
      const auto result = coll::broadcast<std::int32_t>(
          ctx,
          ctx.pid() == options.root_pid ? std::span<const std::int32_t>{input}
                                        : std::span<const std::int32_t>{},
          n, options);
      if (result == input) ++confirmed;
    };
    const double executed = rt::run_program(t, kParams, program).makespan;
    EXPECT_EQ(confirmed.load(), t.num_processors());
    const double planned = simulate(t, coll::plan_broadcast(t, n, options));
    EXPECT_NEAR(executed, planned, 1e-9 * planned);
  }
}

TEST_P(ExecutorScale, AllgatherTreeAssemblesEverywhere) {
  const MachineTree t = tree();
  const std::size_t n = 3000;
  const auto leaf = coll::leaf_shares(t, n, coll::Shares::kBalanced);
  std::vector<std::size_t> offsets(leaf.size() + 1, 0);
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    offsets[i + 1] = offsets[i] + leaf[i];
  }
  const auto expected = iota_from(n, 0);
  std::atomic<int> confirmed{0};
  const rt::Program program = [&](rt::Hbsp& ctx) {
    const auto pid = static_cast<std::size_t>(ctx.pid());
    const std::span<const std::int32_t> mine{expected.data() + offsets[pid],
                                             leaf[pid]};
    if (coll::allgather_tree<std::int32_t>(ctx, mine, n) == expected) {
      ++confirmed;
    }
  };
  const double executed = rt::run_program(t, kParams, program).makespan;
  EXPECT_EQ(confirmed.load(), t.num_processors());
  const double planned = simulate(t, coll::plan_allgather_tree(t, n));
  EXPECT_NEAR(executed, planned, 1e-9 * planned);
}

TEST_P(ExecutorScale, ReduceTreeSums) {
  const MachineTree t = tree();
  const std::size_t n = 20000;
  const int root = t.slowest_pid(t.root());
  const coll::RootedOptions options{.root_pid = root,
                                    .shares = coll::Shares::kBalanced};
  const auto leaf = coll::leaf_shares(t, n, options.shares);
  std::optional<std::int64_t> got;
  const rt::Program program = [&](rt::Hbsp& ctx) {
    const std::vector<std::int64_t> mine(
        leaf[static_cast<std::size_t>(ctx.pid())], 3);
    const auto result = coll::reduce_tree<std::int64_t>(
        ctx, mine, n, [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, options);
    if (ctx.pid() == root) got = result;
  };
  const double executed = rt::run_program(t, kParams, program).makespan;
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 3 * static_cast<std::int64_t>(n));
  const double planned = simulate(t, coll::plan_reduce_tree(t, n, options));
  EXPECT_NEAR(executed, planned, 1e-9 * planned);
}

INSTANTIATE_TEST_SUITE_P(UniformTrees, ExecutorScale,
                         ::testing::Values(Scale{3, 4}, Scale{4, 3}),
                         [](const auto& param_info) {
                           return "k" + std::to_string(param_info.param.levels) +
                                  "_fanout" + std::to_string(param_info.param.fanout);
                         });

}  // namespace
}  // namespace hbsp
