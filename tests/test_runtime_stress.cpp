// Stress and longevity tests for the runtime: many supersteps, many
// messages, interleaved scopes, and repeated runs — the barrier machinery
// must neither deadlock nor leak state between supersteps.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "core/topology.hpp"
#include "runtime/hbsplib.hpp"
#include "sim/cluster_sim.hpp"

namespace hbsp::rt {
namespace {

const sim::SimParams kParams{};

TEST(RuntimeStress, ManySuperstepsTokenRing) {
  // A token circulates the ring for 200 supersteps; every hop must arrive in
  // exactly the next superstep with the incremented value.
  const MachineTree tree = make_paper_testbed(5);
  constexpr int kSteps = 200;
  std::atomic<int> final_token{-1};

  const Program program = [&](Hbsp& ctx) {
    const int p = ctx.nprocs();
    for (int step = 0; step < kSteps; ++step) {
      const int holder = step % p;
      const int next = (step + 1) % p;
      if (ctx.pid() == holder) {
        std::int32_t token = 0;
        if (step == 0) {
          token = 100;
        } else {
          auto messages = ctx.recv_all();
          ASSERT_EQ(messages.size(), 1u);
          token = messages.front().unpack_all<std::int32_t>().front();
        }
        ++token;
        ctx.send_items<std::int32_t>(next, std::span{&token, 1});
      }
      ctx.sync();
    }
    if (ctx.pid() == kSteps % p) {
      const auto messages = ctx.recv_all();
      ASSERT_EQ(messages.size(), 1u);
      final_token = messages.front().unpack_all<std::int32_t>().front();
    }
  };
  const RunResult result = run_program(tree, kParams, program);
  EXPECT_EQ(final_token.load(), 100 + kSteps);
  EXPECT_EQ(result.supersteps, static_cast<std::size_t>(kSteps));
}

TEST(RuntimeStress, AllPairsEverySuperstepForManySteps) {
  const MachineTree tree = make_paper_testbed(6);
  constexpr int kSteps = 50;
  const Program program = [&](Hbsp& ctx) {
    for (int step = 0; step < kSteps; ++step) {
      for (int dst = 0; dst < ctx.nprocs(); ++dst) {
        if (dst == ctx.pid()) continue;
        const auto value = static_cast<std::int32_t>(step * 100 + ctx.pid());
        ctx.send_items<std::int32_t>(dst, std::span{&value, 1});
      }
      ctx.sync();
      const auto messages = ctx.recv_all();
      ASSERT_EQ(messages.size(), static_cast<std::size_t>(ctx.nprocs() - 1));
      for (const auto& message : messages) {
        EXPECT_EQ(message.unpack_all<std::int32_t>().front(),
                  step * 100 + message.src_pid);
      }
    }
  };
  (void)run_program(tree, kParams, program);
}

TEST(RuntimeStress, InterleavedClusterAndGlobalBarriers) {
  // Clusters alternate between local supersteps (different counts per
  // cluster!) and global ones; the per-scope generations must not confuse
  // each other.
  const MachineTree tree = make_figure1_cluster();
  const Program program = [&](Hbsp& ctx) {
    const MachineTree& machine = ctx.machine();
    const MachineId mine = machine.processor(ctx.pid());
    for (int round = 0; round < 20; ++round) {
      if (mine.level == 0) {
        const MachineId my_cluster = machine.ancestor_at(ctx.pid(), 1);
        // The SMP (cluster 0) syncs twice per round, the LAN once.
        ctx.sync_scope(my_cluster);
        if (my_cluster.index == 0) ctx.sync_scope(my_cluster);
      }
      ctx.sync();
    }
  };
  const RunResult result = run_program(tree, kParams, program);
  // Per round: 2 SMP + 1 LAN + 1 global = 4 supersteps.
  EXPECT_EQ(result.supersteps, 80u);
}

TEST(RuntimeStress, LargePayloadsSurviveRoundTrips) {
  const MachineTree tree = make_paper_testbed(3);
  const std::size_t n = 200000;  // 800 KB per message
  const auto payload = [] {
    std::vector<std::int32_t> values(200000);
    std::iota(values.begin(), values.end(), -1000);
    return values;
  }();

  const Program program = [&](Hbsp& ctx) {
    if (ctx.pid() == 1) ctx.send_items<std::int32_t>(0, payload);
    ctx.sync();
    if (ctx.pid() == 0) {
      auto messages = ctx.recv_all();
      ASSERT_EQ(messages.size(), 1u);
      EXPECT_EQ(messages.front().items, n);
      EXPECT_EQ(messages.front().unpack_all<std::int32_t>(), payload);
      // Bounce it back.
      ctx.send_items<std::int32_t>(1, payload);
    }
    ctx.sync();
    if (ctx.pid() == 1) {
      EXPECT_EQ(ctx.recv_all().front().unpack_all<std::int32_t>(), payload);
    }
  };
  (void)run_program(tree, kParams, program);
}

TEST(RuntimeStress, BackToBackRunsAreIndependent) {
  const MachineTree tree = make_paper_testbed(4);
  const Program program = [](Hbsp& ctx) {
    if (ctx.pid() == 1) {
      const std::int32_t v = 9;
      ctx.send_items<std::int32_t>(0, std::span{&v, 1});
    }
    ctx.sync();
    if (ctx.pid() == 0) {
      // Exactly one message: nothing leaked from a previous run.
      EXPECT_EQ(ctx.recv_all().size(), 1u);
    }
  };
  double first = 0.0;
  for (int run = 0; run < 5; ++run) {
    const RunResult result = run_program(tree, kParams, program);
    if (run == 0) {
      first = result.makespan;
    } else {
      EXPECT_DOUBLE_EQ(result.makespan, first);  // fully reproducible
    }
  }
}

TEST(RuntimeStress, RingPassesAPayloadEverySuperstep) {
  const MachineTree tree = make_paper_testbed(4);
  std::atomic<int> checks{0};
  const Program program = [&](Hbsp& ctx) {
    for (int step = 0; step < 25; ++step) {
      const int dst = (ctx.pid() + 1) % ctx.nprocs();
      const auto value = static_cast<std::int32_t>(step);
      ctx.send_items<std::int32_t>(dst, std::span{&value, 1});
      ctx.sync();
      const auto messages = ctx.recv_all();
      if (messages.size() == 1 &&
          messages.front().unpack_all<std::int32_t>().front() == step) {
        ++checks;
      }
    }
  };
  (void)run_program(tree, kParams, program);
  EXPECT_EQ(checks.load(), 4 * 25);
}

}  // namespace
}  // namespace hbsp::rt
