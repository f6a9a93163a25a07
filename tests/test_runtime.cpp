// Tests for the HBSPlib-like runtime: superstep message semantics,
// hierarchical barriers, heterogeneity enquiry, virtual timing, error
// propagation.

#include "runtime/hbsplib.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "core/topology.hpp"
#include "sim/cluster_sim.hpp"

namespace hbsp::rt {
namespace {

const sim::SimParams kParams{};

MachineTree cluster() {
  return make_hbsp1_cluster(std::array{1.0, 2.0, 4.0});
}

TEST(Runtime, MessagesArriveInTheNextSuperstep) {
  std::atomic<int> deliveries{0};
  const Program program = [&](Hbsp& ctx) {
    if (ctx.pid() == 1) {
      const std::int32_t value = 77;
      ctx.send_items<std::int32_t>(0, std::span{&value, 1});
      // Not visible before the synchronisation...
      EXPECT_EQ(ctx.pending_messages(), 0u);
    }
    ctx.sync();
    if (ctx.pid() == 0) {
      auto messages = ctx.recv_all();
      ASSERT_EQ(messages.size(), 1u);
      EXPECT_EQ(messages[0].src_pid, 1);
      EXPECT_EQ(messages[0].items, 1u);
      const auto values = messages[0].unpack_all<std::int32_t>();
      ASSERT_EQ(values.size(), 1u);
      EXPECT_EQ(values[0], 77);
      ++deliveries;
    } else {
      EXPECT_TRUE(ctx.recv_all().empty());
    }
    ctx.sync();
  };
  (void)run_program(cluster(), kParams, program);
  EXPECT_EQ(deliveries.load(), 1);
}

TEST(Runtime, MessagesOrderedBySourcePid) {
  const Program program = [](Hbsp& ctx) {
    if (ctx.pid() != 0) {
      const auto value = static_cast<std::int32_t>(ctx.pid());
      ctx.send_items<std::int32_t>(0, std::span{&value, 1});
    }
    ctx.sync();
    if (ctx.pid() == 0) {
      const auto messages = ctx.recv_all();
      ASSERT_EQ(messages.size(), 2u);
      EXPECT_EQ(messages[0].src_pid, 1);
      EXPECT_EQ(messages[1].src_pid, 2);
    }
  };
  (void)run_program(cluster(), kParams, program);
}

TEST(Runtime, PerSenderIssueOrderPreserved) {
  const Program program = [](Hbsp& ctx) {
    if (ctx.pid() == 1) {
      for (std::int32_t i = 0; i < 5; ++i) {
        ctx.send_items<std::int32_t>(0, std::span{&i, 1}, /*tag=*/i);
      }
    }
    ctx.sync();
    if (ctx.pid() == 0) {
      const auto messages = ctx.recv_all();
      ASSERT_EQ(messages.size(), 5u);
      for (std::int32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(messages[static_cast<std::size_t>(i)].tag, i);
      }
    }
  };
  (void)run_program(cluster(), kParams, program);
}

TEST(Runtime, SelfSendDelivered) {
  const Program program = [](Hbsp& ctx) {
    if (ctx.pid() == 2) {
      const std::int32_t value = 5;
      ctx.send_items<std::int32_t>(2, std::span{&value, 1});
    }
    ctx.sync();
    if (ctx.pid() == 2) {
      EXPECT_EQ(ctx.recv_all().size(), 1u);
    }
  };
  (void)run_program(cluster(), kParams, program);
}

TEST(Runtime, HierarchicalScopesRunConcurrently) {
  const MachineTree tree = make_figure1_cluster();
  const Program program = [](Hbsp& ctx) {
    const MachineTree& machine = ctx.machine();
    const MachineId mine = machine.processor(ctx.pid());
    // SMP members (pids 0..3) and LAN members (5..8) sync their own
    // clusters a different number of times; the SGI (pid 4) syncs neither.
    if (mine.level == 0) {
      const MachineId my_cluster = machine.ancestor_at(ctx.pid(), 1);
      ctx.sync_scope(my_cluster);
      ctx.sync_scope(my_cluster);
    }
    ctx.sync();  // whole machine
  };
  const RunResult result = run_program(tree, kParams, program);
  // 2 SMP supersteps + 2 LAN supersteps + 1 global.
  EXPECT_EQ(result.supersteps, 5u);
}

TEST(Runtime, EnquiryPrimitives) {
  const Program program = [](Hbsp& ctx) {
    EXPECT_EQ(ctx.nprocs(), 3);
    EXPECT_EQ(ctx.fastest_pid(), 0);
    EXPECT_EQ(ctx.slowest_pid(), 2);
    switch (ctx.pid()) {
      case 0:
        EXPECT_DOUBLE_EQ(ctx.speed(), 1.0);
        EXPECT_EQ(ctx.rank_by_speed(), 0);
        break;
      case 1:
        EXPECT_DOUBLE_EQ(ctx.speed(), 2.0);
        EXPECT_EQ(ctx.rank_by_speed(), 1);
        break;
      default:
        EXPECT_DOUBLE_EQ(ctx.speed(), 4.0);
        EXPECT_EQ(ctx.rank_by_speed(), 2);
        break;
    }
    const auto shares = ctx.balanced_shares(700);
    EXPECT_EQ(shares, (std::vector<std::size_t>{400, 200, 100}));
    EXPECT_EQ(ctx.my_balanced_share(700),
              shares[static_cast<std::size_t>(ctx.pid())]);
  };
  (void)run_program(cluster(), kParams, program);
}

TEST(Runtime, UserExceptionsPropagate) {
  const Program program = [](Hbsp& ctx) {
    if (ctx.pid() == 1) throw std::runtime_error{"boom on pid 1"};
    ctx.sync();  // peers must be released, not deadlock
  };
  try {
    (void)run_program(cluster(), kParams, program);
    FAIL() << "expected the user exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom on pid 1");
  }
}

TEST(Runtime, InvalidDestinationFailsTheRun) {
  const Program program = [](Hbsp& ctx) {
    if (ctx.pid() == 0) ctx.send(99, {}, 1);
    ctx.sync();
  };
  EXPECT_THROW((void)run_program(cluster(), kParams, program),
               std::invalid_argument);
}

TEST(Runtime, SendOutsideScopeFails) {
  const MachineTree tree = make_figure1_cluster();
  const Program program = [](Hbsp& ctx) {
    const MachineTree& machine = ctx.machine();
    const MachineId mine = machine.processor(ctx.pid());
    if (mine.level == 0) {
      if (ctx.pid() == 0) {
        const std::int32_t v = 1;
        ctx.send_items<std::int32_t>(8, std::span{&v, 1});  // SMP -> LAN
      }
      ctx.sync_scope(machine.ancestor_at(ctx.pid(), 1));
    }
    ctx.sync();
  };
  EXPECT_THROW((void)run_program(tree, kParams, program), std::logic_error);
}

// --- virtual-time specifics ----------------------------------------------------

TEST(VirtualTime, MatchesClusterSimForTheSameTraffic) {
  const MachineTree tree = cluster();
  // Program: P1 sends 1000 items to P0, then everyone syncs.
  const Program program = [](Hbsp& ctx) {
    if (ctx.pid() == 1) {
      ctx.send(0, std::vector<std::byte>(4000), 1000);
    }
    ctx.sync();
  };
  const RunResult run = run_program(tree, kParams, program);

  CommSchedule schedule;
  schedule.add_step("same", 1, tree.root()).transfers = {{1, 0, 1000}};
  sim::ClusterSim sim{tree, kParams};
  EXPECT_DOUBLE_EQ(run.makespan, sim.run(schedule).makespan);
}

TEST(VirtualTime, TimeAdvancesOnlyAtSync) {
  const Program program = [](Hbsp& ctx) {
    EXPECT_DOUBLE_EQ(ctx.time(), 0.0);
    ctx.charge_compute(1000.0);
    EXPECT_DOUBLE_EQ(ctx.time(), 0.0);  // charged at the barrier
    ctx.sync();
    EXPECT_GT(ctx.time(), 0.0);
  };
  (void)run_program(cluster(), kParams, program);
}

TEST(VirtualTime, ComputeChargesScaleWithSpeed) {
  std::vector<double> finish(3, 0.0);
  const Program program = [&](Hbsp& ctx) {
    ctx.charge_compute(1000.0);
    ctx.sync_scope(ctx.machine().processor(ctx.pid()));  // self-barrier
    finish[static_cast<std::size_t>(ctx.pid())] = ctx.time();
  };
  (void)run_program(cluster(), kParams, program);
  // Per-processor barriers: each pid pays only its own compute (L = 0 on
  // leaf scopes).
  EXPECT_NEAR(finish[1] / finish[0], 2.0, 1e-9);
  EXPECT_NEAR(finish[2] / finish[0], 4.0, 1e-9);
}

TEST(RunOptions, BarrierTimeoutDetectsMismatchedSyncs) {
  // pid 0 never syncs; everyone else waits at the barrier. With a short
  // timeout the run fails fast instead of deadlocking.
  const Program program = [](Hbsp& ctx) {
    if (ctx.pid() != 0) ctx.sync();
  };
  RunOptions options;
  options.barrier_timeout_seconds = 0.2;
  try {
    (void)run_program(cluster(), kParams, program, options);
    FAIL() << "expected a barrier timeout";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("barrier timeout"), std::string::npos);
  }
}

TEST(RunOptions, DefaultsMatchThreeArgumentOverload) {
  const Program program = [](Hbsp& ctx) { ctx.sync(); };
  RunOptions options;  // 60 s timeout, no fault injector
  const RunResult a = run_program(cluster(), kParams, program, options);
  const RunResult b = run_program(cluster(), kParams, program);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(RunResult, ReportsPerPidFinishTimesAndSupersteps) {
  const Program program = [](Hbsp& ctx) {
    ctx.sync();
    ctx.sync();
  };
  const RunResult result = run_program(cluster(), kParams, program);
  EXPECT_EQ(result.supersteps, 2u);
  ASSERT_EQ(result.finish_times.size(), 3u);
  for (const double t : result.finish_times) {
    EXPECT_DOUBLE_EQ(t, result.makespan);  // all exit the last barrier together
  }
}

}  // namespace
}  // namespace hbsp::rt
