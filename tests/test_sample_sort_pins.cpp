// Equivalence pins for the heterogeneous sample sort: virtual completion
// time (exact, as a hex float), supersteps executed and the simulator's
// per-sort phase and delivered-message counts. Any change to how the sort
// routes values, sizes its buckets or charges compute moves at least one of
// these, so a kernel rewrite that keeps them all is charge-for-charge the
// same program. The duplicate-heavy case has repeated splitters, where the
// bucket-assignment rule matters most.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/sample_sort.hpp"
#include "core/topology.hpp"
#include "obs/metrics.hpp"
#include "runtime/hbsplib.hpp"
#include "util/rng.hpp"

namespace hbsp::apps {
namespace {

struct Pin {
  double virtual_seconds;
  std::size_t supersteps;
  std::uint64_t phases;
  std::uint64_t messages_delivered;
};

std::uint64_t counter(const std::string& name) {
  return obs::Registry::global().snapshot().counter(name);
}

std::string hex(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%a", value);
  return text;
}

/// Runs the SPMD sort directly (for RunResult::supersteps) and through the
/// driver (for the simulator counters), and checks both against `pin`.
void expect_pinned(const MachineTree& machine,
                   const std::vector<std::int32_t>& input, coll::Shares shares,
                   const Pin& pin) {
  std::vector<std::int32_t> direct;
  double direct_seconds = 0.0;
  const rt::Program program = [&](rt::Hbsp& ctx) {
    auto sorted = sample_sort_spmd(ctx, input, input.size(), shares);
    if (ctx.pid() == ctx.fastest_pid()) {
      direct = std::move(sorted);
      direct_seconds = ctx.time();
    }
  };
  const rt::RunResult result = rt::run_program(machine, {}, program);

  const std::uint64_t phases0 = counter("sim.phases");
  const std::uint64_t delivered0 = counter("sim.messages_delivered");
  const SortRun run = run_sample_sort(machine, input, shares);
  const std::uint64_t phases = counter("sim.phases") - phases0;
  const std::uint64_t delivered =
      counter("sim.messages_delivered") - delivered0;

  std::vector<std::int32_t> reference = input;
  std::sort(reference.begin(), reference.end());
  EXPECT_TRUE(run.valid);
  EXPECT_EQ(run.sorted, reference);
  EXPECT_EQ(direct, reference);
  EXPECT_EQ(hex(run.virtual_seconds), hex(pin.virtual_seconds));
  EXPECT_EQ(hex(direct_seconds), hex(pin.virtual_seconds));
  EXPECT_EQ(result.supersteps, pin.supersteps);
  EXPECT_EQ(phases, pin.phases);
  EXPECT_EQ(delivered, pin.messages_delivered);
}

TEST(SampleSortPins, Testbed10Balanced) {
  expect_pinned(make_paper_testbed(10), util::uniform_int_workload(20000, 31),
                coll::Shares::kBalanced, {0x1.1e341498503b7p-3, 6, 6, 206});
}

TEST(SampleSortPins, Testbed10Equal) {
  expect_pinned(make_paper_testbed(10), util::uniform_int_workload(20000, 31),
                coll::Shares::kEqual, {0x1.40a466131c8fep-3, 6, 6, 206});
}

TEST(SampleSortPins, Figure1Cluster) {
  expect_pinned(make_figure1_cluster(), util::uniform_int_workload(3000, 17),
                coll::Shares::kBalanced, {0x1.713353d6c529fp-3, 14, 14, 134});
}

TEST(SampleSortPins, DuplicateHeavyInput) {
  std::vector<std::int32_t> input(4000, 7);
  for (std::size_t i = 0; i < input.size(); i += 3) {
    input[i] = static_cast<std::int32_t>(i % 5);
  }
  expect_pinned(make_paper_testbed(6), input, coll::Shares::kBalanced,
                {0x1.be2d2cf90c705p-4, 6, 6, 56});
}

}  // namespace
}  // namespace hbsp::apps
