// Reproduces the §4.4 broadcast analysis:
//
//  * HBSP^1 one-phase (gnm + L) vs two-phase (gn(1+r_s) + 2L) costs and the
//    crossover problem size where two-phase starts winning;
//  * the r_s >= m−1 regime where one-phase never loses ("it may be more
//    appropriate not to include that machine in the computation");
//  * HBSP^2 top-level one- vs two-phase with the r_{1,s} ≷ m_{2,0} regimes.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "collectives/planners.hpp"
#include "core/analysis.hpp"
#include "core/topology.hpp"
#include "experiments/figures.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;
using analysis::TopPhase;

void hbsp1_phase_comparison() {
  const MachineTree tree = make_paper_testbed(8);
  const int root = tree.coordinator_pid(tree.root());
  util::Table table{
      "HBSP^1 broadcast (p=8, r_s=2.5): one-phase vs two-phase closed forms"};
  table.set_header({"n (items)", "one-phase", "two-phase", "winner"});
  for (const std::size_t n : {10u, 100u, 1000u, 10000u, 100000u, 250000u}) {
    const double one =
        analysis::hbsp1_broadcast_one_phase(tree, tree.root(), root, n).total();
    const double two = analysis::hbsp1_broadcast_two_phase(
                           tree, tree.root(), root, n, analysis::Shares::kEqual)
                           .total();
    table.add_row({std::to_string(n), util::format_time(one),
                   util::format_time(two), two <= one ? "two-phase" : "one-phase"});
  }
  table.print();

  const auto crossover =
      analysis::broadcast_crossover_n(tree, tree.root(), root, 1 << 24);
  if (crossover) {
    std::printf("Two-phase overtakes one-phase at n = %zu items (%s).\n",
                *crossover,
                util::format_bytes(*crossover * 4).c_str());
  }
}

void slow_receiver_regime() {
  util::Table table{
      "When can two-phase win? The r_s vs m-1 regime (SS4.4)"};
  table.set_header({"cluster", "m-1", "r_s", "crossover n (items)"});
  struct Config {
    const char* name;
    std::vector<double> r;
  };
  const std::vector<Config> configs = {
      {"mild heterogeneity, p=8", {1, 1.1, 1.2, 1.3, 1.5, 1.7, 2.0, 2.5}},
      {"one crawler, p=3 (r_s >= m-1)", {1, 2, 4}},
      {"one crawler, p=8", {1, 1.1, 1.2, 1.3, 1.5, 1.7, 2.0, 9.0}},
      {"homogeneous, p=6", {1, 1, 1, 1, 1, 1}},
  };
  for (const auto& config : configs) {
    const MachineTree tree = make_hbsp1_cluster(config.r);
    const int root = tree.coordinator_pid(tree.root());
    const auto crossover =
        analysis::broadcast_crossover_n(tree, tree.root(), root, 1 << 24);
    table.add_row(
        {config.name,
         util::Table::num(static_cast<long long>(config.r.size() - 1)),
         util::Table::num(*std::max_element(config.r.begin(), config.r.end()), 1),
         crossover ? std::to_string(*crossover) : "never (one-phase wins)"});
  }
  table.print();
  std::puts(
      "With r_s >= m-1 the slowest receiver pays r_s*n in either algorithm,\n"
      "so the extra barrier makes two-phase strictly worse at every n.");
}

void hbsp2_top_phase() {
  util::Table table{
      "HBSP^2 broadcast on the Figure 1 machine: top-level strategy"};
  table.set_header({"n (KB)", "one-phase top", "two-phase top", "winner",
                    "simulated one", "simulated two"});
  const MachineTree tree = make_figure1_cluster();
  for (const std::size_t kb : {1u, 10u, 100u, 1000u}) {
    const std::size_t n = util::ints_in_kbytes(kb);
    const double one = analysis::hbsp2_broadcast(tree, n, TopPhase::kOnePhase).total();
    const double two = analysis::hbsp2_broadcast(tree, n, TopPhase::kTwoPhase).total();
    const double sim_one = exp::simulate_makespan(
        tree,
        coll::plan_broadcast(tree, n,
                             {.root_pid = -1,
                              .top_phase = TopPhase::kOnePhase,
                              .shares = analysis::Shares::kEqual}),
        sim::SimParams{});
    const double sim_two = exp::simulate_makespan(
        tree,
        coll::plan_broadcast(tree, n,
                             {.root_pid = -1,
                              .top_phase = TopPhase::kTwoPhase,
                              .shares = analysis::Shares::kEqual}),
        sim::SimParams{});
    table.add_row({std::to_string(kb), util::format_time(one),
                   util::format_time(two), two <= one ? "two-phase" : "one-phase",
                   util::format_time(sim_one), util::format_time(sim_two)});
  }
  table.print();
  const auto crossover = analysis::hbsp2_broadcast_crossover_n(tree, 1 << 24);
  if (crossover) {
    double r1s = 0.0;  // slowest level-1 coordinator (the paper's r_{1,s})
    for (int j = 0; j < tree.num_children(tree.root()); ++j) {
      r1s = std::max(r1s, tree.r(tree.child(tree.root(), j)));
    }
    std::printf(
        "Two-phase top overtakes at n = %zu items; the paper's regime split\n"
        "r_{1,s} (=%.1f) vs m_{2,0} (=%d) picks the dominating term.\n",
        *crossover, r1s, tree.num_children(tree.root()));
  }
}

}  // namespace

int run(hbsp::util::Cli& cli) {
  cli.validate();
  hbsp1_phase_comparison();
  slow_receiver_regime();
  hbsp2_top_phase();
  return 0;
}

int main(int argc, char** argv) {
  return hbsp::util::run_main(argc, argv, run);
}
