// E14 (extension): the paper's future-work applications, evaluated with the
// §5 methodology. For sample sort, histogram and matrix–vector multiply,
// reports the balanced-over-equal improvement factor T_u/T_b across p — the
// end-to-end payoff of the model's design rules on real algorithms, beyond
// single collectives.

#include <cstdio>

#include "apps/histogram.hpp"
#include "apps/matvec.hpp"
#include "apps/sample_sort.hpp"
#include "core/topology.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace hbsp;

double sort_factor(int p, std::size_t n) {
  const MachineTree machine = make_paper_testbed(p);
  const auto input = util::uniform_int_workload(n, 2024);
  const auto balanced =
      apps::run_sample_sort(machine, input, coll::Shares::kBalanced);
  const auto equal = apps::run_sample_sort(machine, input, coll::Shares::kEqual);
  if (!balanced.valid || !equal.valid) return -1.0;
  return equal.virtual_seconds / balanced.virtual_seconds;
}

double histogram_factor(int p, std::size_t n) {
  const MachineTree machine = make_paper_testbed(p);
  util::Rng rng{2025};
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) samples.push_back(rng.uniform01());
  const apps::HistogramSpec spec{.bins = 128, .lo = 0.0, .hi = 1.0};
  const auto balanced =
      apps::run_histogram(machine, samples, spec, coll::Shares::kBalanced);
  const auto equal =
      apps::run_histogram(machine, samples, spec, coll::Shares::kEqual);
  if (!balanced.valid || !equal.valid) return -1.0;
  return equal.virtual_seconds / balanced.virtual_seconds;
}

double matvec_factor(int p, std::size_t order) {
  const MachineTree machine = make_paper_testbed(p);
  apps::DenseMatrix a;
  a.rows = order;
  a.cols = order;
  a.values.assign(order * order, 0.5);
  const std::vector<double> x(order, 2.0);
  const auto balanced =
      apps::run_matvec(machine, a, x, coll::Shares::kBalanced);
  const auto equal = apps::run_matvec(machine, a, x, coll::Shares::kEqual);
  if (!balanced.valid || !equal.valid) return -1.0;
  return equal.virtual_seconds / balanced.virtual_seconds;
}

}  // namespace

int run(hbsp::util::Cli& cli) {
  cli.validate();
  util::Table table{
      "HBSP^k applications: balanced-over-equal improvement factor T_u/T_b"};
  table.set_header({"p", "sample sort (100 KB)", "histogram (400 KB)",
                    "matvec (300x300)"});
  for (const int p : {2, 4, 6, 8, 10}) {
    table.add_row({std::to_string(p),
                   util::Table::num(sort_factor(p, 25000), 3),
                   util::Table::num(histogram_factor(p, 50000), 3),
                   util::Table::num(matvec_factor(p, 300), 3)});
  }
  table.print();
  std::puts(
      "\nCompute-heavy phases (sorting, binning, dot products) are where the\n"
      "model's balanced workloads pay: the slowest machine stops being the\n"
      "straggler. Communication-bound phases cap the gain, as SS4 predicts.");
  return 0;
}

int main(int argc, char** argv) {
  return hbsp::util::run_main(argc, argv, run);
}
