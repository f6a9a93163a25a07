// Tests for the HBSP^k applications: correctness against serial references,
// the balanced-workload advantage, and robustness on odd shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "apps/histogram.hpp"
#include "apps/matvec.hpp"
#include "apps/sample_sort.hpp"
#include "core/topology.hpp"
#include "util/rng.hpp"

namespace hbsp::apps {
namespace {

// --- sample sort ---------------------------------------------------------------

class SampleSortCase
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(SampleSortCase, SortsCorrectly) {
  const auto [p, n] = GetParam();
  const MachineTree machine = make_paper_testbed(p);
  const auto input = util::uniform_int_workload(n, 42 + n);
  const SortRun run =
      run_sample_sort(machine, input, coll::Shares::kBalanced);
  EXPECT_TRUE(run.valid);
  EXPECT_GT(run.virtual_seconds, 0.0);
  std::vector<std::int32_t> reference = input;
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(run.sorted, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SampleSortCase,
    ::testing::Combine(::testing::Values(2, 5, 10),
                       ::testing::Values<std::size_t>(0, 1, 13, 5000)),
    [](const auto& param_info) {
      return "p" + std::to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(SampleSort, HandlesDuplicateHeavyInput) {
  const MachineTree machine = make_paper_testbed(6);
  std::vector<std::int32_t> input(4000, 7);
  for (std::size_t i = 0; i < input.size(); i += 3) {
    input[i] = static_cast<std::int32_t>(i % 5);
  }
  EXPECT_TRUE(run_sample_sort(machine, input, coll::Shares::kBalanced).valid);
}

TEST(SampleSort, BalancedBeatsEqualOnVirtualTime) {
  const MachineTree machine = make_paper_testbed(8);
  const auto input = util::uniform_int_workload(40000, 9);
  const SortRun balanced =
      run_sample_sort(machine, input, coll::Shares::kBalanced);
  const SortRun equal = run_sample_sort(machine, input, coll::Shares::kEqual);
  ASSERT_TRUE(balanced.valid);
  ASSERT_TRUE(equal.valid);
  EXPECT_LT(balanced.virtual_seconds, equal.virtual_seconds);
}

TEST(SampleSort, WorksOnHierarchicalMachines) {
  const MachineTree machine = make_figure1_cluster();
  const auto input = util::uniform_int_workload(3000, 17);
  EXPECT_TRUE(run_sample_sort(machine, input, coll::Shares::kBalanced).valid);
}

// --- sort validator ----------------------------------------------------------

std::vector<std::int32_t> sorted_copy(std::vector<std::int32_t> values) {
  std::sort(values.begin(), values.end());
  return values;
}

TEST(IsSortedPermutation, RejectsOrderPreservingValueChange) {
  const auto input = util::uniform_int_workload(1000, 3);
  auto sorted = sorted_copy(input);
  ASSERT_LT(sorted[500] + 1, sorted[501]);
  ++sorted[500];  // still ascending, no longer the input's multiset
  ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_FALSE(is_sorted_permutation(input, sorted));
}

TEST(IsSortedPermutation, RejectsDroppedValueReplacedByDuplicate) {
  const auto input = util::uniform_int_workload(1000, 4);
  auto sorted = sorted_copy(input);
  ASSERT_NE(sorted[700], sorted[701]);
  sorted[701] = sorted[700];  // same size, still sorted, one value lost
  EXPECT_FALSE(is_sorted_permutation(input, sorted));
}

TEST(IsSortedPermutation, RejectsAdjacentSwapAndSizeMismatch) {
  const auto input = util::uniform_int_workload(1000, 5);
  auto sorted = sorted_copy(input);
  EXPECT_TRUE(is_sorted_permutation(input, sorted));
  ASSERT_NE(sorted[10], sorted[11]);
  std::swap(sorted[10], sorted[11]);
  EXPECT_FALSE(is_sorted_permutation(input, sorted));
  std::swap(sorted[10], sorted[11]);
  sorted.pop_back();
  EXPECT_FALSE(is_sorted_permutation(input, sorted));
  EXPECT_FALSE(is_sorted_permutation(sorted, input));
}

TEST(IsSortedPermutation, AcceptsExtremesNegativesAndDegenerateSizes) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const std::vector<std::vector<std::int32_t>> inputs{
      {},
      {kMin},
      {kMax},
      {kMax, -1, 0, kMin, 1, kMin, kMax, -2147483647, 2147483646},
      {-5, -300, -70000, -1, -5},
      std::vector<std::int32_t>(257, -9),
  };
  for (const auto& input : inputs) {
    EXPECT_TRUE(is_sorted_permutation(input, sorted_copy(input)));
  }
  // Extremes swapped for their neighbours keep the order, not the multiset.
  EXPECT_FALSE(is_sorted_permutation(std::vector<std::int32_t>{kMin, kMax},
                                     std::vector<std::int32_t>{kMin, kMin}));
  EXPECT_FALSE(is_sorted_permutation(std::vector<std::int32_t>{kMin},
                                     std::vector<std::int32_t>{kMin + 1}));
  EXPECT_FALSE(is_sorted_permutation(std::vector<std::int32_t>{kMax},
                                     std::vector<std::int32_t>{-1}));
}

TEST(IsSortedPermutation, AgreesWithSortAndCompareOnRandomInputs) {
  util::Rng rng{2024};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto n = static_cast<std::size_t>(rng.uniform_i64(0, 300));
    // Narrow ranges make duplicates common; wide ones span the sign bit.
    const std::int64_t span = seed % 2 == 0 ? 8 : std::int64_t{1} << 31;
    std::vector<std::int32_t> input(n);
    for (auto& value : input) {
      value = static_cast<std::int32_t>(rng.uniform_i64(-span, span - 1));
    }
    auto candidate = sorted_copy(input);
    if (!candidate.empty() && seed % 3 != 0) {
      // Perturb one position; sometimes that still leaves the same multiset.
      const auto i = static_cast<std::size_t>(
          rng.uniform_i64(0, static_cast<std::int64_t>(n) - 1));
      candidate[i] =
          static_cast<std::int32_t>(rng.uniform_i64(-span, span - 1));
    }
    const bool expected =
        std::is_sorted(candidate.begin(), candidate.end()) &&
        sorted_copy(candidate) == sorted_copy(input);
    EXPECT_EQ(is_sorted_permutation(input, candidate), expected)
        << "seed " << seed;
  }
}

// --- histogram -------------------------------------------------------------------

TEST(Histogram, MatchesSerialReference) {
  const MachineTree machine = make_paper_testbed(7);
  util::Rng rng{5};
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) samples.push_back(rng.uniform(0.0, 1.0));
  const HistogramSpec spec{.bins = 32, .lo = 0.0, .hi = 1.0};
  const HistogramRun run =
      run_histogram(machine, samples, spec, coll::Shares::kBalanced);
  ASSERT_TRUE(run.valid);
  EXPECT_EQ(run.counts, histogram_serial(samples, spec));
}

TEST(Histogram, ClampsOutOfRangeSamples) {
  const MachineTree machine = make_paper_testbed(3);
  const std::vector<double> samples{-5.0, 0.5, 99.0, 0.25, 1.0};
  const HistogramSpec spec{.bins = 4, .lo = 0.0, .hi = 1.0};
  const HistogramRun run =
      run_histogram(machine, samples, spec, coll::Shares::kEqual);
  ASSERT_TRUE(run.valid);
  EXPECT_EQ(run.counts, histogram_serial(samples, spec));
  EXPECT_EQ(run.counts[0], 1u);  // -5 clamps low
  EXPECT_EQ(run.counts[3], 2u);  // 99 and 1.0 clamp high
}

TEST(Histogram, EmptyInput) {
  const MachineTree machine = make_paper_testbed(4);
  const HistogramSpec spec{.bins = 8, .lo = 0.0, .hi = 1.0};
  const HistogramRun run =
      run_histogram(machine, {}, spec, coll::Shares::kBalanced);
  ASSERT_TRUE(run.valid);
  for (const auto count : run.counts) EXPECT_EQ(count, 0u);
}

TEST(Histogram, BalancedBeatsEqual) {
  const MachineTree machine = make_paper_testbed(9);
  util::Rng rng{11};
  std::vector<double> samples;
  for (int i = 0; i < 100000; ++i) samples.push_back(rng.uniform01());
  const HistogramSpec spec{.bins = 64, .lo = 0.0, .hi = 1.0};
  const double balanced =
      run_histogram(machine, samples, spec, coll::Shares::kBalanced)
          .virtual_seconds;
  const double equal =
      run_histogram(machine, samples, spec, coll::Shares::kEqual)
          .virtual_seconds;
  EXPECT_LT(balanced, equal);
}

// --- matvec ----------------------------------------------------------------------

DenseMatrix random_matrix(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
  DenseMatrix a;
  a.rows = rows;
  a.cols = cols;
  a.values.resize(rows * cols);
  util::Rng rng{seed};
  for (auto& value : a.values) value = rng.uniform(-1.0, 1.0);
  return a;
}

TEST(Matvec, MatchesSerialReference) {
  const MachineTree machine = make_paper_testbed(6);
  const DenseMatrix a = random_matrix(120, 80, 3);
  std::vector<double> x(80);
  util::Rng rng{4};
  for (auto& value : x) value = rng.uniform(-2.0, 2.0);
  const MatvecRun run = run_matvec(machine, a, x, coll::Shares::kBalanced);
  EXPECT_TRUE(run.valid);
}

TEST(Matvec, FewerRowsThanProcessors) {
  const MachineTree machine = make_paper_testbed(10);
  const DenseMatrix a = random_matrix(3, 16, 7);
  std::vector<double> x(16, 1.0);
  const MatvecRun run = run_matvec(machine, a, x, coll::Shares::kEqual);
  EXPECT_TRUE(run.valid);
}

TEST(Matvec, EmptyMatrix) {
  const MachineTree machine = make_paper_testbed(3);
  DenseMatrix a;
  a.rows = 0;
  a.cols = 8;
  std::vector<double> x(8, 1.0);
  const MatvecRun run = run_matvec(machine, a, x, coll::Shares::kBalanced);
  EXPECT_TRUE(run.valid);
  EXPECT_TRUE(run.y.empty());
}

TEST(Matvec, ShapeMismatchThrows) {
  EXPECT_THROW((void)matvec_serial(random_matrix(4, 4, 1),
                                   std::vector<double>(3, 1.0)),
               std::invalid_argument);
}

TEST(Matvec, BalancedBeatsEqualWhenComputeDominates) {
  const MachineTree machine = make_paper_testbed(8);
  const DenseMatrix a = random_matrix(400, 200, 13);
  std::vector<double> x(200, 0.5);
  const double balanced =
      run_matvec(machine, a, x, coll::Shares::kBalanced).virtual_seconds;
  const double equal =
      run_matvec(machine, a, x, coll::Shares::kEqual).virtual_seconds;
  EXPECT_LT(balanced, equal);
}

TEST(Matvec, WorksOnHierarchicalMachines) {
  const MachineTree machine = make_figure1_cluster();
  const DenseMatrix a = random_matrix(90, 40, 21);
  std::vector<double> x(40, 1.0);
  EXPECT_TRUE(run_matvec(machine, a, x, coll::Shares::kBalanced).valid);
}

}  // namespace
}  // namespace hbsp::apps
