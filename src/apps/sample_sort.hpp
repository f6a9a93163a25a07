#pragma once
// Heterogeneous parallel sample sort — the flagship HBSP^k application
// (paper §6: "designing HBSP^k applications that can take advantage of our
// efficient heterogeneous communication algorithms").
//
// Pipeline: scatter (shares ∝ 1/r) → local sort → splitter gather and
// broadcast → routing of sorted slices with *speed-weighted bucket widths* →
// merge of the p sorted runs each bucket arrives as → gather. The merge is
// charged as a sort of the bucket, the cost the paper's model assigns to
// this step. With Shares::kEqual the same code degenerates to textbook BSP
// sample sort, which is the baseline the benchmarks compare against.

#include <cstdint>
#include <span>
#include <vector>

#include "collectives/planners.hpp"
#include "core/machine.hpp"
#include "runtime/hbsplib.hpp"
#include "sim/sim_params.hpp"

namespace hbsp::apps {

/// SPMD body: every processor calls this with the same `input` view (only
/// the root's is read) and receives nothing or the sorted data:
/// returns the fully sorted sequence at the fastest processor, empty
/// elsewhere. Charges sorting work to the virtual clock.
[[nodiscard]] std::vector<std::int32_t> sample_sort_spmd(
    rt::Hbsp& ctx, std::span<const std::int32_t> input, std::size_t n,
    coll::Shares shares);

/// Outcome of a driver run.
struct SortRun {
  std::vector<std::int32_t> sorted;  ///< the root's output
  double virtual_seconds = 0.0;      ///< completion time at the root
  bool valid = false;                ///< sorted, complete permutation
};

/// True when `sorted` is ascending and holds exactly the multiset of
/// `input`. Checked against an LSD radix sort of `input`, a kernel the sort
/// itself never uses, so the check stays independent of the code it checks.
[[nodiscard]] bool is_sorted_permutation(std::span<const std::int32_t> input,
                                         std::span<const std::int32_t> sorted);

/// Convenience driver: runs the SPMD program on `machine` over the
/// virtual-time engine and validates the result.
[[nodiscard]] SortRun run_sample_sort(const MachineTree& machine,
                                      std::span<const std::int32_t> input,
                                      coll::Shares shares,
                                      const sim::SimParams& params = {});

}  // namespace hbsp::apps
