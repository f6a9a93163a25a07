#include "apps/sample_sort.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "collectives/executors.hpp"

namespace hbsp::apps {
namespace {

void charge_sort(rt::Hbsp& ctx, std::size_t count) {
  if (count > 0) {
    ctx.charge_compute(static_cast<double>(count) *
                       std::log2(static_cast<double>(count) + 1));
  }
}

/// Merges the consecutive sorted runs of `values` delimited by `bounds`
/// (front 0, back values.size()) pairwise, one tree level per pass,
/// alternating between `values` and one scratch buffer.
void merge_runs(std::vector<std::int32_t>& values,
                std::vector<std::size_t> bounds) {
  if (bounds.size() <= 2) return;
  std::vector<std::int32_t> scratch(values.size());
  while (bounds.size() > 2) {
    const std::int32_t* from = values.data();
    std::int32_t* to = scratch.data();
    std::vector<std::size_t> next{0};
    std::size_t r = 0;
    for (; r + 2 < bounds.size(); r += 2) {
      std::merge(from + bounds[r], from + bounds[r + 1], from + bounds[r + 1],
                 from + bounds[r + 2], to + bounds[r]);
      next.push_back(bounds[r + 2]);
    }
    if (r + 1 < bounds.size()) {  // odd run out: carried to the next level
      std::copy(from + bounds[r], from + bounds[r + 1], to + bounds[r]);
      next.push_back(bounds[r + 1]);
    }
    values.swap(scratch);
    bounds = std::move(next);
  }
}

}  // namespace

std::vector<std::int32_t> sample_sort_spmd(rt::Hbsp& ctx,
                                           std::span<const std::int32_t> input,
                                           std::size_t n, coll::Shares shares) {
  const int root = ctx.fastest_pid();
  const auto p = static_cast<std::size_t>(ctx.nprocs());

  // 1. Scatter the unsorted input in planned shares.
  std::vector<std::int32_t> mine = coll::scatter<std::int32_t>(
      ctx,
      ctx.pid() == root ? input : std::span<const std::int32_t>{},
      n, {.root_pid = root, .shares = shares});

  // 2. Local sort.
  std::sort(mine.begin(), mine.end());
  charge_sort(ctx, mine.size());

  // 3. Every processor contributes p−1 splitter candidates; gather them to
  //    the root, which picks the splitters and broadcasts them back (works
  //    on hierarchical machines too, where a flat allgather would not).
  std::vector<std::int32_t> candidates;
  for (std::size_t k = 1; k < p; ++k) {
    candidates.push_back(mine.empty() ? 0 : mine[k * mine.size() / p]);
  }
  const std::size_t sample_total = (p - 1) * p;
  const auto all_candidates = coll::gather<std::int32_t>(
      ctx, candidates, sample_total,
      {.root_pid = root, .shares = coll::Shares::kEqual});

  std::vector<std::int32_t> splitters;
  if (ctx.pid() == root) {
    auto sorted = *all_candidates;
    std::sort(sorted.begin(), sorted.end());
    charge_sort(ctx, sorted.size());
    // Speed-weighted splitters: bucket j's quantile width tracks c_j so fast
    // machines own wide buckets (falls back to equal-width for kEqual).
    const auto quota = ctx.balanced_shares(sample_total);
    std::size_t cursor = 0;
    for (std::size_t j = 0; j + 1 < p; ++j) {
      cursor +=
          shares == coll::Shares::kBalanced ? quota[j] : sample_total / p;
      splitters.push_back(sorted[std::min(cursor, sorted.size() - 1)]);
    }
  }
  splitters = coll::broadcast<std::int32_t>(
      ctx, splitters, p - 1,
      {.root_pid = root, .top_phase = coll::TopPhase::kTwoPhase,
       .shares = coll::Shares::kEqual});

  // 4. Route items to their bucket owners (per-pair sizes are data
  //    dependent, so this superstep uses the runtime directly). A value v
  //    belongs to bucket upper_bound(splitters, v), so in the sorted `mine`
  //    bucket j is the slice [lower_bound(s[j-1]), lower_bound(s[j])).
  std::vector<std::size_t> cuts{0};
  for (const std::int32_t splitter : splitters) {
    const auto from = mine.begin() + static_cast<std::ptrdiff_t>(cuts.back());
    cuts.push_back(static_cast<std::size_t>(
        std::lower_bound(from, mine.end(), splitter) - mine.begin()));
  }
  cuts.push_back(mine.size());
  const auto slice = [&](std::size_t j) {
    return std::span<const std::int32_t>{mine}.subspan(cuts[j],
                                                        cuts[j + 1] - cuts[j]);
  };
  const auto self = static_cast<std::size_t>(ctx.pid());
  for (std::size_t dst = 0; dst < p; ++dst) {
    if (dst == self || slice(dst).empty()) continue;
    ctx.send_items<std::int32_t>(static_cast<int>(dst), slice(dst));
  }
  ctx.sync();

  // The bucket is p sorted runs: our own slice, then one per sender.
  const std::vector<rt::Message> received = ctx.recv_all();
  std::size_t bucket_size = slice(self).size();
  for (const auto& message : received) {
    bucket_size += message.payload.size() / sizeof(std::int32_t);
  }
  std::vector<std::int32_t> bucket;
  bucket.reserve(bucket_size);
  bucket.assign(slice(self).begin(), slice(self).end());
  mine = {};
  std::vector<std::size_t> runs{0, bucket.size()};
  for (const auto& message : received) {
    message.append_to(bucket);
    runs.push_back(bucket.size());
  }

  // 5. Merge the runs. The charge stays the model's sort cost.
  merge_runs(bucket, std::move(runs));
  charge_sort(ctx, bucket.size());

  // 6. Final gather: buckets are data-sized, one superstep to the root,
  //    which lays them out in pid order (bucket j is owned by pid j).
  if (ctx.pid() != root && !bucket.empty()) {
    ctx.send_items<std::int32_t>(root, bucket);
  }
  ctx.sync();
  if (ctx.pid() != root) return {};
  std::vector<std::int32_t> result;
  result.reserve(n);
  bool own_placed = false;
  for (const auto& message : ctx.recv_all()) {
    if (!own_placed && message.src_pid > root) {
      result.insert(result.end(), bucket.begin(), bucket.end());
      own_placed = true;
    }
    message.append_to(result);
  }
  if (!own_placed) result.insert(result.end(), bucket.begin(), bucket.end());
  return result;
}

bool is_sorted_permutation(std::span<const std::int32_t> input,
                           std::span<const std::int32_t> sorted) {
  const std::size_t n = input.size();
  if (sorted.size() != n || !std::is_sorted(sorted.begin(), sorted.end())) {
    return false;
  }
  // LSD radix sort of the input (four stable 8-bit passes over sign-flipped
  // keys, so unsigned order is int32 order), then an element-wise compare.
  constexpr std::uint32_t kSignBit = 0x80000000u;
  std::vector<std::uint32_t> keys(n);
  std::vector<std::uint32_t> scratch(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<std::uint32_t>(input[i]) ^ kSignBit;
  }
  for (unsigned shift = 0; shift < 32; shift += 8) {
    std::array<std::size_t, 256> offset{};
    for (const std::uint32_t key : keys) ++offset[(key >> shift) & 0xFFu];
    std::size_t total = 0;
    for (std::size_t& slot : offset) total += std::exchange(slot, total);
    for (const std::uint32_t key : keys) {
      scratch[offset[(key >> shift) & 0xFFu]++] = key;
    }
    keys.swap(scratch);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] != (static_cast<std::uint32_t>(sorted[i]) ^ kSignBit)) {
      return false;
    }
  }
  return true;
}

SortRun run_sample_sort(const MachineTree& machine,
                        std::span<const std::int32_t> input,
                        coll::Shares shares, const sim::SimParams& params) {
  SortRun run;
  const rt::Program program = [&](rt::Hbsp& ctx) {
    auto sorted = sample_sort_spmd(ctx, input, input.size(), shares);
    if (ctx.pid() == ctx.fastest_pid()) {
      run.sorted = std::move(sorted);
      run.virtual_seconds = ctx.time();
    }
  };
  (void)rt::run_program(machine, params, program);

  run.valid = is_sorted_permutation(input, run.sorted);
  return run;
}

}  // namespace hbsp::apps
