#pragma once
// Collective-communication planners (§4).
//
// A planner turns (machine, n, options) into a CommSchedule following the
// paper's two design rules: the fastest machines coordinate, and machines
// receive data in proportion to their abilities. The schedules are priced by
// CostModel (matching the closed forms in core/analysis exactly) and executed
// either by the cluster simulator directly or, with real data, by the SPMD
// executors in executors.hpp, which run the very schedule planned here. The
// planners are the only code that knows which slice of the data a transfer
// carries: the detail:: entry points below report it beside the schedule.
//
// gather, broadcast and scatter generalise to any k by recursing over the
// machine tree (the paper gives k <= 2 and notes "one can generalize the
// approach given here"); the remaining collectives ([20]) are single-cluster
// (HBSP^1) algorithms.

#include <cstddef>
#include <vector>

#include "core/analysis.hpp"
#include "core/machine.hpp"
#include "core/schedule.hpp"

namespace hbsp::coll {

using analysis::Shares;
using analysis::TopPhase;

/// Options shared by the rooted collectives. root_pid < 0 selects the
/// machine's coordinator (its fastest processor), the paper's default.
struct RootedOptions {
  int root_pid = -1;
  Shares shares = Shares::kBalanced;
};

/// Options for broadcast: the top-level strategy is one- or two-phase
/// (§4.4); lower levels always run the two-phase algorithm. `shares` controls
/// the two-phase scatter split (§5.3: the analysis also holds for c_j·n).
struct BroadcastOptions {
  int root_pid = -1;
  TopPhase top_phase = TopPhase::kTwoPhase;
  Shares shares = Shares::kEqual;
};

/// Per-processor shares of n items under a policy, computed by recursive
/// member_shares splits from the root down (so any cluster's aggregate share
/// equals its member share at the parent). Indexed by pid; sums to n.
[[nodiscard]] std::vector<std::size_t> leaf_shares(const MachineTree& tree,
                                                   std::size_t n, Shares shares);

/// Where a cluster's gathered/broadcast data lives: `root_pid` when it is
/// inside the cluster, otherwise the cluster's coordinator.
[[nodiscard]] int cluster_target(const MachineTree& tree, MachineId cluster,
                                 int root_pid);

/// Gather n items (distributed per `shares`) to the root processor. One
/// phase per tree level, bottom-up; clusters gather concurrently (§4.2/4.3).
[[nodiscard]] CommSchedule plan_gather(const MachineTree& tree, std::size_t n,
                                       const RootedOptions& options = {});

/// Broadcast n items from the root processor to every processor. Top-level
/// one- or two-phase super^k-step(s), then two-phase within every cluster,
/// top-down (§4.4).
[[nodiscard]] CommSchedule plan_broadcast(const MachineTree& tree, std::size_t n,
                                          const BroadcastOptions& options = {});

/// Scatter n items from the root processor: each processor ends with its
/// share (mirror of gather, top-down).
[[nodiscard]] CommSchedule plan_scatter(const MachineTree& tree, std::size_t n,
                                        const RootedOptions& options = {});

/// HBSP^1 all-gather (total exchange of shares) within a flat machine.
[[nodiscard]] CommSchedule plan_allgather(const MachineTree& tree, std::size_t n,
                                          Shares shares = Shares::kBalanced);


/// HBSP^k all-gather: a gather to the machine's coordinator followed by a
/// broadcast back out (the standard hierarchical composition — a flat total
/// exchange would flood the upper networks with p·(p−1) messages, this sends
/// one stream up and one down per cluster). `shares` governs the gather
/// split; the broadcast runs two-phase with equal pieces.
[[nodiscard]] CommSchedule plan_allgather_tree(const MachineTree& tree,
                                               std::size_t n,
                                               Shares shares = Shares::kBalanced);

/// HBSP^1 reduction to the root: local combine, 1-item partials to the root,
/// root combine.
[[nodiscard]] CommSchedule plan_reduce(const MachineTree& tree, std::size_t n,
                                       const RootedOptions& options = {});

/// HBSP^k reduction: local combines, then 1-item partials flow up the tree
/// one level per phase (each cluster combining concurrently under its own
/// barrier), ending with the root target's final combine. On a flat machine
/// this degenerates to plan_reduce's two supersteps. A processor's local
/// combine is charged in the first phase its cluster participates in; a
/// coordinator's combine of its cluster's partials is charged in the next
/// phase up (it can only fold what the barrier delivered).
[[nodiscard]] CommSchedule plan_reduce_tree(const MachineTree& tree,
                                            std::size_t n,
                                            const RootedOptions& options = {});

/// HBSP^1 scan (prefix sums): local prefix, partials to the coordinator,
/// offsets back, local apply.
[[nodiscard]] CommSchedule plan_scan(const MachineTree& tree, std::size_t n,
                                     Shares shares = Shares::kBalanced);

/// HBSP^1 all-to-all personalised exchange: each processor splits its share
/// into m blocks and sends block i to member i.
[[nodiscard]] CommSchedule plan_alltoall(const MachineTree& tree, std::size_t n,
                                         Shares shares = Shares::kBalanced);

namespace detail {
/// Throws std::invalid_argument unless the tree is flat (every child of the
/// root is a processor) — the HBSP^1 shape the single-cluster planners need.
void require_flat(const MachineTree& tree, const char* who);

/// `root_pid`, or the machine's coordinator when it is negative; throws
/// std::invalid_argument for a pid the machine does not have.
[[nodiscard]] int resolve_root(const MachineTree& tree, int root_pid);

/// Where each processor's share of n items starts in the global pid-ordered
/// sequence: prefix sums of leaf_shares, p + 1 entries.
[[nodiscard]] std::vector<std::size_t> share_offsets(const MachineTree& tree,
                                                     std::size_t n,
                                                     Shares shares);

// The planners behind plan_gather, plan_scatter, plan_broadcast,
// plan_allgather and plan_alltoall. Each also appends to `firsts`, when it
// is non-null, the global offset (per share_offsets; for broadcast, into the
// broadcast array) of the first item each transfer carries, in schedule
// order: phase by phase, plan by plan. The executors run the schedule and
// route data by these offsets; they stay beside the schedule, never in it,
// so cached schedules keep Transfer at 16 bytes.
using Firsts = std::vector<std::size_t>;

/// plan_gather's schedule when `gather`, else plan_scatter's (its mirror).
[[nodiscard]] CommSchedule rooted_schedule(const MachineTree& tree,
                                           std::size_t n,
                                           const RootedOptions& options,
                                           bool gather, Firsts* firsts);
[[nodiscard]] CommSchedule broadcast_schedule(const MachineTree& tree,
                                              std::size_t n,
                                              const BroadcastOptions& options,
                                              Firsts* firsts);
[[nodiscard]] CommSchedule allgather_schedule(const MachineTree& tree,
                                              std::size_t n, Shares shares,
                                              Firsts* firsts);
[[nodiscard]] CommSchedule alltoall_schedule(const MachineTree& tree,
                                             std::size_t n, Shares shares,
                                             Firsts* firsts);
}  // namespace detail

}  // namespace hbsp::coll
