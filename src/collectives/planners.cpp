#include "collectives/planners.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "core/workload.hpp"
#include "obs/metrics.hpp"

namespace hbsp::coll {
namespace {

using NodeShares = std::vector<std::vector<std::size_t>>;  // [level][index]
using detail::Firsts;

/// Counts one planner invocation in the `coll.*` metric family (composed
/// planners like allgather-tree also count their nested gather/broadcast,
/// and an SPMD collective plans on each of its p processors — plans_built
/// tallies planner calls, not emitted schedules).
void note_plan(const std::string& kind) {
  auto& registry = obs::Registry::global();
  registry.counter("coll.plans_built").increment();
  registry.counter("coll.plan." + kind).increment();
}

template <typename PerNode>  // NodeShares, const or not
auto& share_of(PerNode& shares, MachineId id) {
  return shares[static_cast<std::size_t>(id.level)]
               [static_cast<std::size_t>(id.index)];
}

/// Per-node shares of n items, computed by recursive member_shares splits
/// from the root down.
NodeShares node_shares(const MachineTree& tree, std::size_t n, Shares shares) {
  NodeShares result;
  for (int level = 0; level < tree.num_levels(); ++level) {
    result.emplace_back(static_cast<std::size_t>(tree.machines_at(level)), 0);
  }
  share_of(result, tree.root()) = n;
  for (int level = tree.height(); level >= 1; --level) {
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId id{level, j};
      if (tree.is_processor(id)) continue;
      const auto split =
          analysis::member_shares(tree, id, share_of(result, id), shares);
      for (int child = 0; child < tree.num_children(id); ++child) {
        share_of(result, tree.child(id, child)) =
            split[static_cast<std::size_t>(child)];
      }
    }
  }
  return result;
}

/// Prefix sums of the processors' shares in pid order (p + 1 entries).
std::vector<std::size_t> pid_offsets(const MachineTree& tree,
                                     const NodeShares& shares) {
  std::vector<std::size_t> offsets{0};
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    offsets.push_back(offsets.back() + share_of(shares, tree.processor(pid)));
  }
  return offsets;
}

/// Appends a plan synchronising `scope` to `phase`.
SuperstepPlan& add_plan(Phase& phase, const std::string& label, int level,
                        MachineId scope) {
  SuperstepPlan& plan = phase.plans.emplace_back();
  plan.label = label + " L" + std::to_string(level);
  plan.level = level;
  plan.sync_scope = scope;
  return plan;
}

/// Appends `transfer` to `plan` and, when the caller asked for them, the
/// global offset of the first item it carries to `firsts`.
void add_transfer(SuperstepPlan& plan, Firsts* firsts, Transfer transfer,
                  std::size_t first) {
  plan.transfers.push_back(transfer);
  if (firsts != nullptr) firsts->push_back(first);
}

/// Data location of node `id` for a rooted collective: the processor itself,
/// or the cluster's target.
int data_site(const MachineTree& tree, MachineId id, int root_pid) {
  if (tree.is_processor(id)) return tree.node(id).pid;
  return cluster_target(tree, id, root_pid);
}

}  // namespace

std::vector<std::size_t> leaf_shares(const MachineTree& tree, std::size_t n,
                                     Shares shares) {
  const auto offsets = detail::share_offsets(tree, n, shares);
  std::vector<std::size_t> result(offsets.size() - 1);
  std::adjacent_difference(offsets.begin() + 1, offsets.end(), result.begin());
  return result;
}

int cluster_target(const MachineTree& tree, MachineId cluster, int root_pid) {
  if (root_pid >= 0) {
    const auto [first, last] = tree.processor_range(cluster);
    if (root_pid >= first && root_pid < last) return root_pid;
  }
  return tree.coordinator_pid(cluster);
}

namespace detail {

void require_flat(const MachineTree& tree, const char* who) {
  const MachineId root = tree.root();
  for (int j = 0; j < tree.num_children(root); ++j) {
    if (!tree.is_processor(tree.child(root, j))) {
      throw std::invalid_argument{std::string{who} +
                                  ": requires a flat (HBSP^1) machine"};
    }
  }
  if (tree.num_children(root) == 0) {
    throw std::invalid_argument{std::string{who} +
                                ": machine has a single processor"};
  }
}

int resolve_root(const MachineTree& tree, int root_pid) {
  if (root_pid < 0) return tree.coordinator_pid(tree.root());
  if (root_pid >= tree.num_processors()) {
    throw std::invalid_argument{"bad root pid " + std::to_string(root_pid)};
  }
  return root_pid;
}

std::vector<std::size_t> share_offsets(const MachineTree& tree, std::size_t n,
                                       Shares shares) {
  return pid_offsets(tree, node_shares(tree, n, shares));
}


CommSchedule rooted_schedule(const MachineTree& tree, std::size_t n,
                             const RootedOptions& options, bool gather,
                             Firsts* firsts) {
  note_plan(gather ? "gather" : "scatter");
  const int root_pid = resolve_root(tree, options.root_pid);
  const NodeShares shares = node_shares(tree, n, options.shares);
  const auto offsets = pid_offsets(tree, shares);

  CommSchedule schedule;
  schedule.name = gather ? "gather" : "scatter";
  for (int step = 1; step <= tree.height(); ++step) {
    const int level = gather ? step : tree.height() + 1 - step;
    Phase phase;
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId cluster{level, j};
      if (tree.is_processor(cluster)) continue;
      SuperstepPlan& plan = add_plan(phase, schedule.name, level, cluster);
      const int target = cluster_target(tree, cluster, root_pid);
      for (int child = 0; child < tree.num_children(cluster); ++child) {
        const MachineId cid = tree.child(cluster, child);
        const int site = data_site(tree, cid, root_pid);
        const std::size_t share = share_of(shares, cid);
        if (site == target || share == 0) continue;
        add_transfer(plan, firsts,
                     gather ? Transfer{site, target, share}
                            : Transfer{target, site, share},
                     offsets[static_cast<std::size_t>(
                         tree.processor_range(cid).first)]);
      }
    }
    if (!phase.plans.empty()) schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

CommSchedule broadcast_schedule(const MachineTree& tree, std::size_t n,
                                const BroadcastOptions& options, Firsts* firsts) {
  note_plan("broadcast");
  const int root_pid = resolve_root(tree, options.root_pid);

  CommSchedule schedule;
  schedule.name = "broadcast";
  for (int level = tree.height(); level >= 1; --level) {
    // Per cluster, one phase sending all n items to every member's data site,
    // or two: a scatter of per-member pieces, then their total exchange among
    // the sites. The exchange's offsets follow the scatter's in schedule
    // order, so they are collected apart.
    const bool one_phase =
        level == tree.height() && options.top_phase == TopPhase::kOnePhase;
    Phase scatter_phase;
    Phase exchange_phase;
    Firsts exchange_firsts;
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId cluster{level, j};
      if (tree.is_processor(cluster)) continue;
      const int src = cluster_target(tree, cluster, root_pid);
      const auto m = static_cast<std::size_t>(tree.num_children(cluster));
      const auto split =
          one_phase ? std::vector<std::size_t>(m, n)
                    : analysis::broadcast_pieces(tree, cluster, n, options.shares);
      std::vector<int> sites;
      std::vector<std::size_t> piece_first{0};
      for (std::size_t c = 0; c < m; ++c) {
        sites.push_back(
            data_site(tree, tree.child(cluster, static_cast<int>(c)), root_pid));
        piece_first.push_back(one_phase ? 0 : piece_first.back() + split[c]);
      }
      SuperstepPlan& scatter =
          add_plan(scatter_phase, one_phase ? "bcast one-phase" : "bcast scatter",
                   level, cluster);
      for (std::size_t c = 0; c < m; ++c) {
        if (sites[c] != src && (one_phase || split[c] > 0)) {
          add_transfer(scatter, firsts, {src, sites[c], split[c]},
                       piece_first[c]);
        }
      }
      if (one_phase) continue;
      SuperstepPlan& exchange =
          add_plan(exchange_phase, "bcast exchange", level, cluster);
      for (std::size_t c = 0; c < m; ++c) {
        for (std::size_t i = 0; i < m; ++i) {
          if (i == c || split[c] == 0 || sites[c] == sites[i]) continue;
          add_transfer(exchange, firsts != nullptr ? &exchange_firsts : nullptr,
                       {sites[c], sites[i], split[c]}, piece_first[c]);
        }
      }
    }
    if (scatter_phase.plans.empty()) continue;
    schedule.phases.push_back(std::move(scatter_phase));
    if (!one_phase) schedule.phases.push_back(std::move(exchange_phase));
    if (firsts != nullptr) {
      firsts->insert(firsts->end(), exchange_firsts.begin(),
                     exchange_firsts.end());
    }
  }
  return schedule;
}

CommSchedule allgather_schedule(const MachineTree& tree, std::size_t n,
                                Shares shares, Firsts* firsts) {
  note_plan("allgather");
  require_flat(tree, "plan_allgather");
  const analysis::Members members =
      analysis::cluster_members(tree, tree.root(), n, shares);
  const std::size_t m = members.pids.size();
  const auto offsets = share_offsets(tree, n, shares);

  CommSchedule schedule;
  schedule.name = "allgather";
  SuperstepPlan& plan = schedule.add_step("allgather", 1, tree.root());
  for (std::size_t j = 0; j < m; ++j) {
    if (members.shares[j] == 0) continue;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == j) continue;
      add_transfer(plan, firsts,
                   {members.pids[j], members.pids[i], members.shares[j]},
                   offsets[static_cast<std::size_t>(members.pids[j])]);
    }
  }
  return schedule;
}

CommSchedule alltoall_schedule(const MachineTree& tree, std::size_t n,
                               Shares shares, Firsts* firsts) {
  note_plan("alltoall");
  require_flat(tree, "plan_alltoall");
  const analysis::Members members =
      analysis::cluster_members(tree, tree.root(), n, shares);
  const std::size_t m = members.pids.size();
  const auto offsets = share_offsets(tree, n, shares);

  CommSchedule schedule;
  schedule.name = "alltoall";
  SuperstepPlan& plan = schedule.add_step("all-to-all", 1, tree.root());
  for (std::size_t j = 0; j < m; ++j) {
    const auto blocks = equal_partition(members.shares[j], m);
    std::size_t first = offsets[static_cast<std::size_t>(members.pids[j])];
    for (std::size_t i = 0; i < m; ++i) {
      if (i != j && blocks[i] > 0) {
        add_transfer(plan, firsts,
                     {members.pids[j], members.pids[i], blocks[i]}, first);
      }
      first += blocks[i];
    }
  }
  return schedule;
}

}  // namespace detail

CommSchedule plan_gather(const MachineTree& tree, std::size_t n,
                         const RootedOptions& options) {
  return detail::rooted_schedule(tree, n, options, true, nullptr);
}

CommSchedule plan_scatter(const MachineTree& tree, std::size_t n,
                          const RootedOptions& options) {
  return detail::rooted_schedule(tree, n, options, false, nullptr);
}

CommSchedule plan_broadcast(const MachineTree& tree, std::size_t n,
                            const BroadcastOptions& options) {
  return detail::broadcast_schedule(tree, n, options, nullptr);
}

CommSchedule plan_allgather(const MachineTree& tree, std::size_t n,
                            Shares shares) {
  return detail::allgather_schedule(tree, n, shares, nullptr);
}

CommSchedule plan_alltoall(const MachineTree& tree, std::size_t n,
                           Shares shares) {
  return detail::alltoall_schedule(tree, n, shares, nullptr);
}

CommSchedule plan_allgather_tree(const MachineTree& tree, std::size_t n,
                                 Shares shares) {
  note_plan("allgather_tree");
  if (tree.num_children(tree.root()) == 0) {
    throw std::invalid_argument{"plan_allgather_tree: single-processor machine"};
  }
  CommSchedule schedule;
  schedule.name = "allgather-tree";
  CommSchedule up = plan_gather(tree, n, {.root_pid = -1, .shares = shares});
  CommSchedule down = plan_broadcast(
      tree, n,
      {.root_pid = -1, .top_phase = TopPhase::kTwoPhase, .shares = Shares::kEqual});
  for (auto& phase : up.phases) schedule.phases.push_back(std::move(phase));
  for (auto& phase : down.phases) schedule.phases.push_back(std::move(phase));
  return schedule;
}

CommSchedule plan_reduce(const MachineTree& tree, std::size_t n,
                         const RootedOptions& options) {
  note_plan("reduce");
  detail::require_flat(tree, "plan_reduce");
  const int root_pid = detail::resolve_root(tree, options.root_pid);
  const analysis::Members members =
      analysis::cluster_members(tree, tree.root(), n, options.shares);
  const std::size_t m = members.pids.size();

  CommSchedule schedule;
  schedule.name = "reduce";
  SuperstepPlan& combine = schedule.add_step("combine + send partials", 1,
                                             tree.root());
  for (std::size_t j = 0; j < m; ++j) {
    const double ops =
        members.shares[j] > 0 ? static_cast<double>(members.shares[j]) - 1.0 : 0.0;
    if (ops > 0.0) combine.compute.push_back({members.pids[j], ops});
    if (members.pids[j] != root_pid) {
      combine.transfers.push_back({members.pids[j], root_pid, 1});
    }
  }
  SuperstepPlan& final_step = schedule.add_step("root combine", 1, tree.root());
  final_step.compute.push_back({root_pid, static_cast<double>(m) - 1.0});
  return schedule;
}

CommSchedule plan_reduce_tree(const MachineTree& tree, std::size_t n,
                              const RootedOptions& options) {
  note_plan("reduce_tree");
  const int root_pid = detail::resolve_root(tree, options.root_pid);
  if (tree.num_children(tree.root()) == 0) {
    throw std::invalid_argument{"plan_reduce_tree: single-processor machine"};
  }
  // Ops owed by each data site (by pid), charged in the next phase it takes
  // part in: initially every processor owes its local combine.
  std::vector<double> pending;
  for (const std::size_t share : leaf_shares(tree, n, options.shares)) {
    pending.push_back(share > 0 ? static_cast<double>(share) - 1.0 : 0.0);
  }

  CommSchedule schedule;
  schedule.name = "reduce-tree";
  for (int level = 1; level <= tree.height(); ++level) {
    Phase phase;
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId cluster{level, j};
      if (tree.is_processor(cluster)) continue;
      SuperstepPlan& plan = add_plan(phase, "reduce", level, cluster);
      const int target = cluster_target(tree, cluster, root_pid);
      std::size_t partials_received = 0;
      for (int child = 0; child < tree.num_children(cluster); ++child) {
        const int site = data_site(tree, tree.child(cluster, child), root_pid);
        if (double& owed = pending[static_cast<std::size_t>(site)]; owed > 0.0) {
          plan.compute.push_back({site, owed});
          owed = 0.0;
        }
        if (site != target) {
          plan.transfers.push_back({site, target, 1});
          ++partials_received;
        }
      }
      // The target folds the delivered partials next phase.
      pending[static_cast<std::size_t>(target)] +=
          static_cast<double>(partials_received);
    }
    if (!phase.plans.empty()) schedule.phases.push_back(std::move(phase));
  }

  SuperstepPlan& final_step =
      schedule.add_step("root combine", tree.height(), tree.root());
  const int root_target = cluster_target(tree, tree.root(), root_pid);
  if (const double owed = pending[static_cast<std::size_t>(root_target)];
      owed > 0.0) {
    final_step.compute.push_back({root_target, owed});
  }
  return schedule;
}

CommSchedule plan_scan(const MachineTree& tree, std::size_t n, Shares shares) {
  note_plan("scan");
  detail::require_flat(tree, "plan_scan");
  const analysis::Members members =
      analysis::cluster_members(tree, tree.root(), n, shares);
  const std::size_t m = members.pids.size();
  const int root_pid = tree.coordinator_pid(tree.root());

  CommSchedule schedule;
  schedule.name = "scan";
  SuperstepPlan& up = schedule.add_step("local prefix + partials", 1,
                                        tree.root());
  for (std::size_t j = 0; j < m; ++j) {
    if (members.shares[j] > 0) {
      up.compute.push_back({members.pids[j],
                            static_cast<double>(members.shares[j])});
    }
    if (members.pids[j] != root_pid) {
      up.transfers.push_back({members.pids[j], root_pid, 1});
    }
  }
  SuperstepPlan& down = schedule.add_step("offsets back", 1, tree.root());
  down.compute.push_back({root_pid, static_cast<double>(m)});
  for (std::size_t j = 0; j < m; ++j) {
    if (members.pids[j] != root_pid) {
      down.transfers.push_back({root_pid, members.pids[j], 1});
    }
  }
  SuperstepPlan& apply = schedule.add_step("apply offsets", 1, tree.root());
  for (std::size_t j = 0; j < m; ++j) {
    if (members.shares[j] > 0) {
      apply.compute.push_back({members.pids[j],
                               static_cast<double>(members.shares[j])});
    }
  }
  return schedule;
}

}  // namespace hbsp::coll
