#include "collectives/advisor.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

#include "collectives/plan_cache.hpp"
#include "obs/metrics.hpp"

namespace hbsp::coll {
namespace {

struct Candidate {
  std::string description;
  int root_pid = -1;
  Shares shares = Shares::kBalanced;
  TopPhase top_phase = TopPhase::kTwoPhase;
  int supersteps = 1;  ///< tie-break: simpler structures first
  std::shared_ptr<const CachedPlan> plan;
};

const char* shares_name(Shares shares) {
  return shares == Shares::kBalanced ? "balanced" : "equal";
}

std::string root_name(const MachineTree& tree, int pid) {
  const auto& name = tree.node(tree.processor(pid)).name;
  if (!name.empty()) return name;
  std::string fallback = "P";
  fallback += std::to_string(pid);
  return fallback;
}

int count_supersteps(const CommSchedule& schedule) {
  int count = 0;
  for (const auto& phase : schedule.phases) count += static_cast<int>(!phase.plans.empty());
  return count;
}

}  // namespace

const char* to_string(CollectiveKind kind) noexcept {
  switch (kind) {
    case CollectiveKind::kGather: return "gather";
    case CollectiveKind::kBroadcast: return "broadcast";
    case CollectiveKind::kScatter: return "scatter";
    case CollectiveKind::kReduce: return "reduce";
    case CollectiveKind::kAllgather: return "allgather";
    case CollectiveKind::kScan: return "scan";
    case CollectiveKind::kAlltoall: return "alltoall";
  }
  return "?";
}

PlanRequest CollectiveAdvice::request(std::size_t n) const {
  return PlanRequest{.kind = kind,
                     .n = n,
                     .root_pid = root_pid,
                     .shares = shares,
                     .top_phase = top_phase};
}

CommSchedule CollectiveAdvice::plan(const MachineTree& tree,
                                    std::size_t n) const {
  // Served through the shared cache: re-planning the advice the advisor just
  // priced (the common follow-up call) is a lookup, not a rebuild.
  return PlanCache::global().get(tree, request(n))->schedule;
}

CollectiveAdvice advise(const MachineTree& tree, CollectiveKind kind,
                        std::size_t n) {
  if (tree.num_children(tree.root()) == 0) {
    throw std::invalid_argument{"advise: single-processor machine"};
  }
  const int fast = tree.coordinator_pid(tree.root());
  const int slow = tree.slowest_pid(tree.root());

  // Candidates come through the shared plan cache: the schedule and its
  // CostModel price are built once per distinct configuration, and the
  // follow-up advice.plan() call is a lookup. build_plan dispatches
  // allgather's flat/hierarchical split, so the cache sees the same schedule
  // the direct planner calls used to produce.
  std::vector<Candidate> candidates;
  const auto add = [&](Candidate candidate, const PlanRequest& request) {
    candidate.plan = PlanCache::global().get(tree, request);
    candidate.supersteps = count_supersteps(candidate.plan->schedule);
    candidates.push_back(std::move(candidate));
  };

  switch (kind) {
    case CollectiveKind::kGather:
    case CollectiveKind::kScatter:
    case CollectiveKind::kReduce: {
      for (const int root : {fast, slow}) {
        for (const Shares shares : {Shares::kBalanced, Shares::kEqual}) {
          Candidate candidate;
          candidate.description = "root=" + root_name(tree, root) + ", " +
                                  shares_name(shares) + " shares";
          candidate.root_pid = root;
          candidate.shares = shares;
          add(std::move(candidate),
              {.kind = kind, .n = n, .root_pid = root, .shares = shares});
        }
        if (slow == fast) break;
      }
      break;
    }
    case CollectiveKind::kBroadcast: {
      for (const TopPhase top : {TopPhase::kOnePhase, TopPhase::kTwoPhase}) {
        Candidate candidate;
        candidate.description = std::string{top == TopPhase::kOnePhase
                                                ? "one-phase"
                                                : "two-phase"} +
                                " from " + root_name(tree, fast);
        candidate.root_pid = fast;
        candidate.shares = Shares::kEqual;
        candidate.top_phase = top;
        add(std::move(candidate), {.kind = kind,
                                   .n = n,
                                   .root_pid = fast,
                                   .shares = Shares::kEqual,
                                   .top_phase = top});
      }
      break;
    }
    case CollectiveKind::kAllgather:
    case CollectiveKind::kScan:
    case CollectiveKind::kAlltoall: {
      for (const Shares shares : {Shares::kBalanced, Shares::kEqual}) {
        Candidate candidate;
        candidate.description = std::string{shares_name(shares)} + " shares";
        candidate.shares = shares;
        add(std::move(candidate), {.kind = kind, .n = n, .shares = shares});
      }
      break;
    }
  }

  {
    // Resolved once per thread: Registry::global() never frees a shard.
    thread_local obs::Counter advise_calls =
        obs::Registry::global().counter("coll.advise_calls");
    thread_local obs::Counter candidates_evaluated =
        obs::Registry::global().counter("coll.candidates_evaluated");
    advise_calls.increment();
    candidates_evaluated.add(candidates.size());
  }

  CollectiveAdvice advice;
  advice.kind = kind;
  double best = std::numeric_limits<double>::infinity();
  int best_steps = std::numeric_limits<int>::max();
  bool best_balanced = false;
  for (const auto& candidate : candidates) {
    const double cost = candidate.plan->predicted_cost;
    advice.options.push_back({candidate.description, cost});
    const bool balanced = candidate.shares == Shares::kBalanced;
    const bool better =
        cost < best - 1e-15 ||
        (cost < best + 1e-15 &&
         (candidate.supersteps < best_steps ||
          (candidate.supersteps == best_steps && balanced && !best_balanced)));
    if (better) {
      best = cost;
      best_steps = candidate.supersteps;
      best_balanced = balanced;
      advice.root_pid = candidate.root_pid;
      advice.shares = candidate.shares;
      advice.top_phase = candidate.top_phase;
      advice.predicted_cost = cost;
    }
  }

  // Rationale, in the paper's own terms.
  if (kind == CollectiveKind::kBroadcast) {
    double r_s = 0.0;
    for (int j = 0; j < tree.num_children(tree.root()); ++j) {
      r_s = std::max(r_s, tree.r(tree.child(tree.root(), j)));
    }
    const double fan_out = static_cast<double>(tree.num_children(tree.root()) - 1);
    advice.rationale =
        advice.top_phase == TopPhase::kOnePhase
            ? (r_s >= fan_out
                   ? "slowest member's r >= m-1: it pays r_s*n either way, so "
                     "the extra barrier never pays off (SS4.4)"
                   : "problem too small: the second barrier costs more than "
                     "the bandwidth it saves")
            : "large enough that halving the root's fan-out volume beats the "
              "extra barrier (SS4.4)";
  } else if (advice.root_pid >= 0) {
    advice.rationale = "fastest machine coordinates and shares track 1/r_j "
                       "(the two SS4.1 design rules)";
  } else {
    advice.rationale = "symmetric collective: only the share policy matters";
  }
  return advice;
}

}  // namespace hbsp::coll
