// Differential suite for the plan cache: a memoized plan must be
// indistinguishable from a freshly built one — schedule value-identical
// (CommSchedule::operator==), predicted cost the exact CostModel price — on
// every collective and every machine shape, and the cache's bookkeeping
// (eviction order, params-hash collision rebuilds) must be deterministic.

#include "collectives/plan_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "experiments/chaos.hpp"
#include "experiments/figures.hpp"
#include "experiments/scenario_cache.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"

namespace hbsp::coll {
namespace {

/// Counter value from the global registry (tests diff before/after, since
/// the registry accumulates across the whole test binary).
std::uint64_t counter(const std::string& name) {
  return obs::Registry::global().snapshot().counter(name);
}

/// The machine basket the differential sweep covers: both presets the §5
/// experiments use, the k = 3 grid, and random trees of every depth the
/// model supports (k <= 3).
std::vector<std::pair<std::string, MachineTree>> machine_basket() {
  std::vector<std::pair<std::string, MachineTree>> basket;
  basket.emplace_back("testbed10", make_paper_testbed(10));
  basket.emplace_back("figure1_campus", make_figure1_cluster());
  basket.emplace_back("wide_area_grid", make_wide_area_grid());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomTreeOptions options;
    options.levels = static_cast<int>(seed);  // k = 1, 2, 3
    options.min_fanout = 2;
    options.max_fanout = 3;
    basket.emplace_back("random_k" + std::to_string(seed),
                        make_random_tree(options, seed * 97 + 11));
  }
  return basket;
}

/// Flat machines (every child of the root is a processor) are the only ones
/// the flat-only collectives accept.
bool is_flat(const MachineTree& tree) {
  for (int j = 0; j < tree.num_children(tree.root()); ++j) {
    if (!tree.is_processor(tree.child(tree.root(), j))) return false;
  }
  return true;
}

/// Every PlanRequest that is valid on `tree`: all collectives, both share
/// policies, both broadcast top phases.
std::vector<PlanRequest> request_basket(const MachineTree& tree) {
  const int root = tree.coordinator_pid(tree.root());
  std::vector<PlanRequest> requests;
  for (const Shares shares : {Shares::kBalanced, Shares::kEqual}) {
    for (const CollectiveKind kind :
         {CollectiveKind::kGather, CollectiveKind::kScatter,
          CollectiveKind::kReduce}) {
      requests.push_back(
          {.kind = kind, .n = 4096, .root_pid = root, .shares = shares});
    }
    for (const TopPhase top : {TopPhase::kTwoPhase, TopPhase::kOnePhase}) {
      requests.push_back({.kind = CollectiveKind::kBroadcast,
                          .n = 4096,
                          .root_pid = root,
                          .shares = shares,
                          .top_phase = top});
    }
    requests.push_back(
        {.kind = CollectiveKind::kAllgather, .n = 4096, .shares = shares});
    if (is_flat(tree)) {
      requests.push_back(
          {.kind = CollectiveKind::kScan, .n = 4096, .shares = shares});
      requests.push_back(
          {.kind = CollectiveKind::kAlltoall, .n = 4096, .shares = shares});
    }
  }
  return requests;
}

TEST(PlanCacheDifferential, CachedPlanEqualsFreshBuildEverywhere) {
  for (const auto& [name, tree] : machine_basket()) {
    PlanCache cache;
    for (const PlanRequest& request : request_basket(tree)) {
      const auto cached = cache.get(tree, request);
      ASSERT_NE(cached, nullptr);
      // Schedule value-identical to a cache-free build, cost the exact
      // CostModel price of that schedule.
      const CommSchedule fresh = build_plan(tree, request);
      EXPECT_EQ(cached->schedule, fresh) << name;
      EXPECT_EQ(cached->predicted_cost, CostModel{tree}.cost(fresh).total())
          << name;
      EXPECT_EQ(cached->request, request) << name;
      // The warm request returns the identical object, not a rebuild.
      EXPECT_EQ(cache.get(tree, request), cached) << name;
    }
  }
}

TEST(PlanCacheDifferential, DistinctRequestsGetDistinctKeys) {
  // No two requests in the basket may alias a key on the same machine, and
  // the same request must key differently on different machines.
  std::map<PlanKey, std::string> seen;
  for (const auto& [name, tree] : machine_basket()) {
    for (const PlanRequest& request : request_basket(tree)) {
      const PlanKey key = PlanCache::key_for(tree, request);
      const auto [it, inserted] = seen.emplace(key, name);
      EXPECT_TRUE(inserted) << name << " aliases " << it->second;
    }
  }
}

TEST(PlanCacheDifferential, ColdAndWarmSweepCsvsAreByteIdentical) {
  // The throughput layer's core soundness claim at the table level: a sweep
  // served entirely from warm caches renders the same CSV text as a cold one.
  exp::FigureConfig config;
  config.processors = {2, 3, 4};
  config.kbytes = {100, 300};

  PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
  const std::string cold =
      exp::improvement_csv(exp::gather_root_experiment(config));
  const std::string warm =
      exp::improvement_csv(exp::gather_root_experiment(config));
  EXPECT_EQ(cold, warm);

  exp::ChaosConfig chaos;
  chaos.fault_rates = {0.0, 2.0};
  chaos.loss_probs = {0.0, 0.05};
  chaos.p = 4;
  chaos.kbytes = 200;
  PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
  const std::string chaos_cold = exp::chaos_csv(exp::chaos_sweep(chaos));
  const std::string chaos_warm = exp::chaos_csv(exp::chaos_sweep(chaos));
  EXPECT_EQ(chaos_cold, chaos_warm);
}

TEST(PlanCacheEviction, LeastRecentlyUsedIsTheDeterministicVictim) {
  const MachineTree tree = make_paper_testbed(6);
  const int root = tree.coordinator_pid(tree.root());
  const auto request = [&](std::size_t n) {
    return PlanRequest{
        .kind = CollectiveKind::kGather, .n = n, .root_pid = root};
  };

  PlanCache cache{2};
  const std::uint64_t evictions_before = counter("plancache.evictions");
  const auto a = cache.get(tree, request(1000));
  const auto b = cache.get(tree, request(2000));
  EXPECT_EQ(cache.size(), 2u);

  // Touch A so B becomes the least recently used, then insert C: B must be
  // the victim — A and C survive (same pointers), B rebuilds.
  EXPECT_EQ(cache.get(tree, request(1000)), a);
  const auto c = cache.get(tree, request(3000));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(counter("plancache.evictions"), evictions_before + 1);
  EXPECT_EQ(cache.get(tree, request(1000)), a);
  EXPECT_EQ(cache.get(tree, request(3000)), c);
  const auto b2 = cache.get(tree, request(2000));
  EXPECT_NE(b2, b);
  EXPECT_EQ(b2->schedule, b->schedule);  // rebuild, same value
}

TEST(PlanCacheCollision, ForgedKeyCollisionRebuildsDeterministically) {
  // lookup() is the test seam for the one hash-degeneracy the key allows:
  // root_pid/top_phase live in params_hash, so two different requests could
  // in principle share a key. Forge that case and check the contract: the
  // stored plan is never served to the wrong request — the entry is rebuilt
  // for the incoming request, counted as a collision, and stabilises.
  const MachineTree tree = make_paper_testbed(6);
  const PlanRequest first{
      .kind = CollectiveKind::kGather, .n = 4096, .root_pid = 0};
  const PlanRequest second{
      .kind = CollectiveKind::kGather, .n = 4096, .root_pid = 1};
  const PlanKey key = PlanCache::key_for(tree, first);

  PlanCache cache;
  const std::uint64_t collisions_before = counter("plancache.collisions");
  const auto for_first = cache.lookup(key, tree, first);
  EXPECT_EQ(for_first->request, first);

  const auto for_second = cache.lookup(key, tree, second);
  EXPECT_EQ(for_second->request, second);
  EXPECT_EQ(for_second->schedule, build_plan(tree, second));
  EXPECT_EQ(counter("plancache.collisions"), collisions_before + 1);
  EXPECT_EQ(cache.size(), 1u);  // latest wins, never both

  // Same incoming request again: now a plain hit on the replaced entry.
  EXPECT_EQ(cache.lookup(key, tree, second), for_second);
  EXPECT_EQ(counter("plancache.collisions"), collisions_before + 1);

  // And flipping back collides again — the rebuild sequence is a pure
  // function of the request sequence.
  const auto first_again = cache.lookup(key, tree, first);
  EXPECT_EQ(first_again->request, first);
  EXPECT_EQ(first_again->schedule, for_first->schedule);
  EXPECT_EQ(counter("plancache.collisions"), collisions_before + 2);
}

TEST(PlanCacheLifetime, PlansSurviveClear) {
  const MachineTree tree = make_paper_testbed(4);
  PlanCache cache;
  const auto plan = cache.get(
      tree, {.kind = CollectiveKind::kGather, .n = 512, .root_pid = 0});
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // The shared_ptr keeps the plan alive; a re-request rebuilds to the same
  // value.
  EXPECT_FALSE(plan->schedule.phases.empty());
  const auto rebuilt = cache.get(
      tree, {.kind = CollectiveKind::kGather, .n = 512, .root_pid = 0});
  EXPECT_NE(rebuilt, plan);
  EXPECT_EQ(rebuilt->schedule, plan->schedule);
}

TEST(PlanCacheErrors, PlannerRejectionLeavesNoPlaceholder) {
  // A flat-only collective on a hierarchy throws out of build_plan; the
  // cache must surface the error and stay clean so later requests work.
  const MachineTree tree = make_figure1_cluster();
  PlanCache cache;
  EXPECT_THROW((void)cache.get(tree, {.kind = CollectiveKind::kAlltoall,
                                      .n = 100}),
               std::invalid_argument);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NE(cache.get(tree, {.kind = CollectiveKind::kGather,
                             .n = 100,
                             .root_pid = tree.coordinator_pid(tree.root())}),
            nullptr);
}

TEST(PlanCacheFingerprint, StoredScheduleFingerprintEqualsRecomputation) {
  // The memo behind O(1) warm hits: every plan carries the fingerprint of
  // its own schedule, on every machine of the basket and at p = 4096, k = 4.
  static constexpr double kCycleR[] = {1.0, 1.5, 2.0, 3.0};
  auto basket = machine_basket();
  basket.emplace_back("uniform_k4_p4096", make_uniform_tree(4, 8, kCycleR));
  const sim::SimParams params;
  for (const auto& [name, tree] : basket) {
    PlanCache cache;
    for (const PlanRequest& request : request_basket(tree)) {
      const auto plan = cache.get(tree, request);
      EXPECT_EQ(plan->schedule_fingerprint, plan->schedule.fingerprint())
          << name;
      // The plan-keyed scenario key is the schedule-keyed one.
      EXPECT_EQ(exp::ScenarioCache::key_for(tree, *plan, params, nullptr),
                exp::ScenarioCache::key_for(tree, plan->schedule, params,
                                            nullptr))
          << name;
    }
  }
}

TEST(PlanCacheFingerprint, PlanKeyedSimulationSharesTheScheduleKeyedEntry) {
  // Under seeded fault plans too: the plan-keyed entry point finds the entry
  // the schedule-keyed one built (a hit, same makespan), and vice versa.
  const MachineTree tree = make_paper_testbed(10);
  const sim::SimParams params;
  exp::ScenarioCache cache;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    faults::ChaosOptions options;
    options.slowdown_rate = 2.0;
    options.message_loss_probability = 0.05;
    const faults::FaultInjector injector{
        faults::make_chaos_plan(tree.num_processors(), options, seed)};
    const auto plan = PlanCache::global().get(
        tree, {.kind = CollectiveKind::kGather,
               .n = 1000 + seed,
               .root_pid = static_cast<int>(seed)});
    EXPECT_EQ(exp::ScenarioCache::key_for(tree, *plan, params, &injector),
              exp::ScenarioCache::key_for(tree, plan->schedule, params,
                                          &injector));

    const std::uint64_t misses = counter("scenario.misses");
    const std::uint64_t hits = counter("scenario.hits");
    const double by_schedule =
        cache.makespan(tree, plan->schedule, params, &injector);
    EXPECT_EQ(cache.makespan(tree, *plan, params, &injector), by_schedule);
    EXPECT_EQ(cache.makespan(tree, plan->schedule, params, &injector),
              by_schedule);
    EXPECT_EQ(counter("scenario.misses") - misses, 1u);
    EXPECT_EQ(counter("scenario.hits") - hits, 2u);
  }
}

}  // namespace
}  // namespace hbsp::coll
