#include "experiments/scenario_cache.hpp"

#include <iterator>
#include <utility>

#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace hbsp::exp {

ScenarioCache& ScenarioCache::global() {
  static ScenarioCache cache;
  return cache;
}

namespace {

ScenarioKey make_key(const MachineTree& tree,
                     std::uint64_t schedule_fingerprint,
                     const sim::SimParams& params,
                     const faults::FaultInjector* injector) {
  util::Hash64 fault;
  fault.add(injector != nullptr ? 1u : 0u);
  fault.add(injector != nullptr ? injector->plan().fingerprint() : 0u);
  return ScenarioKey{
      .tree_fingerprint = tree.fingerprint(),
      .schedule_fingerprint = schedule_fingerprint,
      .params_fingerprint = params.fingerprint(),
      .fault_fingerprint = fault.digest(),
  };
}

}  // namespace

ScenarioKey ScenarioCache::key_for(const MachineTree& tree,
                                   const CommSchedule& schedule,
                                   const sim::SimParams& params,
                                   const faults::FaultInjector* injector) {
  return make_key(tree, schedule.fingerprint(), params, injector);
}

ScenarioKey ScenarioCache::key_for(const MachineTree& tree,
                                   const coll::CachedPlan& plan,
                                   const sim::SimParams& params,
                                   const faults::FaultInjector* injector) {
  return make_key(tree, plan.schedule_fingerprint, params, injector);
}

double ScenarioCache::makespan(const MachineTree& tree,
                               const CommSchedule& schedule,
                               const sim::SimParams& params,
                               const faults::FaultInjector* injector) {
  return lookup(key_for(tree, schedule, params, injector), tree, schedule,
                params, injector);
}

double ScenarioCache::makespan(const MachineTree& tree,
                               const coll::CachedPlan& plan,
                               const sim::SimParams& params,
                               const faults::FaultInjector* injector) {
  return lookup(key_for(tree, plan, params, injector), tree, plan.schedule,
                params, injector);
}

double ScenarioCache::lookup(const ScenarioKey& key, const MachineTree& tree,
                             const CommSchedule& schedule,
                             const sim::SimParams& params,
                             const faults::FaultInjector* injector) {
  auto& registry = obs::Registry::global();

  std::unique_lock lock{mutex_};
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // absent: this thread simulates
    if (it->second.result != nullptr) {
      it->second.stamp = ++next_stamp_;
      const auto result = it->second.result;
      lock.unlock();
      // Resolved once per thread: Registry::global() never frees a shard.
      thread_local obs::Counter hits = registry.counter("scenario.hits");
      hits.increment();
      // Replay the builder's registry contribution so totals are identical
      // to an uncached re-simulation.
      sim::replay_run_metrics(result->metrics);
      return result->makespan;
    }
    // Another thread is simulating this key: compute-once blocking keeps the
    // miss count a pure function of the distinct scenarios requested.
    ready_.wait(lock);
  }

  entries_[key] = Entry{nullptr, ++next_stamp_};
  lock.unlock();
  registry.counter("scenario.misses").increment();

  std::shared_ptr<const ScenarioResult> result;
  try {
    auto built = std::make_shared<ScenarioResult>();
    sim::ClusterSim simulator{tree, params};
    simulator.set_fault_injector(injector);
    built->makespan = simulator.run(schedule).makespan;
    built->metrics = simulator.run_metrics();
    result = std::move(built);
  } catch (...) {
    // The simulator rejected the scenario (e.g. schedule fails validation):
    // remove the placeholder so waiters retry instead of hanging, and let
    // the caller see the error.
    lock.lock();
    entries_.erase(key);
    ready_.notify_all();
    throw;
  }

  lock.lock();
  Entry& entry = entries_[key];
  entry.result = result;
  entry.stamp = ++next_stamp_;
  evict_locked();
  registry.gauge("scenario.size").set(static_cast<double>(entries_.size()));
  ready_.notify_all();
  return result->makespan;
}

void ScenarioCache::evict_locked() {
  if (max_entries_ == 0) return;
  while (entries_.size() > max_entries_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.result == nullptr) continue;  // simulation in flight
      if (victim == entries_.end() || it->second.stamp < victim->second.stamp) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything is being simulated
    entries_.erase(victim);
    obs::Registry::global().counter("scenario.evictions").increment();
  }
}

void ScenarioCache::clear() {
  std::lock_guard lock{mutex_};
  for (auto it = entries_.begin(); it != entries_.end();) {
    it = it->second.result != nullptr ? entries_.erase(it) : std::next(it);
  }
}

std::size_t ScenarioCache::size() const {
  std::lock_guard lock{mutex_};
  return entries_.size();
}

}  // namespace hbsp::exp
