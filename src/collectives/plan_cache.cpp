#include "collectives/plan_cache.hpp"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "collectives/planners.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace hbsp::coll {

CommSchedule build_plan(const MachineTree& tree, const PlanRequest& request) {
  switch (request.kind) {
    case CollectiveKind::kGather:
      return plan_gather(
          tree, request.n,
          {.root_pid = request.root_pid, .shares = request.shares});
    case CollectiveKind::kBroadcast:
      return plan_broadcast(tree, request.n,
                            {.root_pid = request.root_pid,
                             .top_phase = request.top_phase,
                             .shares = request.shares});
    case CollectiveKind::kScatter:
      return plan_scatter(
          tree, request.n,
          {.root_pid = request.root_pid, .shares = request.shares});
    case CollectiveKind::kReduce:
      return plan_reduce_tree(
          tree, request.n,
          {.root_pid = request.root_pid, .shares = request.shares});
    case CollectiveKind::kAllgather: {
      for (int j = 0; j < tree.num_children(tree.root()); ++j) {
        if (!tree.is_processor(tree.child(tree.root(), j))) {
          return plan_allgather_tree(tree, request.n, request.shares);
        }
      }
      return plan_allgather(tree, request.n, request.shares);
    }
    case CollectiveKind::kScan:
      return plan_scan(tree, request.n, request.shares);
    case CollectiveKind::kAlltoall:
      return plan_alltoall(tree, request.n, request.shares);
  }
  throw std::logic_error{"build_plan: bad kind"};
}

std::uint64_t plan_request_fingerprint(const PlanRequest& request) noexcept {
  util::Hash64 hash;
  hash.add(static_cast<std::uint64_t>(request.kind));
  hash.add(request.n);
  hash.add_int(request.root_pid);
  hash.add(static_cast<std::uint64_t>(request.shares));
  hash.add(static_cast<std::uint64_t>(request.top_phase));
  return hash.digest();
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

PlanKey PlanCache::key_for(const MachineTree& tree,
                           const PlanRequest& request) {
  util::Hash64 params;
  params.add_int(request.root_pid);
  params.add(static_cast<std::uint64_t>(request.top_phase));
  return PlanKey{
      .tree_fingerprint = tree.fingerprint(),
      .kind = static_cast<std::uint8_t>(request.kind),
      .shares = static_cast<std::uint8_t>(request.shares),
      .n = request.n,
      .params_hash = params.digest(),
  };
}

std::shared_ptr<const CachedPlan> PlanCache::get(const MachineTree& tree,
                                                 const PlanRequest& request) {
  return lookup(key_for(tree, request), tree, request);
}

std::shared_ptr<const CachedPlan> PlanCache::lookup(
    const PlanKey& key, const MachineTree& tree, const PlanRequest& request) {
  auto& registry = obs::Registry::global();
  bool collision = false;

  std::unique_lock lock{mutex_};
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // absent: this thread builds
    if (!(it->second.request == request)) {
      if (it->second.plan == nullptr) {
        // The colliding key is mid-build; wait for the builder to finish
        // (erasing its placeholder would strand it), then replace.
        ready_.wait(lock);
        continue;
      }
      // params-hash collision: two requests share a key. Deterministically
      // rebuild for the incoming request (latest wins) — never serve the
      // stored plan to the wrong request.
      collision = true;
      entries_.erase(it);
      break;
    }
    if (it->second.plan != nullptr) {
      it->second.stamp = ++next_stamp_;
      lock.unlock();
      // Resolved once per thread: Registry::global() never frees a shard.
      thread_local obs::Counter hits = registry.counter("plancache.hits");
      hits.increment();
      return it->second.plan;
    }
    // Another thread is building this key: compute-once blocking keeps the
    // miss count a pure function of the distinct keys requested.
    ready_.wait(lock);
  }

  entries_[key] = Entry{request, nullptr, ++next_stamp_};
  lock.unlock();
  registry.counter(collision ? "plancache.collisions" : "plancache.misses")
      .increment();

  std::shared_ptr<const CachedPlan> plan;
  try {
    auto built = std::make_shared<CachedPlan>();
    built->request = request;
    built->schedule = build_plan(tree, request);
    built->predicted_cost = CostModel{tree}.cost(built->schedule).total();
    built->schedule_fingerprint = built->schedule.fingerprint();
    plan = std::move(built);
  } catch (...) {
    // Planner rejected the request (e.g. flat-only collective on a
    // hierarchy): remove the placeholder so waiters retry instead of
    // hanging, and let the caller see the planner's error.
    lock.lock();
    entries_.erase(key);
    ready_.notify_all();
    throw;
  }

  lock.lock();
  Entry& entry = entries_[key];
  entry.plan = plan;
  entry.stamp = ++next_stamp_;
  evict_locked();
  registry.gauge("plancache.size").set(static_cast<double>(entries_.size()));
  ready_.notify_all();
  return plan;
}

void PlanCache::evict_locked() {
  if (max_entries_ == 0) return;
  while (entries_.size() > max_entries_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.plan == nullptr) continue;  // build in flight
      if (victim == entries_.end() || it->second.stamp < victim->second.stamp) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything is being built
    entries_.erase(victim);
    obs::Registry::global().counter("plancache.evictions").increment();
  }
}

void PlanCache::clear() {
  std::lock_guard lock{mutex_};
  for (auto it = entries_.begin(); it != entries_.end();) {
    it = it->second.plan != nullptr ? entries_.erase(it) : std::next(it);
  }
}

std::size_t PlanCache::size() const {
  std::lock_guard lock{mutex_};
  return entries_.size();
}

}  // namespace hbsp::coll
