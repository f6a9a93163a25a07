#pragma once
// Memoized collective planning: the planner half of the scenario-throughput
// layer.
//
// Sweeps re-derive the same CommSchedule thousands of times — every fig3a
// cell with the same (p, n, root) pair, every chaos cell (whose 16 cells
// share one machine and four plans), every warm perf_snapshot repetition.
// PlanCache memoizes (machine fingerprint, collective, n, shares, params) →
// (schedule, predicted cost) with compute-once semantics: the first
// requester builds while concurrent requesters for the same key block until
// the entry is ready. That blocking discipline is what keeps the obs
// counters deterministic — misses equal the number of *distinct* keys
// requested, never a function of thread scheduling — so the perf gate can
// keep exact-matching every counter across thread counts.
//
// Determinism contract:
//   - plancache.misses  == distinct keys built (absent-key builds)
//   - plancache.hits    == requests served from an existing entry (including
//                          requests that waited for a concurrent build)
//   - plancache.collisions == rebuilds forced by a params-hash collision
//                          (the stored request differs from the incoming one
//                          under an equal key); the entry is deterministically
//                          replaced, never served wrong
//   - eviction (max_entries > 0) removes the least-recently-used completed
//     entry; with single-threaded access the victim sequence is a pure
//     function of the request sequence. The global() instance is unbounded
//     so gated perf runs never evict.

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

#include "collectives/advisor.hpp"
#include "core/machine.hpp"
#include "core/schedule.hpp"

namespace hbsp::coll {

/// Everything that parameterises a planner call, independent of the machine.
/// `root_pid` is -1 for rootless collectives; `top_phase` only matters for
/// broadcast but participates in every key (it is defaulted elsewhere).
struct PlanRequest {
  CollectiveKind kind = CollectiveKind::kGather;
  std::size_t n = 0;
  int root_pid = -1;
  Shares shares = Shares::kBalanced;
  TopPhase top_phase = TopPhase::kTwoPhase;

  friend bool operator==(const PlanRequest&, const PlanRequest&) = default;
};

/// The planner dispatch behind CollectiveAdvice::plan, cache-free: builds
/// the schedule realising `request` on `tree` (allgather picks the flat or
/// hierarchical form by the tree's shape, as the advisor does).
[[nodiscard]] CommSchedule build_plan(const MachineTree& tree,
                                      const PlanRequest& request);

/// Stable content fingerprint of a planner request: folds every field (kind,
/// n, root, shares, top phase) through util::Hash64, so two requests hash
/// equal iff they are operator== equal up to hash collisions. The svc
/// coalescing keys and response fingerprints build on it; PlanKey keeps its
/// own (deliberately lossy) params_hash unchanged.
[[nodiscard]] std::uint64_t plan_request_fingerprint(
    const PlanRequest& request) noexcept;

/// Cache key: the ISSUE's (collective, machine-tree fingerprint, shares, n,
/// params-hash) tuple. kind/shares/n are kept verbatim; root_pid and
/// top_phase fold into params_hash, which is why collisions are possible and
/// detected via the stored PlanRequest.
struct PlanKey {
  std::uint64_t tree_fingerprint = 0;
  std::uint8_t kind = 0;
  std::uint8_t shares = 0;
  std::size_t n = 0;
  std::uint64_t params_hash = 0;

  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;
};

/// A memoized plan: the schedule plus its CostModel price on the machine it
/// was built for (the §3.4 predicted cost the advisor would compute), and
/// the schedule's content fingerprint. PlanCache computes the fingerprint
/// once, when it builds the plan; the plan is immutable from then on, so
/// every cache key and response fingerprint derived from it reads the
/// stored value instead of re-hashing the whole schedule.
struct CachedPlan {
  PlanRequest request;
  CommSchedule schedule;
  double predicted_cost = 0.0;
  std::uint64_t schedule_fingerprint = 0;  ///< == schedule.fingerprint()
};

class PlanCache {
 public:
  /// `max_entries` == 0 means unbounded (no eviction ever).
  explicit PlanCache(std::size_t max_entries = 0)
      : max_entries_(max_entries) {}

  /// The process-wide cache the experiments layer and the advisor share.
  /// Unbounded; clear() it at workload boundaries when cold timings matter.
  static PlanCache& global();

  /// The key `get` derives for a request — exposed so the differential tests
  /// can forge key collisions via lookup().
  [[nodiscard]] static PlanKey key_for(const MachineTree& tree,
                                       const PlanRequest& request);

  /// Returns the memoized plan for `request` on `tree`, building it on first
  /// use. Concurrent requests for the same key block until the builder
  /// finishes. The returned pointer is immutable and safe to hold after
  /// clear()/eviction.
  std::shared_ptr<const CachedPlan> get(const MachineTree& tree,
                                        const PlanRequest& request);

  /// get() with a caller-supplied key. Only differential tests should call
  /// this directly: it exists so a params-hash collision (same key, different
  /// request) can be forged and its deterministic rebuild asserted.
  std::shared_ptr<const CachedPlan> lookup(const PlanKey& key,
                                           const MachineTree& tree,
                                           const PlanRequest& request);

  /// Drops every completed entry (builds in flight finish normally).
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }

 private:
  struct Entry {
    PlanRequest request;
    std::shared_ptr<const CachedPlan> plan;  ///< null while being built
    std::uint64_t stamp = 0;                 ///< last access, monotone
  };

  /// Must hold mutex_. Evicts least-recently-used completed entries until
  /// the size bound holds; in-flight builds are never victims.
  void evict_locked();

  std::size_t max_entries_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::map<PlanKey, Entry> entries_;
  std::uint64_t next_stamp_ = 0;
};

}  // namespace hbsp::coll
