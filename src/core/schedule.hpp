#pragma once
// Communication schedules: the shared contract between the collective
// planners, the analytic cost model, and the execution engines.
//
// A planner turns (topology, root, n) into a CommSchedule — a sequence of
// superstep plans listing every point-to-point transfer in items plus local
// computation. The cost model prices a schedule with the HBSP^k formula
// (§3.4); the runtime executes the same schedule, so predicted and simulated
// costs are two views of one object and can be cross-checked in tests.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hpp"

namespace hbsp {

/// One point-to-point message: `items` data items from src to dst processor.
struct Transfer {
  int src_pid = 0;
  int dst_pid = 0;
  std::size_t items = 0;

  friend bool operator==(const Transfer&, const Transfer&) = default;
};
// The plan and scenario caches hold hundreds of thousands of transfers: 8
// more bytes per transfer cost about 6.5 MB (+25 %) of svc_warm peak RSS.
static_assert(sizeof(Transfer) <= 16, "keep Transfer at 16 bytes");

/// Local computation charged to one processor within a superstep, measured in
/// abstract item-operations.
struct ComputeWork {
  int pid = 0;
  double ops = 0.0;

  friend bool operator==(const ComputeWork&, const ComputeWork&) = default;
};

/// One super^i-step (§3.2): transfers plus computation, closed by a barrier
/// over `sync_scope`'s subtree (whose L_{i,j} applies).
struct SuperstepPlan {
  std::string label;
  int level = 1;             ///< i of the super^i-step
  MachineId sync_scope;      ///< subtree synchronised at the end
  std::vector<Transfer> transfers;
  std::vector<ComputeWork> compute;

  /// Total items sent by `pid` in this plan (self-sends excluded).
  [[nodiscard]] std::size_t items_sent(int pid) const;
  /// Total items received by `pid` in this plan (self-sends excluded).
  [[nodiscard]] std::size_t items_received(int pid) const;

  friend bool operator==(const SuperstepPlan&, const SuperstepPlan&) = default;
};

/// Superstep plans that run *concurrently* on disjoint subtrees — e.g. the
/// HBSP^2 gather's per-cluster super^1-steps, each closed by its own cluster
/// barrier. A phase completes when all of its plans have completed.
struct Phase {
  std::vector<SuperstepPlan> plans;

  friend bool operator==(const Phase&, const Phase&) = default;
};

/// A full algorithm: an ordered sequence of phases. Phases are sequential;
/// plans within a phase are concurrent.
struct CommSchedule {
  std::string name;
  std::vector<Phase> phases;

  /// Appends a phase containing a single plan and returns it for filling in.
  SuperstepPlan& add_step(std::string label, int level, MachineId sync_scope);

  /// Appends an empty phase (for concurrent plans) and returns it.
  Phase& add_phase();

  /// Total items moved across all supersteps (self-sends excluded).
  [[nodiscard]] std::size_t total_items() const;
  /// Total number of point-to-point messages (self-sends excluded).
  [[nodiscard]] std::size_t total_messages() const;

  /// Stable structural hash of the whole schedule (name, labels, scopes,
  /// transfers, compute — everything operator== compares). Equal schedules
  /// have equal fingerprints; the scenario cache keys simulation results on
  /// it together with the machine fingerprint.
  [[nodiscard]] std::uint64_t fingerprint() const;

  friend bool operator==(const CommSchedule&, const CommSchedule&) = default;
};

/// Throws std::invalid_argument unless every pid in the schedule exists in
/// `tree`, every sync_scope contains all of its plan's endpoints, and the
/// sync scopes within each phase are pairwise disjoint.
void validate_schedule(const MachineTree& tree, const CommSchedule& schedule);

}  // namespace hbsp
