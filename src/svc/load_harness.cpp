#include "svc/load_harness.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "collectives/advisor.hpp"
#include "collectives/plan_cache.hpp"
#include "core/topology.hpp"
#include "sim/sim_params.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hbsp::svc {

const char* to_string(LoadMode mode) noexcept {
  switch (mode) {
    case LoadMode::kOpenLoop:
      return "open_loop";
    case LoadMode::kClosedLoop:
      return "closed_loop";
  }
  return "unknown";
}

namespace {

/// Distinct scenario contents the mix can draw; small enough that a batch
/// contains repeats (coalescing traffic), large enough to exercise every
/// machine and request kind.
constexpr std::uint64_t kScenarioSpace = 64;

/// Width of one open-loop arrival window in virtual seconds. Requests
/// arriving within a window are submitted as one batch and drained together.
constexpr double kTickSeconds = 0.05;

/// Seed-stream tags so the scenario table, the arrival draws and nothing
/// else ever share an Rng stream.
constexpr std::uint64_t kScenarioStream = 0x5ce7a910ULL;
constexpr std::uint64_t kArrivalStream = 0xa77afa1ULL;

/// The standard machines every load run mixes over (ISSUE acceptance set).
struct Machines {
  std::vector<std::shared_ptr<const MachineTree>> trees;

  Machines() {
    trees.push_back(std::make_shared<const MachineTree>(make_paper_testbed(10)));
    trees.push_back(std::make_shared<const MachineTree>(make_figure1_cluster()));
    trees.push_back(std::make_shared<const MachineTree>(make_wide_area_grid()));
  }
};

/// Collectives valid on a machine of the given height (scan and alltoall
/// require a flat HBSP^1 machine, as their planners do).
std::span<const coll::CollectiveKind> valid_collectives(int height) {
  static constexpr coll::CollectiveKind kFlat[] = {
      coll::CollectiveKind::kGather,    coll::CollectiveKind::kBroadcast,
      coll::CollectiveKind::kScatter,   coll::CollectiveKind::kReduce,
      coll::CollectiveKind::kAllgather, coll::CollectiveKind::kScan,
      coll::CollectiveKind::kAlltoall,
  };
  static constexpr coll::CollectiveKind kHierarchical[] = {
      coll::CollectiveKind::kGather,  coll::CollectiveKind::kBroadcast,
      coll::CollectiveKind::kScatter, coll::CollectiveKind::kReduce,
      coll::CollectiveKind::kAllgather,
  };
  if (height <= 1) return std::span<const coll::CollectiveKind>{kFlat};
  return std::span<const coll::CollectiveKind>{kHierarchical};
}

bool is_rootless(coll::CollectiveKind kind) noexcept {
  return kind == coll::CollectiveKind::kAllgather ||
         kind == coll::CollectiveKind::kScan ||
         kind == coll::CollectiveKind::kAlltoall;
}

/// One generated request, ready to submit. Exactly one of the three
/// request members is populated, selected by `kind`.
struct GeneratedRequest {
  RequestKind kind = RequestKind::kPlan;
  AdviseRequest advise;
  PlanRequest plan;
  SimulateRequest simulate;
};

/// Expands scenario `id` into a request — a pure function of (seed, id), so
/// every appearance of one scenario id in a run is content-identical.
GeneratedRequest make_scenario(const Machines& machines, std::uint64_t seed,
                               std::uint64_t id) {
  util::Rng rng{util::split_seed(util::split_seed(seed, kScenarioStream), id)};
  GeneratedRequest request;

  const auto tree_index = static_cast<std::size_t>(
      rng.uniform_u64(0, machines.trees.size() - 1));
  const std::shared_ptr<const MachineTree>& tree = machines.trees[tree_index];
  const auto collectives = valid_collectives(tree->height());
  const coll::CollectiveKind collective = collectives[static_cast<std::size_t>(
      rng.uniform_u64(0, collectives.size() - 1))];
  const std::size_t n = std::size_t{1}
                        << rng.uniform_u64(8, 14);  // 256 .. 16384 items

  request.kind = static_cast<RequestKind>(rng.uniform_u64(0, 2));
  if (request.kind == RequestKind::kAdvise) {
    request.advise.tree = tree;
    request.advise.collective = collective;
    request.advise.n = n;
    request.advise.params = sim::SimParams{};
    return request;
  }

  coll::PlanRequest spec;
  spec.kind = collective;
  spec.n = n;
  spec.root_pid = is_rootless(collective)
                      ? -1
                      : static_cast<int>(rng.uniform_u64(
                            0, static_cast<std::uint64_t>(
                                   tree->num_processors() - 1)));
  spec.shares = rng.uniform_u64(0, 1) == 0 ? coll::Shares::kEqual
                                           : coll::Shares::kBalanced;
  spec.top_phase = rng.uniform_u64(0, 1) == 0 ? coll::TopPhase::kOnePhase
                                              : coll::TopPhase::kTwoPhase;
  if (request.kind == RequestKind::kPlan) {
    request.plan.tree = tree;
    request.plan.spec = spec;
  } else {
    request.simulate.tree = tree;
    request.simulate.spec = spec;
    request.simulate.params = sim::SimParams{};
  }
  return request;
}

/// A submitted request awaiting its response.
struct Pending {
  Ticket ticket;
  double submitted_at = 0.0;
};

void submit_one(Service& service, const Machines& machines,
                const LoadConfig& config, std::uint64_t index,
                std::vector<Pending>& pending, LoadReport& report) {
  util::Rng rng{
      util::split_seed(util::split_seed(config.seed, kArrivalStream), index)};
  // Quadratic skew toward low scenario ids: popular scenarios recur within a
  // batch, so coalescing and cache warmth carry realistic weight.
  const double u = rng.uniform01();
  const auto scenario = static_cast<std::uint64_t>(
      u * u * static_cast<double>(kScenarioSpace));
  const Deadline deadline = rng.uniform01() < config.expired_fraction
                                ? Deadline::expired()
                                : Deadline::never();

  GeneratedRequest request = make_scenario(machines, config.seed, scenario);
  Pending entry;
  entry.submitted_at = now_seconds();
  switch (request.kind) {
    case RequestKind::kAdvise:
      entry.ticket = service.submit(std::move(request.advise), deadline);
      break;
    case RequestKind::kPlan:
      entry.ticket = service.submit(std::move(request.plan), deadline);
      break;
    case RequestKind::kSimulate:
      entry.ticket = service.submit(std::move(request.simulate), deadline);
      break;
  }
  ++report.submitted;
  if (entry.ticket.coalesced) ++report.coalesced;
  pending.push_back(std::move(entry));
}

void collect(std::vector<Pending>& pending, LoadReport& report,
             std::vector<double>& latencies) {
  for (Pending& entry : pending) {
    try {
      const Response& response = entry.ticket.response.get();
      switch (response.outcome) {
        case Outcome::kCompleted:
          ++report.completed;
          report.content_checksum += response.body.content_fingerprint();
          latencies.push_back(std::max(
              0.0, response.provenance.completed_at - entry.submitted_at));
          break;
        case Outcome::kRejectedQueueFull:
          ++report.shed_queue_full;
          break;
        case Outcome::kRejectedDeadlineExceeded:
          ++report.shed_deadline;
          break;
      }
    } catch (...) {
      ++report.failed;
    }
  }
  pending.clear();
}

}  // namespace

LoadReport run_load(const LoadConfig& config) {
  if (!(config.qps > 0.0)) {
    throw std::invalid_argument{"LoadConfig::qps must be positive"};
  }
  if (!(config.duration > 0.0)) {
    throw std::invalid_argument{"LoadConfig::duration must be positive"};
  }
  if (config.clients < 1) {
    throw std::invalid_argument{"LoadConfig::clients must be >= 1"};
  }
  if (config.threads < 1) {
    throw std::invalid_argument{"LoadConfig::threads must be >= 1"};
  }
  if (!(config.expired_fraction >= 0.0) || config.expired_fraction >= 1.0) {
    throw std::invalid_argument{
        "LoadConfig::expired_fraction must be in [0, 1)"};
  }

  const Machines machines;
  Service service{ServiceConfig{config.threads, config.queue_capacity}};

  const auto total = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(config.qps * config.duration)));
  const std::uint64_t batch =
      config.mode == LoadMode::kOpenLoop
          ? std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(
                                           config.qps * kTickSeconds)))
          : static_cast<std::uint64_t>(config.clients);

  LoadReport report;
  std::vector<Pending> pending;
  std::vector<double> latencies;
  pending.reserve(batch);
  latencies.reserve(total);

  const double wall_start = now_seconds();
  std::uint64_t next = 0;
  while (next < total) {
    const std::uint64_t round_end = std::min(total, next + batch);
    for (; next < round_end; ++next) {
      submit_one(service, machines, config, next, pending, report);
    }
    service.pump();
    collect(pending, report, latencies);
  }
  report.wall_seconds = std::max(1e-9, now_seconds() - wall_start);
  report.throughput_rps =
      static_cast<double>(report.completed) / report.wall_seconds;

  std::sort(latencies.begin(), latencies.end());
  report.latency_p50 = util::quantile(latencies, 0.50);
  report.latency_p95 = util::quantile(latencies, 0.95);
  report.latency_p99 = util::quantile(latencies, 0.99);
  return report;
}

}  // namespace hbsp::svc
