// svc_warm: one generator thread keeps 8 requests outstanding against an
// embedded svc::Service (2 threads, background mode) whose caches a cold
// fill has already warmed, so every timed request is a cache hit: the timed
// phase runs admission, coalescing, fingerprinting, cache lookups and the
// shared lock, but no planner and no DES.
//
// The mix: advise/plan/simulate requests over the three paper machines plus
// uniform k = 3 (p = 512) and k = 4 (p = 4096) trees, drawn with quadratic
// popularity skew. The scenario list is fixed by construction; the seed only
// varies each scenario's n and root, and the draw order.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "collectives/advisor.hpp"
#include "collectives/plan_cache.hpp"
#include "common.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "experiments/figures.hpp"
#include "experiments/scenario_cache.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster_sim.hpp"
#include "svc/deadline.hpp"
#include "svc/service.hpp"

namespace perfbench {
namespace {

using hbsp::coll::CollectiveKind;
using hbsp::svc::RequestKind;

constexpr std::size_t kOutstanding = 8;
constexpr int kServiceThreads = 2;
constexpr int kSetupReps = 9;
/// Warm-key draws per layer probe in the traced run.
constexpr std::size_t kProbeDraws = 20000;

struct Scenario {
  RequestKind kind = RequestKind::kPlan;
  std::shared_ptr<const hbsp::MachineTree> tree;
  CollectiveKind collective = CollectiveKind::kGather;  // advise
  std::size_t n = 0;                                    // advise
  hbsp::coll::PlanRequest spec;                         // plan, simulate
  hbsp::sim::SimParams params;
};

bool rootless(CollectiveKind kind) {
  return kind == CollectiveKind::kAllgather || kind == CollectiveKind::kScan ||
         kind == CollectiveKind::kAlltoall;
}

/// Every (machine, collective, request kind) triple the planners accept, in a
/// fixed order that is also the popularity rank (most popular first): the
/// small paper machines take ~80% of the draws, p = 512 ~11%, p = 4096 ~10%.
/// The structure of each scenario (shares, top phase) is fixed by its
/// position.
std::vector<Scenario> make_scenarios(std::uint64_t seed) {
  static constexpr double kCycleR[] = {1.0, 1.5, 2.0, 3.0};
  const std::vector<std::shared_ptr<const hbsp::MachineTree>> machines = {
      std::make_shared<const hbsp::MachineTree>(hbsp::make_paper_testbed(10)),
      std::make_shared<const hbsp::MachineTree>(hbsp::make_figure1_cluster()),
      std::make_shared<const hbsp::MachineTree>(hbsp::make_wide_area_grid()),
      std::make_shared<const hbsp::MachineTree>(
          hbsp::make_uniform_tree(3, 8, kCycleR)),
      std::make_shared<const hbsp::MachineTree>(
          hbsp::make_uniform_tree(4, 8, kCycleR)),
  };
  const CollectiveKind collectives[] = {
      CollectiveKind::kGather,    CollectiveKind::kBroadcast,
      CollectiveKind::kScatter,   CollectiveKind::kReduce,
      CollectiveKind::kAllgather, CollectiveKind::kScan,
      CollectiveKind::kAlltoall};
  const RequestKind kinds[] = {RequestKind::kAdvise, RequestKind::kPlan,
                               RequestKind::kSimulate};
  Draw draw{seed, 0x5e7c};
  std::vector<Scenario> scenarios;
  for (const auto& tree : machines) {
    for (const CollectiveKind collective : collectives) {
      // Scan and alltoall plan only on flat machines.
      if (tree->height() > 1 && (collective == CollectiveKind::kScan ||
                                 collective == CollectiveKind::kAlltoall)) {
        continue;
      }
      for (const RequestKind kind : kinds) {
        const std::size_t position = scenarios.size();
        Scenario s;
        s.kind = kind;
        s.tree = tree;
        s.collective = collective;
        // The scaled machines' plans dominate the caches' memory; their n
        // and root stay fixed so peak RSS does not move with the seed.
        const bool scaled = tree->num_processors() > 64;
        const auto p = static_cast<std::uint64_t>(tree->num_processors());
        s.n = std::size_t{1} << (10 + (scaled ? position % 5 : draw.below(5)));
        s.spec.kind = collective;
        s.spec.n = s.n;
        s.spec.root_pid =
            rootless(collective)
                ? -1
                : static_cast<int>(scaled ? position * 7919 % p
                                          : draw.below(p));
        s.spec.shares = position % 2 == 0 ? hbsp::coll::Shares::kEqual
                                          : hbsp::coll::Shares::kBalanced;
        s.spec.top_phase = position / 2 % 2 == 0
                               ? hbsp::coll::TopPhase::kOnePhase
                               : hbsp::coll::TopPhase::kTwoPhase;
        scenarios.push_back(std::move(s));
      }
    }
  }
  return scenarios;
}

hbsp::svc::Ticket submit(hbsp::svc::Service& service, const Scenario& s) {
  switch (s.kind) {
    case RequestKind::kAdvise:
      return service.submit(
          hbsp::svc::AdviseRequest{s.tree, s.collective, s.n, s.params});
    case RequestKind::kPlan:
      return service.submit(hbsp::svc::PlanRequest{s.tree, s.spec});
    case RequestKind::kSimulate:
      break;
  }
  return service.submit(
      hbsp::svc::SimulateRequest{s.tree, s.spec, s.params, nullptr});
}

struct Pending {
  hbsp::svc::Ticket ticket;
  double submitted = 0.0;
  std::size_t scenario = 0;
  std::uint64_t ordinal = 0;
};

/// Quadratic popularity skew toward the front of the scenario list.
std::size_t pick(Draw& draw, std::size_t count) {
  const double u = draw.unit();
  return std::min(count - 1,
                  static_cast<std::size_t>(u * u * static_cast<double>(count)));
}

/// Submits every scenario once, one at a time, and returns the responses in
/// scenario order (an empty optional for a failed request). One request in
/// flight keeps the fill's work and its memory peak the same on every run.
std::vector<std::optional<hbsp::svc::Response>> fill(
    hbsp::svc::Service& service, const std::vector<Scenario>& scenarios) {
  std::vector<std::optional<hbsp::svc::Response>> responses(scenarios.size());
  for (std::size_t j = 0; j < scenarios.size(); ++j) {
    try {
      hbsp::svc::Response response =
          submit(service, scenarios[j]).response.get();
      if (response.outcome == hbsp::svc::Outcome::kCompleted) {
        responses[j] = std::move(response);
      }
    } catch (...) {
      // Left empty: counted as a failed fill request.
    }
  }
  return responses;
}

/// Seconds spent in the direct calls that check the fill, per layer.
struct FillTimes {
  double plan_s = 0.0;
  double cost_s = 0.0;
  double simulate_s = 0.0;
};

/// The fill's response must equal the direct advisor, planner, cost-model
/// and simulator calls. Accumulates the time of each call into `times`.
bool matches_direct(const Scenario& s, const hbsp::svc::ResponseBody& body,
                    FillTimes& times) {
  hbsp::coll::PlanRequest spec = s.spec;
  if (s.kind == RequestKind::kAdvise) {
    const hbsp::coll::CollectiveAdvice advice =
        hbsp::coll::advise(*s.tree, s.collective, s.n);
    spec = advice.request(s.n);
    if (advice.rationale != body.rationale) return false;
  }
  if (!(spec == body.spec) || body.plan == nullptr) return false;
  double t0 = now_s();
  const hbsp::CommSchedule schedule = hbsp::coll::build_plan(*s.tree, spec);
  const double t1 = now_s();
  const double cost = hbsp::CostModel{*s.tree}.cost(schedule).total();
  times.plan_s += t1 - t0;
  times.cost_s += now_s() - t1;
  if (schedule.fingerprint() != body.plan->schedule.fingerprint() ||
      cost != body.plan->predicted_cost) {
    return false;
  }
  if (s.kind == RequestKind::kPlan) return !body.simulated;
  t0 = now_s();
  hbsp::sim::ClusterSim sim{*s.tree, s.params};
  const double makespan = sim.run(schedule).makespan;
  times.simulate_s += now_s() - t0;
  return body.simulated && makespan == body.simulated_makespan;
}

/// What every timed response for one scenario must carry: the fill's
/// response body, already checked against the direct calls.
struct Expected {
  hbsp::svc::ResponseBody body;
  std::uint64_t fingerprint = 0;  ///< body.content_fingerprint()
};

/// Whether `got` has the content of `want`. The plan is immutable and shared
/// with the plan cache, so a warm response normally carries the fill's plan
/// object: then comparing the pointer and the other fields is the content
/// check, without re-hashing the schedule in the timed loop. A response with
/// another plan object is compared by content fingerprint; `slow_checks`
/// counts those.
bool matches(const hbsp::svc::ResponseBody& got, const Expected& want,
             std::uint64_t& slow_checks) {
  if (got.plan != want.body.plan) {
    ++slow_checks;
    return got.content_fingerprint() == want.fingerprint;
  }
  return got.spec == want.body.spec && got.simulated == want.body.simulated &&
         got.simulated_makespan == want.body.simulated_makespan &&
         got.rationale == want.body.rationale;
}

struct Histo {
  std::uint64_t count = 0;
  double sum = 0.0;
};

Histo histogram(const hbsp::obs::MetricsSnapshot& snapshot,
                const std::string& name) {
  const hbsp::obs::HistogramValue* h = snapshot.histogram(name);
  return h != nullptr ? Histo{h->count, h->sum} : Histo{};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Result run_svc_warm(const Options& options, SpanLog* spans) {
  Result result;
  result.tail_q = 0.99;

  // Set-up, repeated: machines, scenarios, a fresh started service and the
  // cold fill through it. The first fill's registry deltas are the exact
  // per-request counts.
  static const char* const kCounts[] = {
      "sim.events",     "sim.messages_delivered", "sim.phases",
      "plancache.hits", "plancache.misses",       "scenario.hits",
      "scenario.misses"};
  std::map<std::string, double> counts;
  std::vector<Scenario> scenarios;
  std::vector<std::optional<hbsp::svc::Response>> filled;
  std::unique_ptr<hbsp::svc::Service> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    hbsp::coll::PlanCache::global().clear();
    hbsp::exp::ScenarioCache::global().clear();
    std::map<std::string, std::uint64_t> before;
    for (const char* name : kCounts) before[name] = counter(name);
    const double t0 = now_s();
    scenarios = make_scenarios(options.seed);
    service = std::make_unique<hbsp::svc::Service>(
        hbsp::svc::ServiceConfig{.threads = kServiceThreads});
    service->start();
    filled = fill(*service, scenarios);
    result.setup_s.push_back(now_s() - t0);
    if (rep == 0) {
      for (const char* name : kCounts) {
        counts[name] = static_cast<double>(counter(name) - before[name]) /
                       static_cast<double>(scenarios.size());
      }
    }
  }

  // Output check of the fill against the direct calls; its responses are
  // what every timed response must reproduce.
  std::vector<std::optional<Expected>> expected(scenarios.size());
  FillTimes fill_times;
  for (std::size_t j = 0; j < scenarios.size(); ++j) {
    ++result.attempted;
    if (!filled[j].has_value() ||
        !matches_direct(scenarios[j], filled[j]->body, fill_times)) {
      ++result.failed;
      continue;
    }
    expected[j] = Expected{filled[j]->body,
                           filled[j]->body.content_fingerprint()};
  }
  std::uint64_t slow_checks = 0;

  const hbsp::obs::MetricsSnapshot before =
      hbsp::obs::Registry::global().snapshot();
  Draw draw{options.seed, 0xd7a3};
  std::deque<Pending> window;
  std::uint64_t ordinal = 0;
  // Checks and retires one response: the first one already complete, or
  // else the oldest, waiting for it.
  const auto collect = [&] {
    auto done =
        std::find_if(window.begin(), window.end(), [](const Pending& p) {
          return p.ticket.response.wait_for(std::chrono::seconds{0}) ==
                 std::future_status::ready;
        });
    if (done == window.end()) done = window.begin();
    const std::optional<Expected>& want = expected[done->scenario];
    const bool tamper = options.tamper_every > 0 &&
                        done->ordinal % options.tamper_every == 0;
    ++result.attempted;
    try {
      const hbsp::svc::Response& response = done->ticket.response.get();
      bool ok = response.outcome == hbsp::svc::Outcome::kCompleted &&
                want.has_value();
      if (ok && tamper) {
        Expected wrong = *want;
        wrong.body.simulated_makespan =
            std::nextafter(wrong.body.simulated_makespan, 1e300);
        wrong.fingerprint ^= 1;
        ok = matches(response.body, wrong, slow_checks);
      } else if (ok) {
        ok = matches(response.body, *want, slow_checks);
      }
      if (ok) {
        result.latencies.add(response.provenance.completed_at -
                             done->submitted);
      } else {
        ++result.failed;
      }
    } catch (...) {
      ++result.failed;
    }
    window.erase(done);
  };
  const long switches0 = involuntary_switches();
  const double cpu0 = process_cpu_s();
  const double gen0 = thread_cpu_s();
  const double t0 = now_s();
  while (now_s() - t0 < options.seconds) {
    while (window.size() < kOutstanding) {
      Pending pending;
      pending.scenario = pick(draw, scenarios.size());
      pending.ordinal = ordinal++;
      pending.submitted = hbsp::svc::now_seconds();
      {
        const Scope span{spans, "svc.submit"};
        pending.ticket = submit(*service, scenarios[pending.scenario]);
      }
      window.push_back(std::move(pending));
    }
    collect();
  }
  while (!window.empty()) collect();
  result.window_s = now_s() - t0;
  result.cpu_s = process_cpu_s() - cpu0;
  result.involuntary_switches = involuntary_switches() - switches0;
  result.notes["generator_cpu_s"] = std::to_string(thread_cpu_s() - gen0);
  result.notes["slow_checks"] = std::to_string(slow_checks);
  const hbsp::obs::MetricsSnapshot after =
      hbsp::obs::Registry::global().snapshot();
  service->stop();

  if (spans != nullptr) {
    const auto delta = [&](const std::string& name) {
      return static_cast<double>(after.counter(name) - before.counter(name));
    };
    const Histo exec0 = histogram(before, "svc.exec_seconds");
    const Histo exec1 = histogram(after, "svc.exec_seconds");
    const Histo lat0 = histogram(before, "svc.latency_seconds");
    const Histo lat1 = histogram(after, "svc.latency_seconds");
    const double exec_mean =
        ratio(exec1.sum - exec0.sum,
              static_cast<double>(exec1.count - exec0.count));
    const double latency_mean = ratio(
        lat1.sum - lat0.sum, static_cast<double>(lat1.count - lat0.count));
    result.layers["svc.submit_us"] = spans->mean_s("svc.submit") * 1e6;
    result.layers["svc.exec_us"] = exec_mean * 1e6;
    result.layers["svc.queue_wait_us"] = (latency_mean - exec_mean) * 1e6;
    result.layers["svc.coalesced_ratio"] =
        ratio(delta("svc.coalesced"), delta("svc.requests"));
    result.layers["plancache.hit_ratio"] =
        ratio(delta("plancache.hits"),
              delta("plancache.hits") + delta("plancache.misses"));
    result.layers["scenario.hit_ratio"] =
        ratio(delta("scenario.hits"),
              delta("scenario.hits") + delta("scenario.misses"));
    result.layers["collectives.fill_plan_s"] = fill_times.plan_s;
    result.layers["core.fill_cost_s"] = fill_times.cost_s;
    result.layers["experiments.fill_simulate_s"] = fill_times.simulate_s;

    // Layer probes on the mix's warm keys, after the timed window.
    Draw probe{options.seed, 0x9b0e};
    for (std::uint64_t i = 0; i < kProbeDraws; ++i) {
      const std::size_t j = pick(probe, scenarios.size());
      if (!filled[j].has_value()) continue;
      const Scenario& s = scenarios[j];
      const hbsp::svc::ResponseBody& body = filled[j]->body;
      {
        const Scope span{spans, "collectives.plancache_get"};
        (void)hbsp::coll::PlanCache::global().get(*s.tree, body.spec);
      }
      if (body.simulated) {
        const Scope span{spans, "experiments.simulate_makespan"};
        (void)hbsp::exp::simulate_makespan(*s.tree, body.plan->schedule,
                                           s.params);
      }
      const Scope span{spans, "core.fingerprint"};
      (void)body.plan->schedule.fingerprint();
    }
    result.layers["collectives.plancache_hit_us"] =
        spans->mean_s("collectives.plancache_get") * 1e6;
    result.layers["experiments.scenario_hit_us"] =
        spans->mean_s("experiments.simulate_makespan") * 1e6;
    result.layers["core.fingerprint_us"] =
        spans->mean_s("core.fingerprint") * 1e6;

    // Registry handle lookups, in batches: a span per call would cost more
    // than the call.
    static const std::string kNames[] = {
        "svc.requests", "svc.requests.plan", "svc.completed",
        "svc.coalesced", "plancache.hits", "scenario.hits"};
    constexpr std::size_t kBatch = 60000;
    for (int batch = 0; batch < 5; ++batch) {
      const Scope span{spans, "obs.counter_lookup_batch"};
      for (std::size_t i = 0; i < kBatch; ++i) {
        (void)hbsp::obs::Registry::global().counter(kNames[i % 6]);
      }
    }
    result.layers["obs.counter_lookup_ns"] =
        spans->mean_s("obs.counter_lookup_batch") * 1e9 /
        static_cast<double>(kBatch);
    for (const auto& [name, value] : counts) result.layers[name] = value;
  }
  return result;
}

}  // namespace perfbench
