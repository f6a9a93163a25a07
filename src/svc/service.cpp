#include "svc/service.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "collectives/advisor.hpp"
#include "experiments/chaos.hpp"
#include "experiments/figures.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace hbsp::svc {

const char* to_string(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::kAdvise:
      return "advise";
    case RequestKind::kPlan:
      return "plan";
    case RequestKind::kSimulate:
      return "simulate";
  }
  return "unknown";
}

const char* to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kRejectedQueueFull:
      return "rejected_queue_full";
    case Outcome::kRejectedDeadlineExceeded:
      return "rejected_deadline_exceeded";
  }
  return "unknown";
}

std::uint64_t ResponseBody::content_fingerprint() const noexcept {
  util::Hash64 hash;
  hash.add(coll::plan_request_fingerprint(spec));
  hash.add(plan != nullptr ? plan->schedule_fingerprint : 0u);
  hash.add_double(plan != nullptr ? plan->predicted_cost : 0.0);
  hash.add_int(simulated ? 1 : 0);
  hash.add_double(simulated_makespan);
  hash.add_string(rationale);
  return hash.digest();
}

std::uint64_t Service::Canonical::key() const noexcept {
  util::Hash64 hash;
  hash.add_int(static_cast<int>(kind));
  hash.add(tree_fingerprint);
  switch (kind) {
    case RequestKind::kAdvise:
      hash.add_int(static_cast<int>(collective));
      hash.add(static_cast<std::uint64_t>(n));
      hash.add(params_fingerprint);
      break;
    case RequestKind::kPlan:
      hash.add(coll::plan_request_fingerprint(spec));
      break;
    case RequestKind::kSimulate:
      hash.add(coll::plan_request_fingerprint(spec));
      hash.add(params_fingerprint);
      hash.add_int(fault_plan != nullptr ? 1 : 0);
      hash.add(fault_fingerprint);
      break;
  }
  return hash.digest();
}

bool Service::Canonical::same_content(const Canonical& other) const noexcept {
  if (kind != other.kind || tree_fingerprint != other.tree_fingerprint) {
    return false;
  }
  switch (kind) {
    case RequestKind::kAdvise:
      return collective == other.collective && n == other.n &&
             params_fingerprint == other.params_fingerprint;
    case RequestKind::kPlan:
      return spec == other.spec;
    case RequestKind::kSimulate:
      return spec == other.spec &&
             params_fingerprint == other.params_fingerprint &&
             (fault_plan != nullptr) == (other.fault_plan != nullptr) &&
             fault_fingerprint == other.fault_fingerprint;
  }
  return false;
}

namespace {

/// A future that is already resolved — what rejected submissions hand back.
std::shared_future<Response> ready_future(Response response) {
  std::promise<Response> promise;
  promise.set_value(std::move(response));
  return promise.get_future().share();
}

/// One trace track per submit ordinal ("req000042"): deterministic in the
/// submit sequence, and written only by whichever thread owns the ordinal's
/// span — the recorder's one-writer-per-track contract.
std::string request_track(std::uint64_t ordinal) {
  std::string digits = std::to_string(ordinal);
  std::string track = "req";
  if (digits.size() < 6) track.append(6 - digits.size(), '0');
  track += digits;
  return track;
}

}  // namespace

Service::Service(ServiceConfig config)
    : config_{config.threads, config.queue_capacity,
              std::max<std::uint64_t>(1, config.trace_sample_every),
              config.trace_seed},
      pool_(config.threads) {}

Service::~Service() { stop(); }

Ticket Service::submit(AdviseRequest request, Deadline deadline) {
  if (request.tree == nullptr) {
    throw std::invalid_argument{"svc::AdviseRequest requires a machine tree"};
  }
  Canonical canonical;
  canonical.kind = RequestKind::kAdvise;
  canonical.tree = std::move(request.tree);
  canonical.tree_fingerprint = canonical.tree->fingerprint();
  canonical.collective = request.collective;
  canonical.n = request.n;
  canonical.params = request.params;
  canonical.params_fingerprint = request.params.fingerprint();
  return admit(std::move(canonical), deadline);
}

Ticket Service::submit(PlanRequest request, Deadline deadline) {
  if (request.tree == nullptr) {
    throw std::invalid_argument{"svc::PlanRequest requires a machine tree"};
  }
  Canonical canonical;
  canonical.kind = RequestKind::kPlan;
  canonical.tree = std::move(request.tree);
  canonical.tree_fingerprint = canonical.tree->fingerprint();
  canonical.spec = request.spec;
  return admit(std::move(canonical), deadline);
}

Ticket Service::submit(SimulateRequest request, Deadline deadline) {
  if (request.tree == nullptr) {
    throw std::invalid_argument{"svc::SimulateRequest requires a machine tree"};
  }
  Canonical canonical;
  canonical.kind = RequestKind::kSimulate;
  canonical.tree = std::move(request.tree);
  canonical.tree_fingerprint = canonical.tree->fingerprint();
  canonical.spec = request.spec;
  canonical.params = request.params;
  canonical.params_fingerprint = request.params.fingerprint();
  canonical.fault_plan = std::move(request.fault_plan);
  canonical.fault_fingerprint = canonical.fault_plan != nullptr
                                    ? canonical.fault_plan->fingerprint()
                                    : 0u;
  return admit(std::move(canonical), deadline);
}

Ticket Service::admit(Canonical request, Deadline deadline) {
  const std::uint64_t key = request.key();
  const double now = now_seconds();

  obs::Registry& registry = obs::Registry::global();
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  std::lock_guard lock{mutex_};
  // The warm-path handles, resolved once per thread: Registry::global()
  // never frees a shard, and reset() zeroes cells in place. A per-kind
  // counter is created on that kind's first request, as before, so a
  // snapshot lists only the kinds that were submitted.
  thread_local obs::Counter requests = registry.counter("svc.requests");
  thread_local std::optional<obs::Counter> requests_by_kind[3];
  std::optional<obs::Counter>& by_kind =
      requests_by_kind[static_cast<std::size_t>(request.kind)];
  if (!by_kind) {
    by_kind = registry.counter(std::string{"svc.requests."} +
                               to_string(request.kind));
  }
  requests.increment();
  by_kind->increment();
  // Every submit owns an ordinal; at trace_sample_every == 1 each sampled
  // ordinal yields exactly one kRequest span, so span count == svc.requests.
  const std::uint64_t ordinal = next_ordinal_++;
  const bool traced =
      recorder.enabled() &&
      obs::TraceRecorder::sampled(config_.trace_seed, ordinal,
                                  config_.trace_sample_every);

  // 1. Coalesce: an in-flight twin (queued or executing, promise not yet
  //    fulfilled) answers for us. Checked before the deadline so an expired
  //    request whose twin is still wanted gets served rather than shed.
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    for (const std::shared_ptr<Job>& job : it->second) {
      if (!job->request.same_content(request)) continue;  // hash collision
      job->member_submits.push_back(now);
      job->effective_deadline = std::max(job->effective_deadline, deadline.at);
      thread_local obs::Counter coalesced = registry.counter("svc.coalesced");
      coalesced.increment();
      if (traced) {
        recorder.record_span(
            request_track(ordinal), "coalesced", obs::SpanKind::kRequest,
            obs::Timebase::kWall, now, now,
            {{"leader", static_cast<std::int64_t>(job->ordinal)}});
      }
      return Ticket{job->future, key, true};
    }
  }

  // 2. Deadline: an already-expired request with no twin never executes.
  if (deadline.passed(now)) {
    registry.counter("svc.shed.deadline").increment();
    if (traced) {
      recorder.record_span(request_track(ordinal), "shed.deadline",
                           obs::SpanKind::kRequest, obs::Timebase::kWall, now,
                           now);
    }
    Response response;
    response.outcome = Outcome::kRejectedDeadlineExceeded;
    response.provenance = Provenance{key, 1, now};
    return Ticket{ready_future(std::move(response)), key, false};
  }

  // 3. Capacity: the admission queue is bounded.
  if (config_.queue_capacity > 0 && queue_.size() >= config_.queue_capacity) {
    registry.counter("svc.shed.queue_full").increment();
    if (traced) {
      recorder.record_span(request_track(ordinal), "shed.queue_full",
                           obs::SpanKind::kRequest, obs::Timebase::kWall, now,
                           now);
    }
    Response response;
    response.outcome = Outcome::kRejectedQueueFull;
    response.provenance = Provenance{key, 1, now};
    return Ticket{ready_future(std::move(response)), key, false};
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->key = key;
  job->ordinal = ordinal;
  job->traced = traced;
  job->effective_deadline = deadline.at;
  job->member_submits.push_back(now);
  job->future = job->promise.get_future().share();

  queue_.push_back(job);
  inflight_[key].push_back(job);
  if (queue_.size() > depth_high_water_) {
    depth_high_water_ = queue_.size();
    registry.gauge("svc.queue_depth").set(static_cast<double>(queue_.size()));
  }
  work_cv_.notify_one();
  return Ticket{job->future, key, false};
}

Response Service::compute(const Canonical& request) {
  // Stage spans land on the request's own track (the TraceContext the
  // executor pushed); the simulator nests its virtual spans under the same
  // context. Muted (unsampled) computes skip all of this via enabled().
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  const bool tracing = recorder.enabled();
  const std::string track = tracing ? recorder.context() : std::string{};
  const auto stage = [&](const char* name, double begin) {
    if (tracing) {
      recorder.record_span(track, name, obs::SpanKind::kStage,
                           obs::Timebase::kWall, begin, now_seconds());
    }
  };

  Response response;
  response.outcome = Outcome::kCompleted;
  switch (request.kind) {
    case RequestKind::kAdvise: {
      double t0 = tracing ? now_seconds() : 0.0;
      const coll::CollectiveAdvice advice =
          coll::advise(*request.tree, request.collective, request.n);
      response.body.spec = advice.request(request.n);
      stage("advise", t0);
      t0 = tracing ? now_seconds() : 0.0;
      response.body.plan =
          coll::PlanCache::global().get(*request.tree, response.body.spec);
      stage("plan", t0);
      response.body.simulated = true;
      t0 = tracing ? now_seconds() : 0.0;
      response.body.simulated_makespan = exp::simulate_makespan(
          *request.tree, *response.body.plan, request.params);
      stage("simulate", t0);
      response.body.rationale = advice.rationale;
      break;
    }
    case RequestKind::kPlan: {
      response.body.spec = request.spec;
      const double t0 = tracing ? now_seconds() : 0.0;
      response.body.plan =
          coll::PlanCache::global().get(*request.tree, request.spec);
      stage("plan", t0);
      break;
    }
    case RequestKind::kSimulate: {
      response.body.spec = request.spec;
      double t0 = tracing ? now_seconds() : 0.0;
      response.body.plan =
          coll::PlanCache::global().get(*request.tree, request.spec);
      stage("plan", t0);
      response.body.simulated = true;
      t0 = tracing ? now_seconds() : 0.0;
      if (request.fault_plan != nullptr) {
        const faults::FaultInjector injector{*request.fault_plan};
        response.body.simulated_makespan = exp::simulate_makespan_with_faults(
            *request.tree, *response.body.plan, request.params, &injector);
      } else {
        response.body.simulated_makespan = exp::simulate_makespan(
            *request.tree, *response.body.plan, request.params);
      }
      stage("simulate", t0);
      break;
    }
  }
  return response;
}

void Service::execute(const std::shared_ptr<Job>& job) {
  obs::Registry& registry = obs::Registry::global();
  const double start = now_seconds();

  // A job every member of whom has given up is shed, not computed. The check
  // and the in-flight removal are atomic so a late twin can never attach to
  // a job that has already decided to shed.
  {
    std::lock_guard lock{mutex_};
    if (start > job->effective_deadline) {
      auto it = inflight_.find(job->key);
      if (it != inflight_.end()) {
        std::erase(it->second, job);
        if (it->second.empty()) inflight_.erase(it);
      }
      const std::uint64_t members = job->member_submits.size();
      registry.counter("svc.shed.deadline").add(members);
      if (job->traced && obs::TraceRecorder::global().enabled()) {
        // The leader's one kRequest span: its twins already recorded theirs
        // when they attached.
        obs::TraceRecorder::global().record_span(
            request_track(job->ordinal), "shed.dispatch",
            obs::SpanKind::kRequest, obs::Timebase::kWall, start, start,
            {{"served", static_cast<std::int64_t>(members)}});
      }
      Response response;
      response.outcome = Outcome::kRejectedDeadlineExceeded;
      response.provenance = Provenance{job->key, members, start};
      job->promise.set_value(std::move(response));
      return;
    }
  }

  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  const bool traced = job->traced && recorder.enabled();
  // An unsampled compute is muted so it cannot leak simulator spans onto the
  // sampled trace; a sampled one opens the request's root lifecycle span and
  // pushes its track as context for the stage and simulator spans below.
  std::optional<obs::TraceMute> mute;
  if (!job->traced && recorder.enabled()) mute.emplace();
  std::optional<obs::TraceContext> context;
  std::string track;
  if (traced) {
    track = request_track(job->ordinal);
    recorder.begin_span(track, to_string(job->request.kind),
                        obs::SpanKind::kRequest, obs::Timebase::kWall, start);
    recorder.record_span(track, "queue", obs::SpanKind::kStage,
                         obs::Timebase::kWall, job->member_submits.front(),
                         start);
    context.emplace(recorder, track);
  }

  Response response;
  std::exception_ptr error;
  try {
    response = compute(job->request);
  } catch (...) {
    error = std::current_exception();
  }
  const double end = now_seconds();

  // Detach from the in-flight table *before* fulfilling the promise: twins
  // found in the table always attach before the member snapshot below, so
  // every served request gets a latency sample and the served count is
  // exact.
  std::vector<double> members;
  {
    std::lock_guard lock{mutex_};
    auto it = inflight_.find(job->key);
    if (it != inflight_.end()) {
      std::erase(it->second, job);
      if (it->second.empty()) inflight_.erase(it);
    }
    members = std::move(job->member_submits);
  }

  if (traced) {
    context.reset();
    recorder.end_span(end,
                      {{"served", static_cast<std::int64_t>(members.size())},
                       {"coalesced",
                        static_cast<std::int64_t>(members.size() - 1)},
                       {"error", error != nullptr ? 1 : 0}});
  }

  if (error != nullptr) {
    job->promise.set_exception(error);
    return;
  }

  thread_local obs::Counter completed = registry.counter("svc.completed");
  thread_local obs::Histogram latency =
      registry.histogram("svc.latency_seconds");
  thread_local obs::Histogram exec = registry.histogram("svc.exec_seconds");
  completed.add(members.size());
  for (const double submitted : members) {
    latency.record(std::max(0.0, end - submitted));
  }
  exec.record(std::max(0.0, end - start));

  response.provenance = Provenance{job->key, members.size(), end};
  job->promise.set_value(std::move(response));
}

void Service::serve(bool park) {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock{mutex_};
      if (park) {
        work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      }
      if (queue_.empty()) return;  // drained (and, when parked, stopping_)
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(job);
  }
}

void Service::pump() {
  {
    std::lock_guard lock{mutex_};
    if (running_) {
      throw std::logic_error{
          "svc::Service::pump: background executor is running"};
    }
  }
  pool_.parallel_for(static_cast<std::size_t>(pool_.threads()),
                     [this](std::size_t) { serve(false); });
}

void Service::start() {
  {
    std::lock_guard lock{mutex_};
    if (running_) return;
    running_ = true;
    stopping_ = false;
  }
  const auto width = static_cast<std::size_t>(pool_.threads());
  executor_ = std::thread{[this, width] {
    pool_.parallel_for(width, [this](std::size_t) { serve(true); });
  }};
}

void Service::stop() {
  {
    std::lock_guard lock{mutex_};
    if (!running_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  executor_.join();
  std::lock_guard lock{mutex_};
  running_ = false;
  stopping_ = false;
}

bool Service::running() const {
  std::lock_guard lock{mutex_};
  return running_;
}

std::size_t Service::queue_depth() const {
  std::lock_guard lock{mutex_};
  return queue_.size();
}

}  // namespace hbsp::svc
