#pragma once
// Seeded load generator for svc::Service — the measurement half of the
// serving layer.
//
// The harness drives a Service with a reproducible request mix over the
// three standard machines (the 10-workstation testbed, Figure 1's campus
// hierarchy, the wide-area grid) and reports two kinds of results:
//
//   deterministic   the outcome tally (submitted / completed / coalesced /
//                   shed) and a commutative checksum over the completed
//                   responses' content fingerprints. These are pure
//                   functions of (config.seed, mix parameters): the harness
//                   submits each round's batch from one thread (admission
//                   outcomes are decided synchronously in submit order) and
//                   then pump()s the service to drain it, so the thread count
//                   can change *where* work runs but never what happens to
//                   any request. The perf gate exact-matches these, and the
//                   svc tests assert them across thread counts.
//
//   measured        wall-clock throughput and p50/p95/p99 latency, computed
//                   from client-side submit stamps and response completion
//                   stamps. Reported, never gated.
//
// The arrival model is virtual-time: --qps and --duration size the request
// schedule (total ≈ qps × duration, carved into per-tick batches), they do
// not pace real sleeps — a load run completes as fast as the service can
// serve it, which is exactly what makes it usable as a perf workload.
//
// Request mix: each request draws a scenario id with a quadratic skew toward
// popular scenarios (so coalescing has real work to do within a batch), and
// each scenario id expands deterministically into one request — machine,
// request kind (advise / plan / simulate), collective (flat-only collectives
// are only drawn for the flat testbed), problem size, root, shares, phase
// structure. A configurable fraction of requests carries an already-expired
// deadline, exercising deterministic load shedding.

#include <cstddef>
#include <cstdint>

namespace hbsp::svc {

/// How the generator offers load to the service.
enum class LoadMode : std::uint8_t {
  kOpenLoop,    ///< arrivals follow the qps schedule regardless of progress
  kClosedLoop,  ///< `clients` outstanding requests, next sent on completion
};

[[nodiscard]] const char* to_string(LoadMode mode) noexcept;

struct LoadConfig {
  LoadMode mode = LoadMode::kOpenLoop;
  int threads = 1;   ///< service executor width
  std::size_t queue_capacity = 64;  ///< service admission bound; 0 = unbounded
  double qps = 200.0;     ///< arrival rate of the virtual schedule (> 0)
  double duration = 1.0;  ///< virtual seconds of arrivals (> 0)
  int clients = 8;        ///< closed-loop concurrency (>= 1)
  std::uint64_t seed = 0x1db15eedULL;
  /// Fraction of requests submitted with an already-expired deadline —
  /// deterministic svc.shed.deadline traffic (coalescing onto a live twin
  /// still rescues such a request, as in production).
  double expired_fraction = 0.0;
};

/// One load run's results. The tally block and `content_checksum` are
/// deterministic (see the header comment); the latency/throughput block is
/// measured wall time.
struct LoadReport {
  // --- deterministic tally --------------------------------------------------
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;        ///< requests whose future carried a body
  std::uint64_t coalesced = 0;        ///< submits attached to an in-flight twin
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t failed = 0;           ///< futures that surfaced an exception
  /// Wrapping sum of content_fingerprint() over completed responses: one
  /// number that differs if any response body differs anywhere.
  std::uint64_t content_checksum = 0;

  // --- measured (reported, never gated) -------------------------------------
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;  ///< completed / wall_seconds
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
};

/// Runs the full load schedule against a fresh Service built from `config`
/// and returns the report. Throws std::invalid_argument for non-positive
/// qps/duration or clients < 1.
[[nodiscard]] LoadReport run_load(const LoadConfig& config);

}  // namespace hbsp::svc
