// Tests for the seeded load-test harness (src/svc/load_harness). The
// deterministic half of a LoadReport — outcome tally and content checksum —
// must be a pure function of (seed, qps, duration, mode, expired_fraction),
// invariant under executor threads. The measured half
// (wall time, throughput, latency percentiles) is only sanity-checked.

#include "svc/load_harness.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hbsp::svc {
namespace {

struct Tally {
  std::uint64_t submitted;
  std::uint64_t completed;
  std::uint64_t coalesced;
  std::uint64_t shed_queue_full;
  std::uint64_t shed_deadline;
  std::uint64_t failed;
  std::uint64_t content_checksum;

  bool operator==(const Tally&) const = default;
};

Tally tally_of(const LoadReport& report) {
  return {report.submitted,       report.completed,    report.coalesced,
          report.shed_queue_full, report.shed_deadline, report.failed,
          report.content_checksum};
}

LoadConfig base_config(LoadMode mode) {
  LoadConfig config;
  config.mode = mode;
  config.qps = 200.0;
  config.duration = 0.5;
  config.queue_capacity = 12;
  config.expired_fraction = 0.125;
  return config;
}

TEST(LoadGen, TallyInvariantAcrossThreads) {
  for (const LoadMode mode : {LoadMode::kOpenLoop, LoadMode::kClosedLoop}) {
    LoadConfig reference_config = base_config(mode);
    reference_config.threads = 1;
    const Tally reference = tally_of(run_load(reference_config));
    EXPECT_GT(reference.submitted, 0u) << to_string(mode);

    LoadConfig wide = base_config(mode);
    wide.threads = 4;
    EXPECT_EQ(tally_of(run_load(wide)), reference) << to_string(mode);
  }
}

TEST(LoadGen, SeedChangesChecksum) {
  LoadConfig config = base_config(LoadMode::kOpenLoop);
  const LoadReport a = run_load(config);
  config.seed ^= 0x9e3779b97f4a7c15ULL;
  const LoadReport b = run_load(config);
  EXPECT_NE(a.content_checksum, b.content_checksum);
}

TEST(LoadGen, OutcomesPartitionSubmissions) {
  const LoadReport report = run_load(base_config(LoadMode::kOpenLoop));
  EXPECT_EQ(report.completed + report.shed_queue_full + report.shed_deadline +
                report.failed,
            report.submitted);
}

TEST(LoadGen, ExpiredFractionProducesDeadlineSheds) {
  LoadConfig config = base_config(LoadMode::kOpenLoop);
  EXPECT_GT(run_load(config).shed_deadline, 0u);
  config.expired_fraction = 0.0;
  EXPECT_EQ(run_load(config).shed_deadline, 0u);
}

TEST(LoadGen, TightQueueShedsOpenLoopBursts) {
  // 400 qps over 0.05 s ticks = 20 arrivals per burst against a 12-slot
  // queue: deterministic queue-full sheds every round.
  LoadConfig config = base_config(LoadMode::kOpenLoop);
  config.qps = 400.0;
  config.expired_fraction = 0.0;
  EXPECT_GT(run_load(config).shed_queue_full, 0u);
}

TEST(LoadGen, PercentilesAreOrderedAndMeasuredFieldsSane) {
  const LoadReport report = run_load(base_config(LoadMode::kClosedLoop));
  ASSERT_GT(report.completed, 0u);
  EXPECT_LE(report.latency_p50, report.latency_p95);
  EXPECT_LE(report.latency_p95, report.latency_p99);
  EXPECT_GE(report.latency_p50, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.throughput_rps, 0.0);
}

TEST(LoadGen, RejectsInvalidConfigs) {
  LoadConfig bad = base_config(LoadMode::kOpenLoop);
  bad.qps = 0.0;
  EXPECT_THROW((void)run_load(bad), std::invalid_argument);

  bad = base_config(LoadMode::kOpenLoop);
  bad.duration = -1.0;
  EXPECT_THROW((void)run_load(bad), std::invalid_argument);

  bad = base_config(LoadMode::kClosedLoop);
  bad.clients = 0;
  EXPECT_THROW((void)run_load(bad), std::invalid_argument);

  bad = base_config(LoadMode::kOpenLoop);
  bad.expired_fraction = 1.5;
  EXPECT_THROW((void)run_load(bad), std::invalid_argument);

  bad = base_config(LoadMode::kOpenLoop);
  bad.threads = 0;
  EXPECT_THROW((void)run_load(bad), std::invalid_argument);
}

}  // namespace
}  // namespace hbsp::svc
