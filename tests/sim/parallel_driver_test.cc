// The load driver's threaded regime (threads > 0) on both MPSC queue
// backends: every arrival completes, throughput is measured in simulated
// device time, and forked per-thread streams make runs deterministic.

#include "sim/load_driver.h"

#include <memory>

#include <gtest/gtest.h>

#include "ftl/gecko_ftl.h"
#include "workload/workload.h"

namespace gecko {
namespace {

ShardedFtlOptions SmallShardedOptions(uint32_t num_shards, bool lock_free) {
  ShardedFtlOptions options;
  Geometry g;
  g.num_blocks = 64;
  g.pages_per_block = 16;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  g.num_channels = num_shards <= 4 ? num_shards : 4;
  options.geometry = g;
  options.num_shards = num_shards;
  options.config = GeckoFtl::DefaultConfig(64);
  options.lock_free_queue = lock_free;
  return options;
}

LoadReport RunThreaded(uint32_t threads, bool lock_free) {
  ShardedFtl sharded(
      SmallShardedOptions(4, lock_free),
      [](FlashDevice* device, const FtlConfig& config) {
        return std::make_unique<GeckoFtl>(device, config);
      });
  LoadDriver driver(&sharded);

  RequestStream::Options sopt;
  sopt.batch_size = 4;
  sopt.read_fraction = 0.25;
  sopt.seed = 11;
  RequestStream prototype(nullptr, sopt);
  const uint64_t capacity = sharded.shard_map().TotalLpns();
  LoadReport report = driver.Run(
      {.threads = threads, .inter_arrival_us = 500.0, .requests = 64},
      prototype, [capacity](uint32_t thread) {
        return std::make_unique<UniformWorkload>(capacity, 500 + thread);
      });
  EXPECT_EQ(sharded.InFlightRequests(), 0u);
  return report;
}

TEST(ParallelDriverTest, EveryArrivalCompletes) {
  for (bool lock_free : {false, true}) {
    SCOPED_TRACE(lock_free ? "lock-free queue" : "mutex queue");
    LoadReport report = RunThreaded(4, lock_free);
    EXPECT_EQ(report.arrivals, 4u * 64u);
    EXPECT_EQ(report.completed + report.aborted, report.arrivals);
    EXPECT_EQ(report.aborted, 0u);
    EXPECT_GT(report.extents_completed, 0u);
    EXPECT_EQ(report.extents_completed, report.extents_offered);
    EXPECT_GT(report.elapsed_us, 0.0);
    EXPECT_GT(report.achieved_kiops, 0.0);
    EXPECT_GT(report.io.TotalWrites(), 0u);
    EXPECT_EQ(report.latency.count(), report.completed);
    EXPECT_GE(report.latency.P99(), report.latency.P50());
  }
}

TEST(ParallelDriverTest, ForkedStreamsMakeRunsDeterministic) {
  // Same seeds, same thread count -> identical offered work. (Completion
  // interleaving varies with scheduling, but the workload must not.)
  LoadReport a = RunThreaded(2, true);
  LoadReport b = RunThreaded(2, true);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.extents_offered, b.extents_offered);
  EXPECT_EQ(a.extents_completed, b.extents_completed);
}

TEST(ParallelDriverTest, SingleThreadStillDrives) {
  LoadReport report = RunThreaded(1, true);
  EXPECT_EQ(report.arrivals, 64u);
  EXPECT_EQ(report.completed, 64u);
}

}  // namespace
}  // namespace gecko
