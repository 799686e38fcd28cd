// The load driver's open-loop regime (inter_arrival_us > 0) on all five
// FTLs: every arrival completes, overflow beyond the queue depth defers
// FIFO instead of being dropped, and latency includes overflow-queue
// wait.

#include "sim/load_driver.h"

#include <gtest/gtest.h>

#include "tests/ftl/ftl_test_util.h"
#include "workload/workload.h"

namespace gecko {
namespace {

class OpenLoopDriverTest : public ChannelFtlTest {};

constexpr Lpn kSpan = 64;

LoadReport RunOpenLoop(Ftl* ftl, FlashDevice* device, uint64_t requests,
                       double inter_arrival_us, double read_fraction) {
  Fill(*ftl, kSpan, /*batch_size=*/16);
  EXPECT_TRUE(ftl->Flush().ok());
  device->stats().Reset();

  UniformWorkload workload(kSpan, 42);
  RequestStream::Options sopt;
  sopt.batch_size = 1;
  sopt.read_fraction = read_fraction;
  sopt.seed = 7;
  RequestStream stream(&workload, sopt);

  LoadDriver driver(ftl, device);
  return driver.Run(
      {.inter_arrival_us = inter_arrival_us, .requests = requests}, stream);
}

TEST_P(OpenLoopDriverTest, EveryArrivalCompletesAndLatencyIsAccounted) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128,
                     [](FtlConfig& c) { c.async_queue_depth = 8; });
  LoadReport r = RunOpenLoop(ftl.get(), &device, 128,
                             /*inter_arrival_us=*/50.0,
                             /*read_fraction=*/0.25);
  EXPECT_EQ(r.arrivals, 128u);
  EXPECT_EQ(r.completed, 128u);
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_EQ(r.failed_extents, 0u);
  EXPECT_EQ(r.extents_completed, r.extents_offered);
  EXPECT_EQ(r.latency.count(), 128u);
  EXPECT_GT(r.achieved_kiops, 0.0);
  EXPECT_GE(r.latency.P99(), r.latency.P50());
  EXPECT_GE(r.latency.Percentile(0.999), r.latency.P99());
  EXPECT_GE(r.latency.MaxUs(), r.latency.Percentile(0.999));
  EXPECT_EQ(ftl->InFlightRequests(), 0u);
  EXPECT_EQ(device.stats().host_inflight(), 0u);
  EXPECT_LE(device.stats().host_inflight_watermark(), 8u);
}

TEST_P(OpenLoopDriverTest, SaturatingLoadDefersButLosesNothing) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128,
                     [](FtlConfig& c) { c.async_queue_depth = 2; });
  // One arrival per microsecond against millisecond-scale writes: almost
  // every arrival finds the 2-deep queue full and must wait its turn.
  LoadReport r = RunOpenLoop(ftl.get(), &device, 64,
                             /*inter_arrival_us=*/1.0,
                             /*read_fraction=*/0.0);
  EXPECT_EQ(r.completed, 64u);
  EXPECT_GT(r.deferrals, 0u);
  EXPECT_EQ(device.stats().host_inflight_watermark(), 2u);
  // The run takes as long as the device needs, far beyond the arrival
  // window, and the tail reflects time spent in the overflow queue.
  EXPECT_GT(r.elapsed_us, 64 * 1.0);
  EXPECT_GT(r.latency.P99(), r.latency.P50() / 2);
}

TEST_P(OpenLoopDriverTest, BackToBackRunsMeasureIndependently) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128,
                     [](FtlConfig& c) { c.async_queue_depth = 4; });
  LoadReport first = RunOpenLoop(ftl.get(), &device, 32, 100.0, 0.0);
  EXPECT_EQ(first.completed, 32u);

  UniformWorkload workload(kSpan, 43);
  RequestStream::Options sopt;
  sopt.batch_size = 1;
  sopt.seed = 8;
  RequestStream stream(&workload, sopt);
  LoadDriver driver(ftl.get(), &device);
  LoadReport second =
      driver.Run({.inter_arrival_us = 100.0, .requests = 32}, stream);
  EXPECT_EQ(second.arrivals, 32u);
  EXPECT_EQ(second.completed, 32u);
  EXPECT_EQ(second.latency.count(), 32u);
}

GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(OpenLoopDriverTest);

}  // namespace
}  // namespace gecko
