// Experiment helpers beside the load driver: payload tokens, Fill, and
// the closed loop's WA breakdown, measured over the measurement window
// only.

#include "sim/load_driver.h"

#include <gtest/gtest.h>

#include "ftl/gecko_ftl.h"
#include "tests/ftl/ftl_test_util.h"
#include "workload/workload.h"

namespace gecko {
namespace {

TEST(FtlExperimentTest, PayloadTokensAreDistinctPerVersion) {
  EXPECT_NE(RequestStream::PayloadToken(1, 1),
            RequestStream::PayloadToken(1, 2));
  EXPECT_NE(RequestStream::PayloadToken(1, 1),
            RequestStream::PayloadToken(2, 1));
  EXPECT_EQ(RequestStream::PayloadToken(7, 9),
            RequestStream::PayloadToken(7, 9));
}

TEST(FtlExperimentTest, FillWritesEveryPageOnce) {
  FlashDevice device(FtlTestGeometry());
  GeckoFtl ftl(&device, GeckoFtl::DefaultConfig(128));
  Fill(ftl, device.geometry().NumLogicalPages());
  EXPECT_EQ(device.stats().counters().logical_writes,
            device.geometry().NumLogicalPages());
  uint64_t payload = 0;
  ASSERT_TRUE(ftl.Read(0, &payload).ok());
  EXPECT_EQ(payload, RequestStream::PayloadToken(0, 0));
}

TEST(FtlExperimentTest, ClosedLoopWaCoversOnlyMeasurementWindow) {
  FlashDevice device(FtlTestGeometry());
  GeckoFtl ftl(&device, GeckoFtl::DefaultConfig(128));
  Fill(ftl, device.geometry().NumLogicalPages());
  UniformWorkload workload(device.geometry().NumLogicalPages(), 1);
  RequestStream stream(&workload, {.batch_size = 1});
  LoadDriver driver(&ftl, &device);
  driver.Run({.until_extents = 2000}, stream);
  const uint64_t writes_before = device.stats().counters().logical_writes;
  LoadReport r = driver.Run({.until_extents = 5000}, stream);
  EXPECT_EQ(r.arrivals, 3000u);
  EXPECT_EQ(r.completed, 3000u);
  EXPECT_EQ(r.extents_completed, 3000u);
  EXPECT_EQ(r.latency.count(), 3000u);
  EXPECT_EQ(r.io.logical_writes,
            device.stats().counters().logical_writes - writes_before);
  EXPECT_GT(r.elapsed_us, 0.0);
  EXPECT_EQ(r.offered_kiops, 0.0);  // no arrival clock
  EXPECT_GT(r.achieved_kiops, 0.0);
  // Under GC pressure every category is active and positive.
  const WaBreakdown& wa = r.wa;
  EXPECT_GT(wa.total, 0.0);
  EXPECT_GE(wa.user_and_gc, 0.0);
  EXPECT_GT(wa.translation, 0.0);
  EXPECT_GT(wa.page_validity, 0.0);
  // The breakdown never exceeds the total.
  EXPECT_LE(wa.user_and_gc + wa.translation + wa.page_validity,
            wa.total + 1e-9);
}

}  // namespace
}  // namespace gecko
