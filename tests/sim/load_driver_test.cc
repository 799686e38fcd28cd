// Load driver closed-loop tests: a closed-loop run is identical to a
// hand loop of Ftl::Submit on all five FTLs, and bursty idle slots run
// between bursts across Runs. The open-loop, threaded and helper cases
// live in open_loop_driver_test.cc, parallel_driver_test.cc and
// ftl_experiment_test.cc.

#include "sim/load_driver.h"

#include <cstring>
#include <type_traits>

#include <gtest/gtest.h>

#include "ftl/gecko_ftl.h"
#include "tests/ftl/ftl_test_util.h"
#include "workload/workload.h"

namespace gecko {
namespace {

constexpr Lpn kSpan = 64;

/// Bytewise equality for padding-free counter structs.
template <typename T>
bool SameBytes(const T& a, const T& b) {
  static_assert(std::has_unique_object_representations_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

TEST(LoadDriverTest, IdleSlotsRunBetweenBurstsAcrossRuns) {
  FlashDevice device(FtlTestGeometry());
  GeckoFtl ftl(&device, GeckoFtl::DefaultConfig(128));
  Fill(ftl, kSpan);
  UniformWorkload workload(kSpan, 3);
  RequestStream stream(&workload, {.batch_size = 1});
  LoadDriver driver(&ftl, &device);
  constexpr uint64_t kBurst = LoadDriver::kBurstRequests;
  LoadOptions load{.until_extents = 2 * kBurst, .idle_slots = 3};
  // A burst, three idle ticks, a burst: the run stops at the end of the
  // second burst, before its idle phase.
  driver.Run(load, stream);
  EXPECT_EQ(ftl.maintenance().stats().idle_ticks, 3u);
  // The next Run resumes the pattern with the pending idle phase.
  load.until_extents = 2 * kBurst + 1;
  driver.Run(load, stream);
  EXPECT_EQ(ftl.maintenance().stats().idle_ticks, 6u);
  // A saturated host never idles.
  load.until_extents = 10 * kBurst;
  load.idle_slots = 0;
  LoadReport r = driver.Run(load, stream);
  EXPECT_EQ(ftl.maintenance().stats().idle_ticks, 6u);
  EXPECT_EQ(r.background_steps, 0u);
}

// --- Parameterized over the five FTLs x 1/4 channels ----------------------

class LoadDriverFtlTest : public ChannelFtlTest {};

TEST_P(LoadDriverFtlTest, ClosedLoopMatchesHandSubmitLoop) {
  // The closed loop is the Section 5 update loop: it must leave exactly
  // the device and FTL state a plain loop of synchronous Submits leaves.
  RequestStream::Options single;
  single.batch_size = 1;
  RequestStream::Options mixed;
  mixed.batch_size = 8;
  mixed.trim_fraction = 0.05;
  mixed.read_fraction = 0.2;
  for (const RequestStream::Options& sopt : {single, mixed}) {
    SCOPED_TRACE(sopt.batch_size);
    constexpr uint64_t kExtents = 1500;

    FlashDevice driven_device(Geo());
    auto driven = MakeFtl(FtlName(), &driven_device, 64);
    Fill(*driven, driven_device.geometry().NumLogicalPages());
    UniformWorkload driven_workload(
        driven_device.geometry().NumLogicalPages(), 9);
    RequestStream driven_stream(&driven_workload, sopt);
    LoadDriver driver(driven.get(), &driven_device);
    driver.Run({.until_extents = kExtents}, driven_stream);

    FlashDevice hand_device(Geo());
    auto hand = MakeFtl(FtlName(), &hand_device, 64);
    Fill(*hand, hand_device.geometry().NumLogicalPages());
    UniformWorkload hand_workload(hand_device.geometry().NumLogicalPages(),
                                  9);
    RequestStream hand_stream(&hand_workload, sopt);
    while (hand_stream.ops_emitted() < kExtents) {
      IoRequest request = hand_stream.Next();
      IoResult result;
      ASSERT_TRUE(hand->Submit(request, &result).ok());
    }

    EXPECT_TRUE(SameBytes(driven_device.stats().Snapshot(),
                          hand_device.stats().Snapshot()))
        << driven_device.stats().Snapshot().DebugString() << "\nvs\n"
        << hand_device.stats().Snapshot().DebugString();
    EXPECT_EQ(driven_device.stats().elapsed_us(),
              hand_device.stats().elapsed_us());
    EXPECT_EQ(driven_device.now_us(), hand_device.now_us());
    EXPECT_TRUE(SameBytes(driven->counters(), hand->counters()));
  }
}

GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(LoadDriverFtlTest);

}  // namespace
}  // namespace gecko
