// Hot/cold stream separation: hotness-classifier behaviour, per-class
// block placement, GC demotion, trim-heavy skewed workloads, and crash
// recovery with multiple per-class active blocks open — across all five
// FTLs on 1- and 4-channel devices.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ftl/base_ftl.h"
#include "ftl/hotness.h"
#include "tests/ftl/ftl_test_util.h"
#include "workload/workload.h"

namespace gecko {
namespace {

// ---------------------------------------------------------------------
// HotnessEstimator unit behaviour.

TEST(HotnessEstimatorTest, FreshLpnIsColdestRepeatedUpdatesGetHotter) {
  HotnessEstimator h(4, 12, 1 << 20);  // decay effectively off
  Lpn lpn = 7;
  EXPECT_EQ(h.Classify(lpn), 3);  // never seen: coldest
  h.RecordWrite(lpn);
  EXPECT_EQ(h.Classify(lpn), 3);  // one update is not yet "hot"
  h.RecordWrite(lpn);
  EXPECT_EQ(h.Classify(lpn), 2);  // each doubling: one class hotter
  h.RecordWrite(lpn);
  h.RecordWrite(lpn);
  EXPECT_EQ(h.Classify(lpn), 1);
  for (int i = 0; i < 4; ++i) h.RecordWrite(lpn);
  EXPECT_EQ(h.Classify(lpn), 0);  // saturates at the hottest class
  for (int i = 0; i < 100; ++i) h.RecordWrite(lpn);
  EXPECT_EQ(h.Classify(lpn), 0);
}

TEST(HotnessEstimatorTest, TrimAffinityCountsDoubleHot) {
  HotnessEstimator writes(4, 12, 1 << 20);
  HotnessEstimator trims(4, 12, 1 << 20);
  writes.RecordWrite(5);
  trims.RecordTrim(5);
  // One trim carries the weight of two writes: discard-churned pages
  // climb toward the hot streams twice as fast.
  EXPECT_LT(trims.Classify(5), writes.Classify(5));
}

TEST(HotnessEstimatorTest, StableUnderChurn) {
  // A consistently-updated lpn stays hot across decay boundaries while
  // drive-by lpns never leave the cold classes.
  HotnessEstimator h(4, 12, /*decay_period=*/64);
  const Lpn hot = 3;
  Lpn cold_cursor = 1000;
  for (int i = 0; i < 2000; ++i) {
    h.RecordWrite(hot);
    h.RecordWrite(cold_cursor++);  // each cold lpn seen exactly once
  }
  EXPECT_EQ(h.Classify(hot), 0);
  // Sample recent one-shot lpns: all cold (allowing the odd sketch
  // collision with the hot counter, which is rare and harmless).
  uint32_t coldest = 0;
  for (Lpn lpn = cold_cursor - 64; lpn < cold_cursor; ++lpn) {
    if (h.Classify(lpn) == 3) ++coldest;
  }
  EXPECT_GE(coldest, 60u);
}

TEST(HotnessEstimatorTest, DecayForgetsPastHeat) {
  HotnessEstimator h(4, 12, /*decay_period=*/64);
  for (int i = 0; i < 8; ++i) h.RecordWrite(9);
  ASSERT_EQ(h.Classify(9), 0);
  // A long stretch of unrelated traffic (several decay periods) halves
  // lpn 9's counter away.
  Lpn other = 5000;
  for (int i = 0; i < 200; ++i) h.RecordWrite(other + (i % 4));
  EXPECT_GT(h.Classify(9), 1);
}

TEST(HotnessEstimatorTest, SingleClassIsInertAndFree) {
  HotnessEstimator h(1, 12, 4096);
  EXPECT_EQ(h.RamBytes(), 0u);
  h.RecordWrite(1);
  h.RecordTrim(2);
  EXPECT_EQ(h.Classify(1), 0);
  EXPECT_EQ(h.Score(1), 0u);
}

TEST(HotnessEstimatorTest, ResetClearsAllHeat) {
  HotnessEstimator h(4, 12, 4096);
  for (int i = 0; i < 16; ++i) h.RecordWrite(11);
  ASSERT_EQ(h.Classify(11), 0);
  h.Reset();
  EXPECT_EQ(h.Classify(11), 3);
}

// ---------------------------------------------------------------------
// FTL-level suite: all five FTLs, 1 and 4 channels, 4 temperature
// classes. A roomier geometry than the default suite: up to
// classes x channels user active blocks can be open at once.

Geometry TempTestGeometry(uint32_t num_channels) {
  Geometry g = FtlTestGeometry(num_channels);
  g.num_blocks = 192;
  return g;
}

ConfigTweak TempTweak(uint32_t classes) {
  return [classes](FtlConfig& config) {
    config.num_temp_classes = classes;
    config.hotness_decay_period = 512;
  };
}

class TempClassFtlTest : public ChannelFtlTest {};

TEST_P(TempClassFtlTest, SkewedWorkloadKeepsDataIntact) {
  FlashDevice device(TempTestGeometry(NumChannels()));
  auto ftl = MakeFtl(FtlName(), &device, 128, TempTweak(4));
  const uint64_t num_lpns = device.geometry().NumLogicalPages();
  ShadowHarness shadow(ftl.get(), num_lpns);
  Fill(*ftl, num_lpns);

  HotColdWorkload workload(num_lpns, 0.1, 0.9, FuzzSeed(211));
  for (int i = 0; i < 4000; ++i) {
    shadow.Write(workload.NextLpn());
    if (testing::Test::HasFatalFailure()) return;
  }
  shadow.VerifyAll();
  // The skew actually exercised multiple streams: some survivor was
  // demoted to a colder class at least once.
  auto* base = dynamic_cast<BaseFtl*>(ftl.get());
  ASSERT_NE(base, nullptr);
  EXPECT_GT(base->counters().gc_demotions, 0u);
  EXPECT_LE(base->counters().gc_demotions, base->counters().gc_migrations);
}

TEST_P(TempClassFtlTest, GcDemotesSurvivorsOneClassColder) {
  FlashDevice device(TempTestGeometry(NumChannels()));
  auto ftl = MakeFtl(FtlName(), &device, 128, TempTweak(4));
  auto* base = dynamic_cast<BaseFtl*>(ftl.get());
  ASSERT_NE(base, nullptr);
  const uint64_t num_lpns = device.geometry().NumLogicalPages();
  Fill(*ftl, num_lpns);

  BlockManager& blocks = base->block_manager();
  EXPECT_EQ(blocks.num_temp_classes(), 4u);
  HotColdWorkload workload(num_lpns, 0.1, 0.9, FuzzSeed(223));
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(ftl->Write(workload.NextLpn(), i).ok());
    if (i % 500 == 0) ftl->ForceGc();
  }
  // Block temps stay inside the configured range, and GC has pushed at
  // least one survivor into a colder-than-hottest stream.
  const Geometry& g = device.geometry();
  bool colder_stream_used = false;
  for (BlockId b = 0; b < g.num_blocks; ++b) {
    uint8_t temp = blocks.BlockTemp(b);
    ASSERT_LT(temp, 4u) << "block " << b;
    if (blocks.BlockType(b) == PageType::kUser && temp > 0) {
      colder_stream_used = true;
    }
  }
  EXPECT_TRUE(colder_stream_used);
  EXPECT_GT(base->counters().gc_demotions, 0u);
}

TEST_P(TempClassFtlTest, TrimHeavyHotStreamStaysConsistent) {
  FlashDevice device(TempTestGeometry(NumChannels()));
  auto ftl = MakeFtl(FtlName(), &device, 128, TempTweak(4));
  const uint64_t num_lpns = device.geometry().NumLogicalPages();
  ShadowHarness shadow(ftl.get(), num_lpns);
  Fill(*ftl, num_lpns);

  // Hot set: lpns [0, num_lpns/10), constantly rewritten AND trimmed —
  // trim affinity keeps them in the hot streams while the shadow map
  // pins exact read-back semantics.
  const Lpn hot_bound = static_cast<Lpn>(num_lpns / 10);
  Rng rng(FuzzSeed(227));
  for (int i = 0; i < 3000; ++i) {
    Lpn hot = static_cast<Lpn>(rng.Uniform(hot_bound));
    switch (rng.Uniform(4)) {
      case 0:
        shadow.Trim(hot);
        break;
      case 1:
        shadow.TrimBatch({hot, static_cast<Lpn>(rng.Uniform(hot_bound))});
        break;
      default:
        shadow.Write(hot);
        break;
    }
    if (rng.Uniform(10) == 0) {
      shadow.Write(static_cast<Lpn>(hot_bound + rng.Uniform(num_lpns - hot_bound)));
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  shadow.VerifyAll();
  shadow.VerifyAbsent(hot_bound);
}

TEST_P(TempClassFtlTest, CrashRecoverWithPerClassActivesOpen) {
  FlashDevice device(TempTestGeometry(NumChannels()));
  auto ftl = MakeFtl(FtlName(), &device, 128, TempTweak(4));
  const uint64_t num_lpns = device.geometry().NumLogicalPages();
  ShadowHarness shadow(ftl.get(), num_lpns);
  Fill(*ftl, num_lpns);

  // Two crash/recover rounds, each with several temperature streams'
  // active blocks mid-fill (the skew plus GC demotion opens hot AND cold
  // actives), verifying full data integrity after every recovery.
  HotColdWorkload workload(num_lpns, 0.1, 0.9, FuzzSeed(229));
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 1500; ++i) {
      shadow.Write(workload.NextLpn());
      if (testing::Test::HasFatalFailure()) return;
    }
    ftl->CrashAndRecover();
    shadow.VerifyAll();
    if (testing::Test::HasFatalFailure()) return;
  }
  // Recovery rebuilt per-class placement from the spares: writes still
  // land and read back correctly afterwards.
  for (int i = 0; i < 500; ++i) {
    shadow.Write(workload.NextLpn());
    if (testing::Test::HasFatalFailure()) return;
  }
  shadow.VerifyAll();
}

TEST_P(TempClassFtlTest, SingleClassBitIdenticalToLegacyDefault) {
  // The PR 6-style identity gate: one temperature class must be
  // bit-identical to the pre-temperature FTL, whatever the other hotness
  // knobs say (they only feed the estimator, which is inert at T=1).
  FlashDevice legacy_device(TempTestGeometry(NumChannels()));
  auto legacy = MakeFtl(FtlName(), &legacy_device, 96);
  FlashDevice tuned_device(TempTestGeometry(NumChannels()));
  auto tuned = MakeFtl(FtlName(), &tuned_device, 96, [](FtlConfig& config) {
    config.num_temp_classes = 1;
    config.hotness_sketch_bits = 8;
    config.hotness_decay_period = 16;
    config.hot_eviction_scan_depth = 32;
  });

  const uint64_t num_lpns = legacy_device.geometry().NumLogicalPages();
  Rng script(FuzzSeed(233));
  for (int i = 0; i < 2500; ++i) {
    uint32_t op = script.Uniform(100);
    Lpn lpn = static_cast<Lpn>(script.Uniform(num_lpns));
    if (op < 60) {
      uint64_t payload = RequestStream::PayloadToken(lpn, i);
      EXPECT_EQ(legacy->Write(lpn, payload).code(),
                tuned->Write(lpn, payload).code());
    } else if (op < 80) {
      uint64_t a = 0, b = 0;
      EXPECT_EQ(legacy->Read(lpn, &a).code(), tuned->Read(lpn, &b).code());
      EXPECT_EQ(a, b);
    } else if (op < 90) {
      EXPECT_EQ(legacy->Trim(lpn).code(), tuned->Trim(lpn).code());
    } else if (op < 95) {
      EXPECT_EQ(legacy->Flush().code(), tuned->Flush().code());
    } else {
      EXPECT_EQ(legacy->ForceGc(), tuned->ForceGc());
    }
  }
  EXPECT_EQ(legacy_device.stats().counters().DebugString(),
            tuned_device.stats().counters().DebugString());
  EXPECT_EQ(legacy->RamBytes(), tuned->RamBytes());
  EXPECT_EQ(legacy->counters().gc_demotions, 0u);
  for (Lpn lpn = 0; lpn < num_lpns; ++lpn) {
    uint64_t a = 0, b = 0;
    Status sa = legacy->Read(lpn, &a);
    Status sb = tuned->Read(lpn, &b);
    ASSERT_EQ(sa.code(), sb.code()) << "lpn " << lpn;
    ASSERT_EQ(a, b) << "lpn " << lpn;
  }
}

GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(TempClassFtlTest);

}  // namespace
}  // namespace gecko
