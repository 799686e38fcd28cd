// Channel-aware striping of the allocators and the end-to-end speedup it
// buys: pages of one batched request spread across channels, and an
// N-channel device services a striped batch ~N times faster than a
// 1-channel device.

#include <set>

#include <gtest/gtest.h>

#include "flash/simple_allocator.h"
#include "ftl/block_manager.h"
#include "tests/ftl/ftl_test_util.h"

namespace gecko {
namespace {

TEST(ChannelStripingTest, BlockManagerRoundRobinsUserBlocksAcrossChannels) {
  FlashDevice device(FtlTestGeometry(/*num_channels=*/4));
  BlockManager blocks(&device, /*auto_erase_metadata=*/true);
  std::set<ChannelId> seen;
  for (int i = 0; i < 4; ++i) {
    PhysicalAddress a = blocks.AllocatePage(PageType::kUser);
    seen.insert(device.ChannelOf(a.block));
  }
  // Four consecutive allocations land on four distinct channels.
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ChannelStripingTest, BlockManagerStripesEachGroupIndependently) {
  FlashDevice device(FtlTestGeometry(/*num_channels=*/4));
  BlockManager blocks(&device, /*auto_erase_metadata=*/true);
  for (PageType type :
       {PageType::kUser, PageType::kTranslation, PageType::kPvm}) {
    std::set<ChannelId> seen;
    for (int i = 0; i < 4; ++i) {
      seen.insert(device.ChannelOf(blocks.AllocatePage(type).block));
    }
    EXPECT_EQ(seen.size(), 4u) << PageTypeName(type);
  }
}

TEST(ChannelStripingTest, BlockManagerStealsWhenAChannelRunsDry) {
  // 8 blocks on 4 channels: 2 blocks per channel. Exhaust channel 0's
  // pool through slot 0, then keep allocating: the slot must steal from
  // other channels instead of aborting while free blocks remain.
  Geometry g = FtlTestGeometry(4);
  g.num_blocks = 8;
  FlashDevice device(g);
  BlockManager blocks(&device, /*auto_erase_metadata=*/true);
  uint32_t total_pages = g.num_blocks * g.pages_per_block;
  for (uint32_t i = 0; i < total_pages; ++i) {
    PhysicalAddress a = blocks.AllocatePage(PageType::kUser);
    SpareArea s;
    s.type = PageType::kUser;
    s.key = i;
    device.WritePage(a, s, 0, IoPurpose::kUserWrite);
  }
  EXPECT_EQ(blocks.NumFreeBlocks(), 0u);
}

TEST(ChannelStripingTest, SimpleAllocatorSpreadsAcrossChannels) {
  Geometry g = FtlTestGeometry(/*num_channels=*/4);
  FlashDevice device(g);
  SimpleAllocator allocator(&device, /*first_block=*/0, /*num_blocks=*/16);
  std::set<ChannelId> seen;
  for (int i = 0; i < 4; ++i) {
    seen.insert(device.ChannelOf(allocator.AllocatePage(PageType::kPvm).block));
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ChannelStripingTest, BatchedSubmitSpreadsPagesAcrossChannels) {
  FlashDevice device(FtlTestGeometry(/*num_channels=*/8));
  auto ftl = MakeFtl("GeckoFTL", &device, /*cache_capacity=*/64);

  IoRequest batch(IoOp::kWrite);
  for (Lpn lpn = 0; lpn < 64; ++lpn) {
    batch.Add(lpn, RequestStream::PayloadToken(lpn, 0));
  }
  IoResult result;
  ASSERT_TRUE(ftl->Submit(batch, &result).ok());
  ASSERT_TRUE(result.AllOk());

  // Every channel serviced some of the batch.
  const IoStats& stats = device.stats();
  for (uint32_t c = 0; c < stats.num_channels(); ++c) {
    EXPECT_GT(stats.ChannelOps(c), 0u) << "channel " << c << " idle";
  }
}

// The acceptance-criterion shape: the same batched write workload on an
// 8-channel device must run at least ~3x faster (simulated time) than on
// a 1-channel device, for every FTL.
TEST(ChannelStripingTest, EightChannelsBeatOneByAtLeastThreeX) {
  for (const char* name : {"GeckoFTL", "DFTL", "LazyFTL", "uFTL", "IB-FTL"}) {
    double elapsed[2] = {0, 0};
    int idx = 0;
    for (uint32_t channels : {1u, 8u}) {
      FlashDevice device(FtlTestGeometry(channels));
      auto ftl = MakeFtl(name, &device, /*cache_capacity=*/32);
      Fill(*ftl, 512, /*batch_size=*/64);
      double before = device.stats().elapsed_us();
      for (int round = 0; round < 8; ++round) {
        IoRequest batch(IoOp::kWrite);
        for (Lpn i = 0; i < 64; ++i) {
          Lpn lpn = static_cast<Lpn>((round * 64 + i) % 512);
          batch.Add(lpn, RequestStream::PayloadToken(lpn, 1 + round));
        }
        IoResult result;
        ASSERT_TRUE(ftl->Submit(batch, &result).ok());
        ASSERT_TRUE(result.AllOk());
      }
      elapsed[idx++] = device.stats().elapsed_us() - before;
    }
    EXPECT_GE(elapsed[0] / elapsed[1], 3.0)
        << name << ": 1ch=" << elapsed[0] << "us, 8ch=" << elapsed[1] << "us";
  }
}

// Regression test for two recovery bugs the striped layout exposed:
// (1) the backward scan's count-based early stop could recover a stale
// mapping when the freshest writes interleave across one partial block
// per channel (fixed by the coverage-horizon filter), and (2) PVL erase
// timestamps recovered at the *start* of the erase's device-seq window
// resurrected same-window invalidation records (fixed by scaling to the
// window end). A tight cache, deep batched churn, and repeated crashes
// on an 8-channel device hit both.
TEST(ChannelStripingTest, DeepDirtySetSurvivesCrashOnStripedLayout) {
  const uint64_t seed = FuzzSeed(1234);
  GECKO_TRACE_FUZZ_SEED(seed);
  for (uint32_t channels : {4u, 8u}) {
    for (const char* name : {"GeckoFTL", "IB-FTL"}) {
      FlashDevice device(FtlTestGeometry(channels));
      auto ftl = MakeFtl(name, &device, /*cache_capacity=*/24);
      const uint64_t n = device.geometry().NumLogicalPages();
      std::map<Lpn, uint64_t> shadow;
      Rng rng(seed + channels);
      uint64_t version = 0;

      for (int round = 0; round < 6; ++round) {
        // More than half the logical space per request forces GC
        // mid-request; duplicates resolve last-writer-wins.
        IoRequest batch(IoOp::kWrite);
        std::map<Lpn, uint64_t> tokens;
        uint64_t count = n / 2 + rng.Uniform(n / 4);
        for (uint64_t i = 0; i < count; ++i) {
          Lpn lpn = static_cast<Lpn>(rng.Uniform(n));
          uint64_t token = RequestStream::PayloadToken(lpn, ++version);
          batch.Add(lpn, token);
          tokens[lpn] = token;
        }
        IoResult result;
        ASSERT_TRUE(ftl->Submit(batch, &result).ok()) << name;
        ASSERT_TRUE(result.AllOk()) << name;
        for (const auto& [lpn, token] : tokens) shadow[lpn] = token;

        // Trim a scattered tenth, batched.
        std::vector<Lpn> trims;
        for (const auto& [lpn, token] : shadow) {
          if (rng.Uniform(10) == 0) trims.push_back(lpn);
        }
        if (!trims.empty()) {
          IoRequest trim = IoRequest::Trim(trims);
          ASSERT_TRUE(ftl->Submit(trim, nullptr).ok()) << name;
          for (Lpn lpn : trims) shadow.erase(lpn);
        }

        // Interleave single-page writes (mixed single/batched traffic).
        for (int i = 0; i < 50; ++i) {
          Lpn lpn = static_cast<Lpn>(rng.Uniform(n));
          uint64_t token = RequestStream::PayloadToken(lpn, ++version);
          ASSERT_TRUE(ftl->Write(lpn, token).ok()) << name;
          shadow[lpn] = token;
        }

        if (round % 2 == 1) ftl->CrashAndRecover();

        // Full verification: every live lpn reads its newest token,
        // every trimmed/never-written lpn reads NotFound.
        for (Lpn lpn = 0; lpn < n; ++lpn) {
          uint64_t got = 0;
          Status s = ftl->Read(lpn, &got);
          auto it = shadow.find(lpn);
          if (it == shadow.end()) {
            ASSERT_EQ(s.code(), StatusCode::kNotFound)
                << name << "@" << channels << "ch: lpn " << lpn
                << " should be absent (round " << round << ")";
          } else {
            ASSERT_TRUE(s.ok() && got == it->second)
                << name << "@" << channels << "ch: stale/lost lpn " << lpn
                << " (round " << round << ")";
          }
        }
      }
    }
  }
}

TEST(ChannelStripingTest, MultiChannelUtilizationIsBalanced) {
  FlashDevice device(FtlTestGeometry(/*num_channels=*/4));
  auto ftl = MakeFtl("GeckoFTL", &device, /*cache_capacity=*/64);
  Fill(*ftl, 512, /*batch_size=*/64);
  ChannelReport report = Channels(device);
  ASSERT_EQ(report.utilization.size(), 4u);
  // Round-robin striping keeps every channel busy a comparable share of
  // the time: no channel below half the mean.
  double mean = report.MeanUtilization();
  EXPECT_GT(mean, 0.0);
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_GT(report.utilization[c], 0.5 * mean) << "channel " << c;
  }
  EXPECT_GT(report.max_queue_depth, 1u);
}

}  // namespace
}  // namespace gecko
