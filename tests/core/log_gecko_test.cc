#include "core/log_gecko.h"

#include <gtest/gtest.h>

#include "flash/simple_allocator.h"

namespace gecko {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 64;
  g.pages_per_block = 16;
  g.page_bytes = 256;  // small pages keep V small so merges happen quickly
  g.logical_ratio = 0.7;
  return g;
}

class LogGeckoTest : public ::testing::Test {
 protected:
  LogGeckoTest() { Reset(LogGeckoConfig{}); }

  void Reset(LogGeckoConfig config) {
    device_ = std::make_unique<FlashDevice>(SmallGeometry());
    // Metadata region: upper half of the device.
    allocator_ = std::make_unique<SimpleAllocator>(device_.get(), 32, 32);
    gecko_ = std::make_unique<LogGecko>(SmallGeometry(), config,
                                        device_.get(), allocator_.get());
  }

  std::unique_ptr<FlashDevice> device_;
  std::unique_ptr<SimpleAllocator> allocator_;
  std::unique_ptr<LogGecko> gecko_;
};

TEST_F(LogGeckoTest, BufferedUpdateVisibleToQuery) {
  gecko_->RecordInvalidPage({3, 5});
  Bitmap result = gecko_->QueryInvalidPages(3);
  EXPECT_TRUE(result.Test(5));
  EXPECT_EQ(result.Count(), 1u);
  // No flash IO yet: everything is in the buffer.
  EXPECT_EQ(device_->stats().counters().TotalWrites(), 0u);
}

TEST_F(LogGeckoTest, UpdatesToSameBlockShareOneBufferSlot) {
  gecko_->RecordInvalidPage({3, 1});
  gecko_->RecordInvalidPage({3, 2});
  gecko_->RecordInvalidPage({3, 3});
  EXPECT_EQ(gecko_->BufferedEntries(), 1u);  // Algorithm 1 reuses the entry
  Bitmap result = gecko_->QueryInvalidPages(3);
  EXPECT_EQ(result.Count(), 3u);
}

TEST_F(LogGeckoTest, BufferFlushesWhenFull) {
  // V distinct blocks, so each update occupies its own buffer slot.
  const uint32_t v = gecko_->BufferCapacity();
  ASSERT_LE(v, SmallGeometry().num_blocks);
  for (uint32_t b = 0; b < v; ++b) {
    gecko_->RecordInvalidPage({b, b % 16});
  }
  EXPECT_EQ(gecko_->BufferedEntries(), 0u);  // flushed
  EXPECT_GE(gecko_->NumLiveRuns(), 1u);
  EXPECT_GT(device_->stats().counters().WritesFor(IoPurpose::kPvm), 0u);
}

TEST_F(LogGeckoTest, FlushedUpdatesStillVisible) {
  gecko_->RecordInvalidPage({7, 3});
  gecko_->Flush();
  EXPECT_EQ(gecko_->BufferedEntries(), 0u);
  Bitmap result = gecko_->QueryInvalidPages(7);
  EXPECT_TRUE(result.Test(3));
}

TEST_F(LogGeckoTest, EraseMasksOlderEntries) {
  gecko_->RecordInvalidPage({7, 3});
  gecko_->Flush();
  gecko_->RecordErase(7);
  // Everything recorded before the erase is obsolete.
  EXPECT_EQ(gecko_->QueryInvalidPages(7).Count(), 0u);
  // Updates after the erase accumulate again.
  gecko_->RecordInvalidPage({7, 9});
  Bitmap result = gecko_->QueryInvalidPages(7);
  EXPECT_TRUE(result.Test(9));
  EXPECT_EQ(result.Count(), 1u);
}

// docs/DESIGN.md deviation 1: Algorithm 2 as literally written would keep
// pre-erase bits buffered, corrupting pages written after the erase.
TEST_F(LogGeckoTest, EraseReplacesBufferedBits) {
  gecko_->RecordInvalidPage({7, 3});  // still in buffer
  gecko_->RecordErase(7);
  EXPECT_EQ(gecko_->QueryInvalidPages(7).Count(), 0u);
}

TEST_F(LogGeckoTest, EraseSurvivesFlushAndMerges) {
  gecko_->RecordInvalidPage({7, 3});
  gecko_->Flush();
  gecko_->RecordErase(7);
  gecko_->Flush();
  // Force enough flushes to trigger merging.
  for (uint32_t i = 0; i < 4; ++i) {
    gecko_->RecordInvalidPage({i, 0});
    gecko_->Flush();
  }
  EXPECT_EQ(gecko_->QueryInvalidPages(7).Count(), 0u);
}

TEST_F(LogGeckoTest, MergeCollapsesRunsPerLevel) {
  // Two single-page flushes collide at level 0 and must merge.
  gecko_->RecordInvalidPage({1, 1});
  gecko_->Flush();
  gecko_->RecordInvalidPage({2, 2});
  gecko_->Flush();
  // After the cascade settles there is at most one run per level.
  EXPECT_GE(gecko_->stats().merges, 1u);
  EXPECT_LE(gecko_->NumLiveRuns(), gecko_->NumLevels());
  // Content from both flushes is preserved.
  EXPECT_TRUE(gecko_->QueryInvalidPages(1).Test(1));
  EXPECT_TRUE(gecko_->QueryInvalidPages(2).Test(2));
}

TEST_F(LogGeckoTest, QueryStopsAtEraseFlagWithoutReadingOlderRuns) {
  // Build an old run holding bits for block 9, then an erase in a newer
  // run; the query must not read past the erase flag.
  gecko_->RecordInvalidPage({9, 1});
  for (uint32_t b = 10; b < 30; ++b) gecko_->RecordInvalidPage({b, 0});
  gecko_->Flush();
  gecko_->RecordErase(9);
  gecko_->Flush();

  uint64_t query_reads_before = gecko_->stats().query_reads;
  Bitmap result = gecko_->QueryInvalidPages(9);
  EXPECT_EQ(result.Count(), 0u);
  uint64_t reads = gecko_->stats().query_reads - query_reads_before;
  // The newest run contains the erase flag; the older run is not probed
  // for this key after the flag is found. (Runs may have merged; in every
  // layout the read count must be at most the number of live runs.)
  EXPECT_LE(reads, gecko_->NumLiveRuns());
}

TEST_F(LogGeckoTest, QueryCostBoundedByLiveRuns) {
  // Load enough updates to create multiple levels.
  for (uint32_t i = 0; i < 2000; ++i) {
    gecko_->RecordInvalidPage({i % 32, (i / 32) % 16});
  }
  uint64_t before = gecko_->stats().query_reads;
  gecko_->QueryInvalidPages(5);
  uint64_t reads = gecko_->stats().query_reads - before;
  // One directory-guided read per run, at most two if a block's entries
  // straddle a page boundary.
  EXPECT_LE(reads, uint64_t{2} * gecko_->NumLiveRuns());
}

TEST_F(LogGeckoTest, MultiWayMergeWritesLessThanTwoWay) {
  auto run_workload = [&](MergePolicy policy) {
    LogGeckoConfig c;
    c.merge_policy = policy;
    Reset(c);
    // Rotate erases through the blocks so updates never saturate and the
    // buffer keeps flushing (the key space must exceed V).
    for (uint32_t i = 0; i < 12000; ++i) {
      BlockId b = i % 64;
      if (i % 640 == 639) {
        gecko_->RecordErase(b);
      } else {
        gecko_->RecordInvalidPage({b, (i / 64) % 16});
      }
    }
    return gecko_->stats().merge_writes + gecko_->stats().flush_writes;
  };
  uint64_t two_way = run_workload(MergePolicy::kTwoWay);
  uint64_t multi_way = run_workload(MergePolicy::kMultiWay);
  EXPECT_LT(multi_way, two_way);  // Appendix A: ~1/T fewer merge writes
}

TEST_F(LogGeckoTest, PartitionedEntriesQueryCorrectly) {
  LogGeckoConfig c;
  c.partition_factor = 4;  // chunks of 4 pages with B=16
  Reset(c);
  gecko_->RecordInvalidPage({3, 0});   // sub 0
  gecko_->RecordInvalidPage({3, 5});   // sub 1
  gecko_->RecordInvalidPage({3, 15});  // sub 3
  gecko_->Flush();
  Bitmap result = gecko_->QueryInvalidPages(3);
  EXPECT_TRUE(result.Test(0));
  EXPECT_TRUE(result.Test(5));
  EXPECT_TRUE(result.Test(15));
  EXPECT_EQ(result.Count(), 3u);
}

TEST_F(LogGeckoTest, PartitionedEraseCoversAllChunks) {
  LogGeckoConfig c;
  c.partition_factor = 4;
  Reset(c);
  gecko_->RecordInvalidPage({3, 0});
  gecko_->RecordInvalidPage({3, 15});
  gecko_->Flush();
  gecko_->RecordErase(3);
  EXPECT_EQ(gecko_->QueryInvalidPages(3).Count(), 0u);
}

TEST_F(LogGeckoTest, BottomMergeDropsEmptyEntries) {
  // An erase-flagged entry that reaches the bottom with no bits carries
  // no information and is dropped (docs/DESIGN.md deviation 4).
  gecko_->RecordErase(5);
  gecko_->Flush();
  gecko_->RecordErase(5);
  gecko_->Flush();  // merge: both entries collapse; bottom cleanup drops it
  EXPECT_EQ(gecko_->QueryInvalidPages(5).Count(), 0u);
  // The structure holds at most one run whose entries are all non-empty.
  EXPECT_LE(gecko_->FlashPages(), 3u + 3u);
}

TEST_F(LogGeckoTest, DurableSeqAdvancesWithFlushes) {
  EXPECT_EQ(gecko_->DurableSeq(), 0u);
  gecko_->RecordInvalidPage({1, 1});
  gecko_->Flush();
  uint64_t first = gecko_->DurableSeq();
  EXPECT_GT(first, 0u);
  gecko_->RecordInvalidPage({2, 2});
  gecko_->Flush();
  EXPECT_GT(gecko_->DurableSeq(), first);
}

TEST_F(LogGeckoTest, RamBytesReflectsDirectoriesAndBuffers) {
  uint64_t empty = gecko_->RamBytes();
  for (uint32_t i = 0; i < 2000; ++i) {
    gecko_->RecordInvalidPage({i % 64, (i / 64) % 16});
  }
  EXPECT_GT(gecko_->RamBytes(), empty);
  // Far below a RAM PVB for the same device (the point of the design).
  uint64_t ram_pvb = SmallGeometry().TotalPages() / 8 + 1;
  (void)ram_pvb;  // at this tiny scale the comparison is not meaningful,
                  // but the directories must stay within a few KB.
  EXPECT_LT(gecko_->RamBytes(), 16384u);
}

TEST_F(LogGeckoTest, ReconstructInvalidCountsMatchesQueries) {
  for (uint32_t i = 0; i < 500; ++i) {
    gecko_->RecordInvalidPage({i % 20, (i * 7) % 16});
  }
  gecko_->RecordErase(4);
  std::vector<uint32_t> counts = gecko_->ReconstructInvalidCounts();
  for (BlockId b = 0; b < 32; ++b) {
    EXPECT_EQ(counts[b], gecko_->QueryInvalidPages(b).Count()) << "block " << b;
  }
}

TEST_F(LogGeckoTest, StatsTrackOperations) {
  gecko_->RecordInvalidPage({1, 1});
  gecko_->RecordErase(2);
  gecko_->QueryInvalidPages(1);
  EXPECT_EQ(gecko_->stats().updates, 1u);
  EXPECT_EQ(gecko_->stats().erases, 1u);
  EXPECT_EQ(gecko_->stats().queries, 1u);
}

}  // namespace
}  // namespace gecko
