// The batching contract of the request-oriented API (acceptance criterion
// of the redesign): submitting a 32-page uniform write batch performs
// measurably fewer translation-page / page-validity flash writes than 32
// single-page Write() calls, because the batch updates each touched
// metadata page once per request instead of once per lpn.

#include <gtest/gtest.h>

#include <map>

#include "flash/flash_device.h"
#include "ftl/baseline_ftls.h"
#include "ftl/gecko_ftl.h"
#include "sim/load_driver.h"
#include "tests/ftl/ftl_test_util.h"
#include "workload/trace.h"

namespace gecko {
namespace {

constexpr uint32_t kBatch = 32;
constexpr uint64_t kBatches = 64;
constexpr Lpn kSpan = 512;  // 4 translation pages at 128 entries each
/// The RAM-starved regime the paper targets: the mapping cache is far
/// smaller than the working set (and than one batch), so the single-page
/// path pays an eviction-driven synchronization for almost every write,
/// while Submit streams each batch in translation-page order and commits
/// each touched page once per request.
constexpr uint32_t kCache = 8;

Geometry BatchGeometry() {
  Geometry g;
  g.num_blocks = 256;
  g.pages_per_block = 32;
  g.page_bytes = 512;  // 128 mapping entries per translation page
  g.logical_ratio = 0.5;
  return g;
}

struct RunCost {
  uint64_t translation_writes = 0;
  uint64_t translation_reads = 0;
  uint64_t pvm_writes = 0;
  uint64_t total_metadata_writes = 0;
};

/// Runs the same traced update sequence either as kBatch-page requests or
/// as single-page Write() calls, bracketed by flushes so neither side can
/// hide deferred synchronization work, and returns the metadata IO.
template <typename FtlT>
RunCost RunTrace(const Trace& trace, bool batched, uint64_t* data_check) {
  FlashDevice device(BatchGeometry());
  FtlT ftl(&device, FtlT::DefaultConfig(kCache));

  for (Lpn lpn = 0; lpn < kSpan; ++lpn) {
    Status s = ftl.Write(lpn, RequestStream::PayloadToken(lpn, 0));
    GECKO_CHECK(s.ok()) << s.ToString();
  }
  EXPECT_TRUE(ftl.Flush().ok());

  IoCounters before = device.stats().Snapshot();
  std::map<Lpn, uint64_t> shadow;
  uint64_t version = 0;
  for (uint64_t b = 0; b < kBatches; ++b) {
    if (batched) {
      IoRequest request(IoOp::kWrite);
      for (uint32_t i = 0; i < kBatch; ++i) {
        Lpn lpn = trace.at(b * kBatch + i);
        uint64_t token = RequestStream::PayloadToken(lpn, ++version);
        request.Add(lpn, token);
        shadow[lpn] = token;
      }
      IoResult result;
      Status s = ftl.Submit(request, &result);
      EXPECT_TRUE(s.ok() && result.AllOk());
    } else {
      for (uint32_t i = 0; i < kBatch; ++i) {
        Lpn lpn = trace.at(b * kBatch + i);
        uint64_t token = RequestStream::PayloadToken(lpn, ++version);
        EXPECT_TRUE(ftl.Write(lpn, token).ok());
        shadow[lpn] = token;
      }
    }
  }
  EXPECT_TRUE(ftl.Flush().ok());
  IoCounters delta = device.stats().Snapshot() - before;

  // Both runs must end with identical logical content.
  *data_check = 0;
  for (const auto& [lpn, token] : shadow) {
    uint64_t got = 0;
    Status s = ftl.Read(lpn, &got);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(got, token) << "lpn " << lpn;
    *data_check ^= got * (lpn + 1);
  }

  RunCost cost;
  cost.translation_writes = delta.WritesFor(IoPurpose::kTranslation);
  cost.translation_reads = delta.ReadsFor(IoPurpose::kTranslation);
  cost.pvm_writes = delta.WritesFor(IoPurpose::kPvm);
  cost.total_metadata_writes = cost.translation_writes + cost.pvm_writes;
  return cost;
}

TEST(BatchEfficiencyTest, GeckoFtlBatchesCutTranslationWrites) {
  UniformWorkload uniform(kSpan, 99);
  Trace trace = Trace::Record(uniform, kBatches * kBatch);

  uint64_t batched_data = 0, single_data = 0;
  RunCost batched = RunTrace<GeckoFtl>(trace, /*batched=*/true, &batched_data);
  RunCost single = RunTrace<GeckoFtl>(trace, /*batched=*/false, &single_data);
  EXPECT_EQ(batched_data, single_data);

  // The acceptance bar: strictly fewer translation-page writes, with a
  // real margin (each 32-page uniform batch over 4 translation pages
  // commits ~4 pages; singles pay ~1 eviction-driven sync per write,
  // cleaning only the few co-resident dirty entries each time). Measured:
  // ~350 vs ~840.
  EXPECT_LT(batched.translation_writes, single.translation_writes);
  EXPECT_LE(batched.translation_writes * 2, single.translation_writes)
      << "batched=" << batched.translation_writes
      << " single=" << single.translation_writes;
  // Combined metadata writes (translation + page validity) also drop.
  EXPECT_LT(batched.total_metadata_writes, single.total_metadata_writes);
  // And the batch path reads translation pages no more often.
  EXPECT_LE(batched.translation_reads, single.translation_reads);
}

TEST(BatchEfficiencyTest, FlashPvbBatchesGroupChunkUpdates) {
  // µ-FTL's flash-resident PVB pays one read-modify-write per reported
  // address on the single-page path; batches group the reports by chunk.
  UniformWorkload uniform(kSpan, 123);
  Trace trace = Trace::Record(uniform, kBatches * kBatch);

  uint64_t batched_data = 0, single_data = 0;
  RunCost batched = RunTrace<MuFtl>(trace, /*batched=*/true, &batched_data);
  RunCost single = RunTrace<MuFtl>(trace, /*batched=*/false, &single_data);
  EXPECT_EQ(batched_data, single_data);

  EXPECT_LT(batched.pvm_writes * 2, single.pvm_writes)
      << "batched=" << batched.pvm_writes << " single=" << single.pvm_writes;
  EXPECT_LT(batched.total_metadata_writes, single.total_metadata_writes);
}

TEST(BatchEfficiencyTest, BatchCountersTrackEfficacy) {
  FlashDevice device(BatchGeometry());
  GeckoFtl ftl(&device, GeckoFtl::DefaultConfig(kCache));

  Fill(ftl, kSpan, /*batch_size=*/kBatch);
  EXPECT_EQ(ftl.counters().batches, kSpan / kBatch);
  EXPECT_EQ(ftl.counters().batched_pages, uint64_t{kSpan});
  EXPECT_EQ(ftl.counters().writes, uint64_t{kSpan});
}

}  // namespace
}  // namespace gecko
