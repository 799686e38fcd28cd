// End-to-end fault-injection coverage over all five FTLs: transient read
// retries, per-extent kIoError surfacing, transparent program-fault
// re-placement, crash-during-remap recovery (the bad copy must never be
// resurrected), grown-bad-block persistence across power failure, and the
// sticky read-only degraded mode when spare blocks run out.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flash/fault_model.h"
#include "flash/flash_device.h"
#include "ftl/base_ftl.h"
#include "ftl/ftl.h"
#include "sim/load_driver.h"
#include "tests/ftl/ftl_test_util.h"
#include "workload/workload.h"

namespace gecko {
namespace {

/// Scans the whole medium for the newest live user page carrying `lpn`
/// (the copy the FTL's mapping must point at). Uses raw spare reads, so
/// it sees failed-program pages too — those are skipped (media_error).
PhysicalAddress FindLiveUserPage(FlashDevice& device, Lpn lpn) {
  const Geometry& g = device.geometry();
  PhysicalAddress best{kInvalidU32, kInvalidU32};
  uint64_t best_seq = 0;
  for (BlockId b = 0; b < g.num_blocks; ++b) {
    for (uint32_t p = 0; p < device.PagesWritten(b); ++p) {
      PageReadResult r = device.ReadSpare({b, p}, IoPurpose::kRecovery);
      if (!r.written || r.media_error || !r.spare.IsUser()) continue;
      if (r.spare.key == lpn && r.spare.seq >= best_seq) {
        best_seq = r.spare.seq;
        best = {b, p};
      }
    }
  }
  EXPECT_NE(best.block, kInvalidU32) << "no live copy of lpn " << lpn;
  return best;
}

class FaultInjectionTest : public ChannelFtlTest {};

TEST_P(FaultInjectionTest, TransientReadFaultsPreserveData) {
  // A lively transient-fault rate costs retries (latency) but never
  // data: the whole shadow still verifies and no hard fault surfaces.
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = FuzzSeed(1701);
  faults.transient_read_fault_rate = 0.05;
  GECKO_TRACE_FUZZ_SEED(faults.seed);
  FlashDevice device(Geo(), LatencyModel(), faults);
  auto ftl = MakeFtl(FtlName(), &device, /*cache_capacity=*/64);
  const Lpn span = device.geometry().NumLogicalPages() / 2;

  ShadowHarness shadow(ftl.get(), span);
  Rng rng(faults.seed + 1);
  for (int i = 0; i < 600; ++i) {
    shadow.Write(rng.Uniform(span));
    if (i % 5 == 0) shadow.VerifySample(rng, 2);
  }
  shadow.VerifyAll();
  EXPECT_GT(device.stats().transient_read_faults(), 0u);
  EXPECT_GE(device.stats().read_retries(),
            device.stats().transient_read_faults());
  EXPECT_EQ(device.stats().hard_read_faults(), 0u);
}

TEST_P(FaultInjectionTest, HardReadFaultSurfacesIoErrorPerExtent) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);
  ASSERT_TRUE(ftl->Write(3, 33).ok());
  ASSERT_TRUE(ftl->Write(4, 44).ok());
  ASSERT_TRUE(ftl->Write(5, 55).ok());
  ASSERT_TRUE(ftl->Flush().ok());

  // Arm an uncorrectable fault on lpn 4's live copy: a batched read must
  // fail exactly that extent and leave its siblings whole.
  device.fault_model().ArmHardReadFault(FindLiveUserPage(device, 4));
  IoRequest request = IoRequest::Read({3, 4, 5});
  IoResult result;
  ASSERT_TRUE(ftl->Submit(request, &result).ok());
  ASSERT_EQ(result.extent_status.size(), 3u);
  EXPECT_TRUE(result.extent_status[0].ok());
  EXPECT_EQ(result.extent_status[1].code(), StatusCode::kIoError);
  EXPECT_TRUE(result.extent_status[2].ok());
  EXPECT_EQ(result.payloads[0], 33u);
  EXPECT_EQ(result.payloads[2], 55u);
  EXPECT_EQ(device.stats().hard_read_faults(), 1u);

  // The fault was one-shot (a retry that found the data, per the armed
  // trigger semantics): the extent reads fine afterwards.
  uint64_t got = 0;
  ASSERT_TRUE(ftl->Read(4, &got).ok());
  EXPECT_EQ(got, 44u);
}

TEST_P(FaultInjectionTest, ProgramFaultIsTransparentlyRePlaced) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);
  ASSERT_TRUE(ftl->Write(7, 700).ok());

  // Updates stripe round-robin across the channels' active user blocks,
  // so one of the next NumChannels() updates of lpn 7 appends to the
  // armed block; fail that program and the write path must re-place it
  // without the host noticing anything but latency.
  PhysicalAddress live = FindLiveUserPage(device, 7);
  device.fault_model().ArmProgramFault(live.block, 1);
  uint64_t last = 700;
  for (uint32_t i = 0; i < NumChannels(); ++i) {
    last = 701 + i;
    ASSERT_TRUE(ftl->Write(7, last).ok());
  }
  EXPECT_FALSE(device.fault_model().HasArmedTriggers());
  EXPECT_EQ(device.stats().program_faults(), 1u);
  EXPECT_EQ(ftl->counters().remapped_programs, 1u);

  uint64_t got = 0;
  ASSERT_TRUE(ftl->Read(7, &got).ok());
  EXPECT_EQ(got, last);

  // The re-placed copy — not the bad page — owns the mapping, and it
  // reads clean.
  PhysicalAddress after = FindLiveUserPage(device, 7);
  PageReadResult good = device.ReadPage(after, IoPurpose::kUserRead);
  EXPECT_FALSE(good.media_error);
  EXPECT_EQ(good.payload, last);
}

TEST_P(FaultInjectionTest, CrashDuringRemapNeverResurrectsBadCopy) {
  // The remap window: a program carrying lpn 9's newest seq failed, and
  // the power fails before the re-placed copy commits. Recovery must keep
  // the mapping on the older good copy — the bad page has the highest
  // seq for the lpn but its data was never durable.
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 64);
  ShadowHarness shadow(ftl.get(), 32);
  for (Lpn lpn = 0; lpn < 16; ++lpn) shadow.Write(lpn);
  shadow.Write(9);  // lpn 9's live value, to survive the botched update
  ASSERT_TRUE(ftl->Flush().ok());

  auto* base = dynamic_cast<BaseFtl*>(ftl.get());
  ASSERT_NE(base, nullptr);
  PhysicalAddress target =
      base->block_manager().AllocatePage(PageType::kUser, kNoStream);
  device.fault_model().ArmProgramFault(target.block, 1);
  SpareArea spare;
  spare.type = PageType::kUser;
  spare.key = 9;
  ProgramResult bad =
      device.ProgramPage(target, spare, 999999, IoPurpose::kUserWrite);
  ASSERT_FALSE(bad.ok);

  // Crash in the remap window; the bad page is the newest 'write' of 9.
  ftl->CrashAndRecover();
  shadow.VerifyAll();
  uint64_t got = 0;
  ASSERT_TRUE(ftl->Read(9, &got).ok());
  EXPECT_NE(got, 999999u);

  // And the FTL keeps working: lpn 9 can be updated and read back.
  shadow.Write(9);
  shadow.VerifyAll();
}

TEST_P(FaultInjectionTest, GrownBadBlocksSurviveRecovery) {
  // Every erase fails: each GC cycle retires its victim. The retired set
  // lives in the medium, so a power cycle preserves it and the pool
  // never re-admits a retired block.
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = FuzzSeed(2201);
  faults.erase_fault_rate = 1.0;
  GECKO_TRACE_FUZZ_SEED(faults.seed);
  FlashDevice device(Geo(), LatencyModel(), faults);
  auto ftl = MakeFtl(FtlName(), &device, 64);
  const Lpn span = device.geometry().NumLogicalPages() / 2;

  Rng rng(faults.seed + 1);
  for (int i = 0; i < 6000 && device.NumBadBlocks() == 0; ++i) {
    Status s = ftl->Write(rng.Uniform(span), 1000 + i);
    if (!s.ok()) break;  // degraded before we sampled — still grown-bad
  }
  ASSERT_GT(device.NumBadBlocks(), 0u) << "workload never triggered GC";
  uint32_t grown = device.NumBadBlocks();
  EXPECT_EQ(ftl->counters().grown_bad_blocks, grown);

  ftl->CrashAndRecover();
  EXPECT_EQ(device.NumBadBlocks(), grown);
  EXPECT_EQ(ftl->counters().grown_bad_blocks, grown);

  // Post-recovery writes keep working and never land on retired blocks
  // (a retired page program would CHECK inside the device).
  for (int i = 0; i < 50; ++i) {
    Status s = ftl->Write(rng.Uniform(span), 2000 + i);
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kOutOfSpace)
        << s.ToString();
    if (!s.ok()) break;
  }
}

TEST_P(FaultInjectionTest, SpareExhaustionEntersReadOnlyDegradedMode) {
  // With every erase failing, the free pool only shrinks. Instead of
  // crashing when collection cannot advance, the FTL must park in sticky
  // read-only mode: writes and trims bounce with kOutOfSpace, reads and
  // flush keep working, and everything written before the wall verifies.
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = FuzzSeed(3301);
  faults.erase_fault_rate = 1.0;
  GECKO_TRACE_FUZZ_SEED(faults.seed);
  FlashDevice device(Geo(), LatencyModel(), faults);
  auto ftl = MakeFtl(FtlName(), &device, 64);
  const Lpn span = device.geometry().NumLogicalPages() / 2;

  std::map<Lpn, uint64_t> shadow;
  Rng rng(faults.seed + 1);
  uint64_t version = 0;
  bool hit_wall = false;
  for (int i = 0; i < 20000; ++i) {
    Lpn lpn = rng.Uniform(span);
    uint64_t token = RequestStream::PayloadToken(lpn, ++version);
    Status s = ftl->Write(lpn, token);
    if (s.ok()) {
      shadow[lpn] = token;
      continue;
    }
    ASSERT_EQ(s.code(), StatusCode::kOutOfSpace) << s.ToString();
    hit_wall = true;
    break;
  }
  ASSERT_TRUE(hit_wall) << "pool never exhausted despite retiring erases";

  EXPECT_TRUE(ftl->IsDegraded());
  EXPECT_EQ(ftl->counters().degraded_mode, 1u);
  EXPECT_GT(ftl->counters().grown_bad_blocks, 0u);

  // Sticky: further writes and trims are refused without side effects.
  EXPECT_EQ(ftl->Write(0, 42).code(), StatusCode::kOutOfSpace);
  EXPECT_EQ(ftl->Trim(0).code(), StatusCode::kOutOfSpace);
  EXPECT_TRUE(ftl->Flush().ok());

  // Read-only service continues: every surviving write verifies.
  for (const auto& [lpn, token] : shadow) {
    uint64_t got = 0;
    Status s = ftl->Read(lpn, &got);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(got, token) << "wrong data for lpn " << lpn;
  }

  // A power cycle clears the RAM flag; the physical shortage is still
  // there, so the first write attempts re-derive degraded mode instead
  // of crashing — and the data is still intact afterwards.
  ftl->CrashAndRecover();
  bool degraded_again = false;
  for (int i = 0; i < 50 && !degraded_again; ++i) {
    Lpn lpn = rng.Uniform(span);
    uint64_t token = RequestStream::PayloadToken(lpn, ++version);
    Status s = ftl->Write(lpn, token);
    if (s.ok()) {
      shadow[lpn] = token;
    } else {
      ASSERT_EQ(s.code(), StatusCode::kOutOfSpace) << s.ToString();
      degraded_again = true;
    }
  }
  EXPECT_TRUE(degraded_again);
  EXPECT_TRUE(ftl->IsDegraded());
  for (const auto& [lpn, token] : shadow) {
    uint64_t got = 0;
    Status s = ftl->Read(lpn, &got);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(got, token);
  }
}

TEST_P(FaultInjectionTest, MixedFaultChurnNeverReturnsWrongData) {
  // The blanket integrity property at the heart of the subsystem: under
  // simultaneous transient, hard-read and program faults plus crash
  // churn, a read either fails honestly (kIoError) or returns exactly
  // the shadow value — never wrong data.
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = FuzzSeed(4401);
  faults.transient_read_fault_rate = 0.02;
  faults.hard_read_fault_rate = 0.002;
  faults.program_fault_rate = 0.01;
  GECKO_TRACE_FUZZ_SEED(faults.seed);
  FlashDevice device(Geo(), LatencyModel(), faults);
  auto ftl = MakeFtl(FtlName(), &device, 64);
  const Lpn span = device.geometry().NumLogicalPages() / 2;

  std::map<Lpn, uint64_t> shadow;
  Rng rng(faults.seed + 1);
  uint64_t version = 0;
  uint64_t io_errors = 0;
  for (int i = 0; i < 1500; ++i) {
    uint32_t dice = rng.Uniform(1000);
    if (dice < 600) {
      Lpn lpn = rng.Uniform(span);
      uint64_t token = RequestStream::PayloadToken(lpn, ++version);
      Status s = ftl->Write(lpn, token);
      ASSERT_TRUE(s.ok()) << s.ToString();
      shadow[lpn] = token;
    } else if (dice < 970) {
      if (shadow.empty()) continue;
      auto it = shadow.lower_bound(rng.Uniform(span));
      if (it == shadow.end()) it = shadow.begin();
      uint64_t got = 0;
      Status s = ftl->Read(it->first, &got);
      if (s.code() == StatusCode::kIoError) {
        // Honest failure: the copy is unrecoverably gone. Drop the lpn
        // from the shadow — GC may discard the dead page and a post-crash
        // scan then legitimately reports it never-written.
        ++io_errors;
        shadow.erase(it);
        continue;
      }
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(got, it->second) << "wrong data for lpn " << it->first;
    } else {
      ftl->CrashAndRecover();
    }
  }
  EXPECT_GT(device.stats().transient_read_faults(), 0u);
  EXPECT_GT(device.stats().program_faults(), 0u);
  EXPECT_EQ(ftl->counters().remapped_programs,
            device.stats().program_faults());
  // Hard faults happen at this rate and length with overwhelming
  // probability, but the loop tolerates a quiet run.
  (void)io_errors;
}

GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(FaultInjectionTest);

}  // namespace
}  // namespace gecko
