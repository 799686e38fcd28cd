#include "ftl/mapping_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>

#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"

namespace gecko {
namespace {

MappingEntry E(uint32_t block, bool dirty = false, bool uip = false) {
  return MappingEntry{PhysicalAddress{block, 0}, dirty, uip, false};
}

TEST(MappingCacheTest, InsertAndFind) {
  MappingCache cache(4);
  cache.Insert(10, E(1));
  MappingEntry* e = cache.Find(10);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->ppa.block, 1u);
  EXPECT_EQ(cache.Find(11), nullptr);
}

TEST(MappingCacheTest, LruOrderFollowsAccess) {
  MappingCache cache(3);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.Insert(3, E(3));
  EXPECT_EQ(cache.PeekLru(), 1u);
  cache.Find(1);  // touch
  EXPECT_EQ(cache.PeekLru(), 2u);
}

TEST(MappingCacheTest, PeekDoesNotTouch) {
  MappingCache cache(3);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.Peek(1);
  EXPECT_EQ(cache.PeekLru(), 1u);
}

TEST(MappingCacheTest, NeedsEvictionAtCapacity) {
  MappingCache cache(2);
  EXPECT_FALSE(cache.NeedsEviction());
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  EXPECT_TRUE(cache.NeedsEviction());
  cache.Erase(1);
  EXPECT_FALSE(cache.NeedsEviction());
}

TEST(MappingCacheTest, DirtyCountTracksFlags) {
  MappingCache cache(4);
  cache.Insert(1, E(1, /*dirty=*/true));
  cache.Insert(2, E(2, /*dirty=*/false));
  EXPECT_EQ(cache.dirty_count(), 1u);
  MappingEntry* e = cache.Find(2);
  cache.MarkDirty(e);
  EXPECT_EQ(cache.dirty_count(), 2u);
  cache.MarkDirty(e);  // idempotent
  EXPECT_EQ(cache.dirty_count(), 2u);
  cache.MarkClean(e);
  EXPECT_EQ(cache.dirty_count(), 1u);
  cache.Erase(1);  // erasing a dirty entry decrements
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST(MappingCacheTest, DirtyInRangeSelectsByLpn) {
  MappingCache cache(8);
  cache.Insert(10, E(1, true));
  cache.Insert(11, E(2, false));
  cache.Insert(12, E(3, true));
  cache.Insert(20, E(4, true));
  std::vector<Lpn> dirty = cache.DirtyInRange(10, 15);
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0], 10u);
  EXPECT_EQ(dirty[1], 12u);
}

TEST(MappingCacheTest, OldestDirtySkipsCleanEntries) {
  MappingCache cache(4);
  cache.Insert(1, E(1, false));
  cache.Insert(2, E(2, true));
  cache.Insert(3, E(3, true));
  Lpn out;
  ASSERT_TRUE(cache.OldestDirty(&out));
  EXPECT_EQ(out, 2u);
}

TEST(MappingCacheTest, OldestDirtyFalseWhenAllClean) {
  MappingCache cache(4);
  cache.Insert(1, E(1, false));
  Lpn out;
  EXPECT_FALSE(cache.OldestDirty(&out));
}

TEST(MappingCacheTest, CheckpointReturnsStaleDirtyEntries) {
  // An entry dirtied in epoch e is synchronized by the checkpoint closing
  // epoch e+1 at the latest — the 2-period bound of Section 4.3.
  MappingCache cache(8);
  cache.Insert(1, E(1, true));
  cache.Insert(2, E(2, true));
  // Both were dirtied in the current epoch: not yet stale.
  EXPECT_TRUE(cache.TakeCheckpoint().empty());

  // Entry 1 is *updated* after the checkpoint; entry 2 is not (a read
  // touch does not refresh its dirty epoch).
  cache.MarkDirty(cache.Find(1));
  cache.Find(2);  // read touch only
  std::vector<Lpn> second = cache.TakeCheckpoint();
  // Only entry 2 was dirtied before the current epoch began.
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], 2u);
  // One more period with no updates: entry 1 goes stale too.
  std::vector<Lpn> third = cache.TakeCheckpoint();
  ASSERT_EQ(third.size(), 2u);  // 1 and the still-dirty 2
}

TEST(MappingCacheTest, ReadTouchesDoNotShieldDirtyEntriesFromCheckpoints) {
  // docs/DESIGN.md §3: a frequently-read dirty entry must still be picked
  // up by the next checkpoint, or the recovery scan bound breaks.
  MappingCache cache(8);
  cache.Insert(7, E(1, true));
  cache.TakeCheckpoint();
  for (int i = 0; i < 10; ++i) cache.Find(7);  // reads keep it MRU
  std::vector<Lpn> stale = cache.TakeCheckpoint();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], 7u);
}

TEST(MappingCacheTest, ResetClearsEverything) {
  MappingCache cache(4);
  cache.Insert(1, E(1, true));
  cache.TakeCheckpoint();
  cache.Reset();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(cache.Find(1), nullptr);
}

TEST(MappingCacheTest, LruToMruOrderIsComplete) {
  MappingCache cache(4);
  cache.Insert(5, E(1));
  cache.Insert(6, E(2));
  cache.Find(5);
  std::vector<Lpn> order = cache.LruToMruOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 6u);
  EXPECT_EQ(order[1], 5u);
}

TEST(MappingCacheTest, ContainsDoesNotTouchLru) {
  MappingCache cache(3);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(9));
  // Contains is a Peek: lpn 1 is still the LRU victim.
  EXPECT_EQ(cache.PeekLru(), 1u);
}

TEST(MappingCacheTest, InsertIfAbsentKeepsExistingEntryUntouched) {
  MappingCache cache(3);
  cache.Insert(1, E(1, /*dirty=*/true));
  MappingEntry* e = cache.InsertIfAbsent(1, E(9));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->ppa.block, 1u);  // existing entry wins: no overwrite
  EXPECT_TRUE(e->dirty);
  EXPECT_EQ(cache.dirty_count(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  MappingEntry* f = cache.InsertIfAbsent(2, E(2));
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->ppa.block, 2u);  // absent: inserted like Insert
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MappingCacheTest, InsertIfAbsentDoesNotRefreshRecency) {
  MappingCache cache(3);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.InsertIfAbsent(1, E(9));
  // The present-entry path is recency-neutral: 1 is still the victim.
  EXPECT_EQ(cache.PeekLru(), 1u);
}

// The FtlCounters::cache_misses split: a batched read with N misses on
// one translation page performs one fetch (miss_fetches) and N-1
// coalesced joins (miss_joins), and on a read-only workload over written
// translation pages the split is exhaustive.
TEST(MappingCacheMissSplitTest, BatchedReadSplitsFetchesFromJoins) {
  FlashDevice device(FtlTestGeometry());
  auto ftl = MakeFtl("DFTL", &device, 4);
  // Populate tpages 0 and 1, then fill the 4-entry cache with tpage-1
  // mappings so lpns 0..5 all miss.
  for (Lpn l = 0; l < 8; ++l) ASSERT_TRUE(ftl->Write(l, 100 + l).ok());
  for (Lpn l = 128; l < 132; ++l) ASSERT_TRUE(ftl->Write(l, 100 + l).ok());
  ASSERT_TRUE(ftl->Flush().ok());
  for (Lpn l = 128; l < 132; ++l) {
    uint64_t got = 0;
    ASSERT_TRUE(ftl->Read(l, &got).ok());
  }

  const FtlCounters before = ftl->counters();
  IoRequest request = IoRequest::Read({0, 1, 2, 3, 4, 5});
  IoResult result;
  ASSERT_TRUE(ftl->Submit(request, &result).ok());
  ASSERT_TRUE(result.AllOk());
  for (int i = 0; i < 6; ++i) EXPECT_EQ(result.payloads[i], 100u + i);

  const FtlCounters& after = ftl->counters();
  EXPECT_EQ(after.cache_misses, before.cache_misses + 6);
  EXPECT_EQ(after.miss_fetches, before.miss_fetches + 1);
  EXPECT_EQ(after.miss_joins, before.miss_joins + 5);
  // The split is exhaustive here: every one of the six misses either
  // fetched or joined.
  EXPECT_EQ(after.cache_misses - before.cache_misses,
            (after.miss_fetches - before.miss_fetches) +
                (after.miss_joins - before.miss_joins));
}

TEST(MappingCacheEvictionPolicyTest, DefaultsToPureLru) {
  MappingCache cache(4);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.Insert(3, E(3));
  // No scorer installed: the victim IS the LRU entry.
  EXPECT_EQ(cache.PeekEvictionVictim(), cache.PeekLru());
  cache.Find(1);
  EXPECT_EQ(cache.PeekEvictionVictim(), 2u);
}

TEST(MappingCacheEvictionPolicyTest, ScorerPicksColdestWithinScanDepth) {
  MappingCache cache(8);
  // Hotness oracle: lpn 2 is scorching, everything else cold.
  cache.SetEvictionPolicy([](Lpn lpn) { return lpn == 2 ? 100u : lpn; },
                          /*scan_depth=*/4);
  for (Lpn lpn = 1; lpn <= 6; ++lpn) cache.Insert(lpn, E(lpn));
  // LRU->MRU is 1..6; the scan window is {1,2,3,4}; coldest is 1.
  EXPECT_EQ(cache.PeekEvictionVictim(), 1u);
  cache.Find(1);  // 1 leaves the window; now {2,3,4,5} -> 3 (2 is hot)
  EXPECT_EQ(cache.PeekEvictionVictim(), 3u);
}

TEST(MappingCacheEvictionPolicyTest, TiesBreakTowardLru) {
  MappingCache cache(8);
  cache.SetEvictionPolicy([](Lpn) { return 7u; }, /*scan_depth=*/4);
  for (Lpn lpn = 1; lpn <= 5; ++lpn) cache.Insert(lpn, E(lpn));
  // Uniform scores degenerate to pure LRU.
  EXPECT_EQ(cache.PeekEvictionVictim(), 1u);
}

TEST(MappingCacheEvictionPolicyTest, DepthOneKeepsPureLruEvenWithScorer) {
  MappingCache cache(4);
  cache.SetEvictionPolicy([](Lpn lpn) { return 100 - lpn; },
                          /*scan_depth=*/1);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  EXPECT_EQ(cache.PeekEvictionVictim(), 1u);
}

TEST(MappingCacheEvictionPolicyTest, MruEntryIsNeverTheVictim) {
  // The satellite regression: a coalesced miss-join fetches a mapping,
  // inserts it at MRU, and the very next cache operation (the hit that
  // reads through it) may first need an eviction. The just-fetched entry
  // must not be the victim, even when the scorer says it is by far the
  // coldest entry in the cache.
  MappingCache cache(3);
  cache.SetEvictionPolicy([](Lpn lpn) { return lpn == 30 ? 0u : 50u; },
                          /*scan_depth=*/8);  // depth > size: whole window
  cache.Insert(10, E(1));
  cache.Insert(20, E(2));
  cache.Insert(30, E(3));  // the miss fill, at MRU, score 0 (ice cold)
  ASSERT_TRUE(cache.NeedsEviction());
  Lpn victim = cache.PeekEvictionVictim();
  EXPECT_NE(victim, 30u);
  EXPECT_EQ(victim, 10u);  // older entries tie at 50: LRU-most wins
  cache.Erase(victim);
  // The fetched mapping survives to serve its hit.
  EXPECT_NE(cache.Find(30), nullptr);
}

TEST(MappingCacheEvictionPolicyTest, MissJoinThenHitSurvivesFullCache) {
  // End-to-end shape of the InsertIfAbsent miss path under a full cache,
  // in both eviction modes: fill the cache, make room, insert the fetched
  // entry (InsertIfAbsent like the replayed miss fill), then verify a
  // subsequent eviction round never takes the fetched entry out from
  // under the hit that is about to consume it.
  for (bool hotness_mode : {false, true}) {
    MappingCache cache(4);
    if (hotness_mode) {
      // Adversarial scorer: the fetched lpn (99) is the coldest possible.
      cache.SetEvictionPolicy([](Lpn lpn) { return lpn == 99 ? 0u : 10u; },
                              /*scan_depth=*/4);
    }
    for (Lpn lpn = 1; lpn <= 4; ++lpn) cache.Insert(lpn, E(lpn));
    while (cache.NeedsEviction()) cache.Erase(cache.PeekEvictionVictim());
    MappingEntry* fetched = cache.InsertIfAbsent(99, E(9));
    ASSERT_NE(fetched, nullptr);
    ASSERT_TRUE(cache.NeedsEviction());
    EXPECT_NE(cache.PeekEvictionVictim(), 99u) << "hotness=" << hotness_mode;
    cache.Erase(cache.PeekEvictionVictim());
    EXPECT_NE(cache.Find(99), nullptr) << "hotness=" << hotness_mode;
  }
}

TEST(MappingCacheDeathTest, DoubleInsertAborts) {
  MappingCache cache(4);
  cache.Insert(1, E(1));
  EXPECT_DEATH(cache.Insert(1, E(2)), "already cached");
}

TEST(MappingCacheDeathTest, InsertBeyondCapacityAborts) {
  MappingCache cache(1);
  cache.Insert(1, E(1));
  EXPECT_DEATH(cache.Insert(2, E(2)), "eviction");
}

// ---------------------------------------------------------------------------
// Differential test against the tree-based cache the flat one replaced: a
// std::map of entries plus a std::list in LRU order, every query a walk.
// Both caches see the same seeded operation sequence; every return value
// and the full LRU order must agree after every step.
// ---------------------------------------------------------------------------

class ReferenceCache {
 public:
  explicit ReferenceCache(uint32_t capacity) : capacity_(capacity) {}

  MappingEntry* Find(Lpn lpn) {
    auto it = entries_.find(lpn);
    if (it == entries_.end()) return nullptr;
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return &it->second.entry;
  }
  const MappingEntry* Peek(Lpn lpn) const {
    auto it = entries_.find(lpn);
    return it == entries_.end() ? nullptr : &it->second.entry;
  }
  MappingEntry* Insert(Lpn lpn, const MappingEntry& entry) {
    lru_.push_back(lpn);
    Node& node = entries_[lpn];
    node = Node{entry, std::prev(lru_.end())};
    if (entry.dirty) {
      ++dirty_count_;
      node.entry.dirty_epoch = epoch_;
    }
    return &node.entry;
  }
  MappingEntry* InsertIfAbsent(Lpn lpn, const MappingEntry& entry) {
    auto it = entries_.find(lpn);
    if (it != entries_.end()) return &it->second.entry;
    return Insert(lpn, entry);
  }
  bool NeedsEviction() const { return entries_.size() >= capacity_; }
  void SetEvictionPolicy(MappingCache::EvictionScorer scorer,
                         uint32_t depth) {
    scorer_ = std::move(scorer);
    scan_depth_ = depth;
  }
  Lpn PeekEvictionVictim() const {
    if (!scorer_ || scan_depth_ <= 1 || lru_.size() < 2) return lru_.front();
    uint64_t limit = std::min<uint64_t>(scan_depth_, lru_.size() - 1);
    Lpn victim = lru_.front();
    uint64_t best = scorer_(victim);
    auto it = lru_.begin();
    for (uint64_t i = 1; i < limit; ++i) {
      ++it;
      if (scorer_(*it) < best) {
        best = scorer_(*it);
        victim = *it;
      }
    }
    return victim;
  }
  void Erase(Lpn lpn) {
    auto it = entries_.find(lpn);
    if (it->second.entry.dirty) --dirty_count_;
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  std::vector<Lpn> DirtyInRange(Lpn lo, Lpn hi) const {
    std::vector<Lpn> out;
    for (auto it = entries_.lower_bound(lo);
         it != entries_.end() && it->first <= hi; ++it) {
      if (it->second.entry.dirty) out.push_back(it->first);
    }
    return out;
  }
  bool OldestDirty(Lpn* out) const {
    for (Lpn lpn : lru_) {
      if (entries_.at(lpn).entry.dirty) {
        *out = lpn;
        return true;
      }
    }
    return false;
  }
  std::vector<Lpn> TakeCheckpoint() {
    std::vector<Lpn> stale;
    for (const auto& [lpn, node] : entries_) {
      if (node.entry.dirty && node.entry.dirty_epoch < epoch_) {
        stale.push_back(lpn);
      }
    }
    ++epoch_;
    return stale;
  }
  void MarkDirty(MappingEntry* entry) {
    if (!entry->dirty) {
      entry->dirty = true;
      ++dirty_count_;
    }
    entry->dirty_epoch = epoch_;
  }
  void MarkClean(MappingEntry* entry) {
    entry->dirty = false;
    --dirty_count_;
  }
  void AdvanceEpoch() { ++epoch_; }
  void Reset() {
    entries_.clear();
    lru_.clear();
    dirty_count_ = 0;
    epoch_ = 1;
  }
  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }
  uint32_t dirty_count() const { return dirty_count_; }
  uint64_t epoch() const { return epoch_; }
  std::vector<Lpn> LruToMruOrder() const {
    return std::vector<Lpn>(lru_.begin(), lru_.end());
  }

 private:
  struct Node {
    MappingEntry entry;
    std::list<Lpn>::iterator lru_it;
  };
  uint32_t capacity_;
  std::map<Lpn, Node> entries_;
  std::list<Lpn> lru_;
  uint32_t dirty_count_ = 0;
  uint64_t epoch_ = 1;
  MappingCache::EvictionScorer scorer_;
  uint32_t scan_depth_ = 1;
};

void ExpectSameEntry(const MappingEntry* got, const MappingEntry* want) {
  ASSERT_EQ(got == nullptr, want == nullptr);
  if (got == nullptr) return;
  EXPECT_EQ(got->ppa, want->ppa);
  EXPECT_EQ(got->dirty, want->dirty);
  EXPECT_EQ(got->uip, want->uip);
  EXPECT_EQ(got->uncertain, want->uncertain);
  EXPECT_EQ(got->dirty_epoch, want->dirty_epoch);
}

struct DiffParam {
  uint32_t capacity;
  uint32_t lpns_per_tpage;
  bool scorer;
};

class MappingCacheDifferentialTest
    : public ::testing::TestWithParam<DiffParam> {};

TEST_P(MappingCacheDifferentialTest, MatchesTreeCacheOnRandomSequences) {
  const DiffParam param = GetParam();
  const uint64_t seed = FuzzSeed(20261017);
  GECKO_TRACE_FUZZ_SEED(seed);
  for (uint64_t round = 0; round < 4; ++round) {
    Rng rng(seed + round);
    MappingCache cache(param.capacity, param.lpns_per_tpage);
    ReferenceCache ref(param.capacity);
    if (param.scorer) {
      // A deterministic hotness stand-in with many ties.
      auto scorer = [](Lpn lpn) { return (lpn * 2654435761u) % 7; };
      cache.SetEvictionPolicy(scorer, 5);
      ref.SetEvictionPolicy(scorer, 5);
    }
    const uint64_t universe = uint64_t{param.capacity} * 4;
    for (int step = 0; step < 6000; ++step) {
      SCOPED_TRACE(::testing::Message() << "round " << round << " step "
                                        << step);
      const Lpn lpn = rng.Uniform(universe);
      const uint64_t op = rng.Uniform(100);
      if (op < 25) {  // read hit or miss fill
        MappingEntry* got = cache.Find(lpn);
        MappingEntry* want = ref.Find(lpn);
        ExpectSameEntry(got, want);
      } else if (op < 32) {
        ExpectSameEntry(cache.Peek(lpn), ref.Peek(lpn));
        EXPECT_EQ(cache.Contains(lpn), ref.Peek(lpn) != nullptr);
      } else if (op < 50) {  // write: Find + MarkDirty, or insert dirty
        MappingEntry* got = cache.Find(lpn);
        MappingEntry* want = ref.Find(lpn);
        ASSERT_EQ(got == nullptr, want == nullptr);
        const PhysicalAddress ppa{static_cast<BlockId>(step), 1};
        if (got != nullptr) {
          cache.MarkDirty(got);
          ref.MarkDirty(want);
          got->ppa = want->ppa = ppa;
        } else {
          while (cache.NeedsEviction()) {
            ASSERT_TRUE(ref.NeedsEviction());
            const Lpn victim = cache.PeekEvictionVictim();
            ASSERT_EQ(victim, ref.PeekEvictionVictim());
            cache.Erase(victim);
            ref.Erase(victim);
          }
          ASSERT_FALSE(ref.NeedsEviction());
          const bool dirty = rng.Bernoulli(0.8);
          const bool uip = rng.Bernoulli(0.5);
          MappingEntry fresh{ppa, dirty, uip, /*uncertain=*/false};
          MappingEntry* a = cache.Insert(lpn, fresh);
          MappingEntry* b = ref.Insert(lpn, fresh);
          if (!dirty) {  // a miss fill the write then dirties
            cache.MarkDirty(a);
            ref.MarkDirty(b);
          }
        }
      } else if (op < 56) {  // replayed miss fill
        if (cache.Peek(lpn) == nullptr) {
          while (cache.NeedsEviction()) {
            const Lpn victim = cache.PeekEvictionVictim();
            ASSERT_EQ(victim, ref.PeekEvictionVictim());
            cache.Erase(victim);
            ref.Erase(victim);
          }
        }
        const MappingEntry fill{PhysicalAddress{7, 7}, false, false, false};
        ExpectSameEntry(cache.InsertIfAbsent(lpn, fill),
                        ref.InsertIfAbsent(lpn, fill));
      } else if (op < 62) {
        if (ref.Peek(lpn) != nullptr) {
          cache.Erase(lpn);
          ref.Erase(lpn);
        }
      } else if (op < 72) {  // dirty-cap sync: clean the oldest dirty
        Lpn got = 0, want = 0;
        const bool any = cache.OldestDirty(&got);
        ASSERT_EQ(any, ref.OldestDirty(&want));
        if (any) {
          ASSERT_EQ(got, want);
          cache.MarkClean(cache.Find(got));
          ref.MarkClean(ref.Find(want));
        }
      } else if (op < 82) {  // a synchronization of lpn's translation page
        const Lpn first = lpn / param.lpns_per_tpage * param.lpns_per_tpage;
        const Lpn last = first + param.lpns_per_tpage - 1;
        std::vector<Lpn> dirty = cache.DirtyInRange(first, last);
        ASSERT_EQ(dirty, ref.DirtyInRange(first, last));
        for (Lpn d : dirty) {  // Find per lpn, ascending, like the FTL
          MappingEntry* a = cache.Find(d);
          MappingEntry* b = ref.Find(d);
          ASSERT_NE(a, nullptr);
          a->uip = b->uip = false;
          cache.MarkClean(a);
          ref.MarkClean(b);
        }
      } else if (op < 86) {  // an arbitrary range
        const Lpn lo = rng.Uniform(universe);
        const Lpn hi = lo + rng.Uniform(universe);
        EXPECT_EQ(cache.DirtyInRange(lo, hi), ref.DirtyInRange(lo, hi));
      } else if (op < 92) {
        EXPECT_EQ(cache.TakeCheckpoint(), ref.TakeCheckpoint());
      } else if (op < 94) {
        cache.AdvanceEpoch();
        ref.AdvanceEpoch();
      } else if (op < 99) {
        if (ref.size() > 0) {
          EXPECT_EQ(cache.PeekEvictionVictim(), ref.PeekEvictionVictim());
          EXPECT_EQ(cache.PeekLru(), ref.LruToMruOrder().front());
        }
      } else if (rng.Bernoulli(0.1)) {
        cache.Reset();
        ref.Reset();
      }
      ASSERT_EQ(cache.LruToMruOrder(), ref.LruToMruOrder());
      ASSERT_EQ(cache.size(), ref.size());
      ASSERT_EQ(cache.dirty_count(), ref.dirty_count());
      ASSERT_EQ(cache.epoch(), ref.epoch());
      ASSERT_EQ(cache.NeedsEviction(), ref.NeedsEviction());
      if (step % 64 == 0) {
        for (Lpn l : ref.LruToMruOrder()) {
          ExpectSameEntry(cache.Peek(l), ref.Peek(l));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MappingCacheDifferentialTest,
    ::testing::Values(DiffParam{1, 1, false}, DiffParam{16, 1, false},
                      DiffParam{16, 8, true}, DiffParam{64, 16, false},
                      DiffParam{64, 16, true}, DiffParam{200, 128, true}),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      return "C" + std::to_string(info.param.capacity) + "_G" +
             std::to_string(info.param.lpns_per_tpage) +
             (info.param.scorer ? "_scored" : "_lru");
    });

TEST(MappingCacheDeathTest, MarkDirtyOnNonMruEntryAborts) {
  // The dirty list stays in LRU order only because a newly dirtied entry
  // is the MRU entry; dirtying any other entry is a caller bug.
  MappingCache cache(4);
  MappingEntry* old = cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  EXPECT_DEATH(cache.MarkDirty(old), "not the MRU entry");
}

}  // namespace
}  // namespace gecko
