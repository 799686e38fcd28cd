#include "util/flat_hash_index.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "util/random.h"

namespace gecko {
namespace {

TEST(FlatHashIndexTest, InsertFindAssignErase) {
  FlatHashIndex index;
  EXPECT_EQ(index.Find(7), FlatHashIndex::kAbsent);
  index.Insert(7, 70);
  index.Insert(0, 5);  // key 0 is an ordinary key
  EXPECT_EQ(index.Find(7), 70u);
  EXPECT_EQ(index.Find(0), 5u);
  index.Assign(7, 71);
  EXPECT_EQ(index.Find(7), 71u);
  EXPECT_EQ(index.Erase(7), 71u);
  EXPECT_EQ(index.Find(7), FlatHashIndex::kAbsent);
  EXPECT_EQ(index.size(), 1u);
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(0), FlatHashIndex::kAbsent);
}

// Random inserts and erases against std::unordered_map, on a small key
// space so probe runs collide, wrap around the bucket array and get
// backward-shifted; the index starts tiny so it also grows repeatedly.
TEST(FlatHashIndexTest, MatchesUnorderedMapUnderChurn) {
  for (uint64_t key_space : {16ull, 300ull, 1ull << 40}) {
    SCOPED_TRACE(key_space);
    Rng rng(key_space);
    FlatHashIndex index(1);
    std::unordered_map<uint64_t, uint32_t> ref;
    for (uint32_t step = 0; step < 20000; ++step) {
      const uint64_t key = rng.Uniform(key_space);
      auto it = ref.find(key);
      if (it == ref.end()) {
        if (ref.size() < 200) {
          index.Insert(key, step);
          ref[key] = step;
        }
      } else if (rng.Bernoulli(0.5)) {
        ASSERT_EQ(index.Erase(key), it->second);
        ref.erase(it);
      } else {
        index.Assign(key, step);
        it->second = step;
      }
      ASSERT_EQ(index.size(), ref.size());
      if (step % 97 == 0) {
        for (const auto& [k, v] : ref) ASSERT_EQ(index.Find(k), v);
      }
      const uint64_t probe = rng.Uniform(key_space);
      auto p = ref.find(probe);
      ASSERT_EQ(index.Find(probe),
                p == ref.end() ? FlatHashIndex::kAbsent : p->second);
    }
  }
}

}  // namespace
}  // namespace gecko
