// Open-addressed hash index from a 64-bit key to a 32-bit value.
//
// Linear probing over a power-of-two bucket array with Fibonacci hashing;
// deletion shifts the following run back instead of leaving tombstones,
// so probe lengths depend only on the live keys. The index grows (doubles)
// when it would pass half full; callers that know their bound pass it to
// the constructor and never rehash. Used for the mapping cache's lpn and
// translation-page indexes and the async engine's dependency-key table.

#ifndef GECKOFTL_UTIL_FLAT_HASH_INDEX_H_
#define GECKOFTL_UTIL_FLAT_HASH_INDEX_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace gecko {

class FlatHashIndex {
 public:
  /// Value returned by Find for an absent key; never stored.
  static constexpr uint32_t kAbsent = ~0u;

  /// Sized so `expected` keys fit without rehashing.
  explicit FlatHashIndex(uint32_t expected = 4) {
    Rebuild(BucketsFor(expected));
  }

  uint32_t size() const { return size_; }

  /// The value stored for `key`, or kAbsent.
  uint32_t Find(uint64_t key) const {
    for (uint64_t i = Home(key);; i = (i + 1) & mask_) {
      const Bucket& b = buckets_[i];
      if (b.value == kAbsent) return kAbsent;
      if (b.key == key) return b.value;
    }
  }

  /// Adds `key` -> `value`; `key` must be absent.
  void Insert(uint64_t key, uint32_t value) {
    GECKO_CHECK_NE(value, kAbsent);
    if (uint64_t{size_ + 1} * 2 > buckets_.size()) Grow();
    uint64_t i = Home(key);
    while (buckets_[i].value != kAbsent) {
      GECKO_CHECK_NE(buckets_[i].key, key) << "duplicate key " << key;
      i = (i + 1) & mask_;
    }
    buckets_[i] = Bucket{key, value};
    ++size_;
  }

  /// Overwrites the value of a present `key`.
  void Assign(uint64_t key, uint32_t value) {
    GECKO_CHECK_NE(value, kAbsent);
    buckets_[PositionOf(key)].value = value;
  }

  /// Removes a present `key` and returns its value.
  uint32_t Erase(uint64_t key) {
    uint64_t hole = PositionOf(key);
    const uint32_t value = buckets_[hole].value;
    // Backward shift: pull every later member of the probe run whose home
    // does not lie cyclically in (hole, j] into the hole.
    for (uint64_t j = (hole + 1) & mask_; buckets_[j].value != kAbsent;
         j = (j + 1) & mask_) {
      const uint64_t home = Home(buckets_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole].value = kAbsent;
    --size_;
    return value;
  }

  void Clear() {
    for (Bucket& b : buckets_) b.value = kAbsent;
    size_ = 0;
  }

 private:
  struct Bucket {
    uint64_t key = 0;
    uint32_t value = kAbsent;
  };

  static uint64_t BucketsFor(uint32_t expected) {
    uint64_t n = 8;
    while (n < uint64_t{expected} * 2) n *= 2;
    return n;
  }

  uint64_t Home(uint64_t key) const {
    return (key * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  uint64_t PositionOf(uint64_t key) const {
    for (uint64_t i = Home(key);; i = (i + 1) & mask_) {
      GECKO_CHECK_NE(buckets_[i].value, kAbsent) << "absent key " << key;
      if (buckets_[i].key == key) return i;
    }
  }

  void Rebuild(uint64_t num_buckets) {
    buckets_.assign(num_buckets, Bucket{});
    mask_ = num_buckets - 1;
    shift_ = 64;
    for (uint64_t n = num_buckets; n > 1; n /= 2) --shift_;
    size_ = 0;
  }

  void Grow() {
    std::vector<Bucket> old;
    old.swap(buckets_);
    Rebuild(old.size() * 2);
    for (const Bucket& b : old) {
      if (b.value != kAbsent) Insert(b.key, b.value);
    }
  }

  std::vector<Bucket> buckets_;
  uint64_t mask_ = 0;
  uint32_t shift_ = 64;
  uint32_t size_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_UTIL_FLAT_HASH_INDEX_H_
