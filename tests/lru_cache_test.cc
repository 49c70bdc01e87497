// Unit tests for util/lru_cache.h: recency order, byte-budgeted eviction,
// oversized-entry refusal, overwrite re-costing, counters, and a long
// random churn checked against a naive reference LRU.

#include "util/lru_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace prsim {
namespace {

using Cache = LruCache<uint64_t, std::string>;

TEST(LruCacheTest, GetReturnsWhatPutStored) {
  Cache cache(1024);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_TRUE(cache.Put(1, "one", 10));
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), "one");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 10u);
  EXPECT_EQ(cache.budget(), 1024u);
}

TEST(LruCacheTest, GetPromotesAndEvictionTakesTheTail) {
  // Budget fits exactly two 10-byte entries. Insert A, B; touch A; insert
  // C. The LRU victim must be B (A was promoted by the Get).
  Cache cache(20);
  ASSERT_TRUE(cache.Put(1, "A", 10));
  ASSERT_TRUE(cache.Put(2, "B", 10));
  ASSERT_NE(cache.Get(1), nullptr);  // promotes A over B
  ASSERT_TRUE(cache.Put(3, "C", 10));

  EXPECT_EQ(cache.Get(2), nullptr) << "B should have been evicted";
  ASSERT_NE(cache.Get(1), nullptr);
  ASSERT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 20u);
  EXPECT_EQ(cache.evictions(), 1u);
  // The verification Gets above promoted 1 then 3, so MRU -> LRU is [3, 1].
  const std::vector<uint64_t> order = cache.KeysByRecency();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 3u);
  EXPECT_EQ(order[1], 1u);
}

TEST(LruCacheTest, CostAwareEvictionDropsMultipleVictims) {
  // One large insert must evict as many tail entries as needed to fit.
  Cache cache(100);
  ASSERT_TRUE(cache.Put(1, "a", 30));
  ASSERT_TRUE(cache.Put(2, "b", 30));
  ASSERT_TRUE(cache.Put(3, "c", 30));
  // 90 bytes used; a 65-byte entry forces out the two oldest (1 and 2)
  // before 90 + 65 = 155 fits under 100 again at 95.
  ASSERT_TRUE(cache.Put(4, "d", 65));
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(3), nullptr);
  ASSERT_NE(cache.Get(4), nullptr);
  EXPECT_EQ(cache.bytes(), 95u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(LruCacheTest, OversizedPutIsRefused) {
  Cache cache(50);
  EXPECT_FALSE(cache.Put(1, "too big", 51));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  // An exact-budget entry is accepted.
  EXPECT_TRUE(cache.Put(2, "fits", 50));
  EXPECT_EQ(cache.bytes(), 50u);
  // A refused Put never evicts the resident entry.
  EXPECT_FALSE(cache.Put(3, "too big", 51));
  ASSERT_NE(cache.Get(2), nullptr);
}

TEST(LruCacheTest, OverwriteReplacesValueAndCost) {
  Cache cache(100);
  ASSERT_TRUE(cache.Put(1, "old", 40));
  ASSERT_TRUE(cache.Put(2, "other", 40));
  // Overwriting key 1 with a new cost adjusts bytes and promotes it.
  ASSERT_TRUE(cache.Put(1, "new", 10));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 50u);
  EXPECT_EQ(*cache.Get(1), "new");
  const std::vector<uint64_t> order = cache.KeysByRecency();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // Get(1) above also keeps it in front
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheTest, HitAndMissCountersPartitionLookups) {
  Cache cache(100);
  ASSERT_TRUE(cache.Put(1, "x", 10));
  (void)cache.Get(1);  // hit
  (void)cache.Get(1);  // hit
  (void)cache.Get(2);  // miss
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, ClearDropsEverythingButKeepsCounters) {
  Cache cache(100);
  ASSERT_TRUE(cache.Put(1, "x", 10));
  (void)cache.Get(1);
  (void)cache.Get(2);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);  // the post-Clear Get(1) counted too
  // Reusable after Clear.
  ASSERT_TRUE(cache.Put(3, "y", 10));
  ASSERT_NE(cache.Get(3), nullptr);
}

/// The byte-budgeted LRU policy spelled out as naively as possible: a
/// vector of (key, cost) pairs, most recent first.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t budget) : budget_(budget) {}

  bool Get(uint64_t key) {
    const auto it = Find(key);
    if (it == entries_.end()) return false;
    std::rotate(entries_.begin(), it, it + 1);
    return true;
  }

  bool Put(uint64_t key, size_t cost) {
    if (cost > budget_) return false;
    const auto it = Find(key);
    if (it != entries_.end()) entries_.erase(it);
    entries_.insert(entries_.begin(), {key, cost});
    while (Bytes() > budget_) {
      entries_.pop_back();
      ++evictions_;
    }
    return true;
  }

  size_t Bytes() const {
    size_t bytes = 0;
    for (const auto& entry : entries_) bytes += entry.second;
    return bytes;
  }
  std::vector<uint64_t> Keys() const {
    std::vector<uint64_t> keys;
    for (const auto& entry : entries_) keys.push_back(entry.first);
    return keys;
  }
  uint64_t evictions() const { return evictions_; }

 private:
  std::vector<std::pair<uint64_t, size_t>>::iterator Find(uint64_t key) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [key](const auto& entry) { return entry.first == key; });
  }

  size_t budget_;
  std::vector<std::pair<uint64_t, size_t>> entries_;
  uint64_t evictions_ = 0;
};

TEST(LruCacheTest, HeavyChurnMatchesReferenceModel) {
  // Thousands of evictions from a key window much larger than the budget,
  // with overwrites that re-cost, promoting Gets, and refused oversized
  // Puts mixed in. After every operation the cache must agree with the
  // reference on the answer, the recency order, the bytes and the
  // eviction count.
  constexpr size_t kBudget = 80;
  Cache cache(kBudget);
  ReferenceLru reference(kBudget);
  std::mt19937_64 rng(42);
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng() % 100;
    if (rng() % 3 == 0) {
      const bool hit = reference.Get(key);
      const std::string* value = cache.Get(key);
      ASSERT_EQ(value != nullptr, hit) << "op " << op;
      if (hit) {
        ++hits;
        EXPECT_EQ(*value, std::to_string(key));
      } else {
        ++misses;
      }
    } else {
      const size_t cost = 1 + rng() % 85;  // > kBudget is refused
      ASSERT_EQ(cache.Put(key, std::to_string(key), cost),
                reference.Put(key, cost))
          << "op " << op;
    }
    ASSERT_EQ(cache.KeysByRecency(), reference.Keys()) << "op " << op;
    ASSERT_EQ(cache.bytes(), reference.Bytes());
    ASSERT_LE(cache.bytes(), cache.budget());
    ASSERT_EQ(cache.size(), reference.Keys().size());
    ASSERT_EQ(cache.evictions(), reference.evictions());
  }
  EXPECT_GT(cache.evictions(), 1000u);
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
}

TEST(LruCacheTest, MoveOnlyValuesWork) {
  LruCache<uint64_t, std::unique_ptr<int>> cache(100);
  ASSERT_TRUE(cache.Put(1, std::make_unique<int>(42), 10));
  auto* value = cache.Get(1);
  ASSERT_NE(value, nullptr);
  ASSERT_NE(value->get(), nullptr);
  EXPECT_EQ(**value, 42);
  // Eviction releases the payload (would leak / double-free on a bug;
  // ASan-covered in the sanitize CI job).
  ASSERT_TRUE(cache.Put(2, std::make_unique<int>(43), 100));
  EXPECT_EQ(cache.Get(1), nullptr);
}

}  // namespace
}  // namespace prsim
