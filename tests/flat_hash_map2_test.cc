// FlatHashMap2 (SwissTable-style metadata probing, journal-driven clear,
// insertion-order iteration), its guards against lookups that grow the map
// and doubling-loop overflow, and the PackNodeLevel level cap. Also pins
// the invariant the query accumulators rely on: ForEach order is the
// first-touch order of the keys, a pure function of the insertion
// sequence, never of the capacity a reused map retained from earlier
// queries.

#include "util/flat_hash_map2.h"

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel.h"
#include "util/rng.h"

namespace prsim {
namespace {

TEST(FlatHashMap2Test, InsertAndFind) {
  FlatHashMap2<double> map;
  map[3] = 1.5;
  map[7] += 2.0;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(3), nullptr);
  EXPECT_DOUBLE_EQ(*map.Find(3), 1.5);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_DOUBLE_EQ(*map.Find(7), 2.0);
  EXPECT_EQ(map.Find(4), nullptr);
  EXPECT_TRUE(map.Contains(3));
  EXPECT_FALSE(map.Contains(4));
}

TEST(FlatHashMap2Test, OperatorBracketDefaultConstructs) {
  FlatHashMap2<double> map;
  EXPECT_DOUBLE_EQ(map[42], 0.0);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap2Test, NoReservedKeys) {
  // Unlike v1 (kEmptyKey is a sentinel), every uint64 is insertable:
  // presence lives in the control byte.
  FlatHashMap2<int> map;
  map[~0ULL] = 7;
  map[0] = 9;
  ASSERT_NE(map.Find(~0ULL), nullptr);
  EXPECT_EQ(*map.Find(~0ULL), 7);
  ASSERT_NE(map.Find(0), nullptr);
  EXPECT_EQ(*map.Find(0), 9);
}

TEST(FlatHashMap2Test, GrowPreservesEntries) {
  FlatHashMap2<uint64_t> map(4);
  for (uint64_t i = 0; i < 5000; ++i) map[i * 3 + 1] = i;
  EXPECT_EQ(map.size(), 5000u);
  for (uint64_t i = 0; i < 5000; ++i) {
    const uint64_t* v = map.Find(i * 3 + 1);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(map.Find(2), nullptr);
}

TEST(FlatHashMap2Test, ClearEmptiesAndDoesNotResurrectStaleValues) {
  FlatHashMap2<int> map;
  for (uint64_t i = 0; i < 100; ++i) map[i] = 1 + static_cast<int>(i);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(5), nullptr);
  // clear() resets only control bytes; the payload of a reused slot must
  // still come back default-constructed.
  EXPECT_EQ(map[5], 0);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap2Test, SparseAndDenseClearPathsAgree) {
  // Journal walk (sparse) and control memset (dense) must be
  // indistinguishable. Cycle both regimes through one retained-capacity
  // map against a reference.
  FlatHashMap2<uint64_t> map(2048);  // 4096 slots
  Rng rng(7);
  for (int cycle = 0; cycle < 20; ++cycle) {
    // Odd cycles stay tiny (journal path); even cycles go dense (memset).
    const uint64_t count = (cycle % 2 == 1) ? 17 : 3000;
    std::unordered_map<uint64_t, uint64_t> ref;
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t key = rng.NextBounded(1u << 20);
      map[key] += cycle + 1;
      ref[key] += cycle + 1;
    }
    ASSERT_EQ(map.size(), ref.size()) << cycle;
    for (const auto& [k, v] : ref) {
      const uint64_t* found = map.Find(k);
      ASSERT_NE(found, nullptr) << cycle << " key " << k;
      ASSERT_EQ(*found, v) << cycle << " key " << k;
    }
    EXPECT_EQ(map.capacity(), 4096u) << cycle;
    map.clear();
    ASSERT_TRUE(map.empty());
  }
}

TEST(FlatHashMap2Test, ForEachIsInsertionOrderAndSurvivesRehash) {
  FlatHashMap2<uint64_t> map(4);
  std::vector<uint64_t> inserted;
  Rng rng(13);
  std::set<uint64_t> used;
  for (int i = 0; i < 1500; ++i) {  // several rehashes from capacity 16
    const uint64_t key = rng.Next();
    if (!used.insert(key).second) continue;
    map[key] = static_cast<uint64_t>(i);
    inserted.push_back(key);
  }
  std::vector<uint64_t> seen;
  map.ForEach([&](uint64_t k, const uint64_t&) { seen.push_back(k); });
  EXPECT_EQ(seen, inserted);

  // ToVector inherits the order.
  const auto pairs = map.ToVector();
  ASSERT_EQ(pairs.size(), inserted.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].first, inserted[i]);
  }
}

TEST(FlatHashMap2Test, ForEachMutableWrites) {
  FlatHashMap2<uint64_t> map;
  for (uint64_t i = 0; i < 64; ++i) map[i] = i;
  map.ForEachMutable([](uint64_t, uint64_t& v) { v *= 2; });
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_NE(map.Find(i), nullptr);
    EXPECT_EQ(*map.Find(i), i * 2);
  }
}

TEST(FlatHashMap2Test, AgreesWithStdUnorderedMapUnderRandomOps) {
  Rng rng(99);
  FlatHashMap2<double> mine;
  std::unordered_map<uint64_t, double> ref;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(3000);
    const double val = rng.NextDouble();
    mine[key] += val;
    ref[key] += val;
  }
  EXPECT_EQ(mine.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const double* found = mine.Find(k);
    ASSERT_NE(found, nullptr) << k;
    EXPECT_DOUBLE_EQ(*found, v);
  }
}

TEST(FlatHashMap2Test, LookupNeverGrows) {
  // Small-regime v2 grows at 1/2 load, and the minimum table is 64 slots
  // (one cache line of control bytes): it accepts 32 entries. Lookups of
  // present keys at the boundary must not rehash (capacity is a pure
  // function of the insert count).
  FlatHashMap2<int> map(4);
  ASSERT_EQ(map.capacity(), 64u);
  for (uint64_t i = 0; i < 32; ++i) map[i] = 1;
  ASSERT_EQ(map.capacity(), 64u);
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (uint64_t i = 0; i < 32; ++i) map[i] += 1;
  }
  EXPECT_EQ(map.capacity(), 64u);  // lookup-heavy traffic: no growth
  map[99] = 1;  // a real insert crosses 1/2 load; small regime grows 4x
  EXPECT_EQ(map.capacity(), 256u);
  EXPECT_EQ(map.size(), 33u);
}

// --------------------------------------------------------------------------
// Overflow guards
// --------------------------------------------------------------------------

TEST(FlatHashMapOverflowGuardTest, HugeRequestsAreRejected) {
  // The power-of-two doubling loops used to spin or wrap on huge requests;
  // now they fail loudly before allocating anything.
  EXPECT_DEATH(FlatHashMap2<int> m(~size_t{0} / 2), "exceeds");
  // In-range requests still work.
  const FlatHashMap2<int> map(1 << 11);
  EXPECT_GE(map.capacity(), size_t{1} << 12);
}

// --------------------------------------------------------------------------
// PackNodeLevel
// --------------------------------------------------------------------------

TEST(PackNodeLevelTest, RoundTripsAtBoundaries) {
  const uint32_t max_node = ~0u;
  const uint32_t max_level = kPackNodeLevelCap - 1;
  const std::pair<uint32_t, uint32_t> cases[] = {
      {0u, 0u}, {1u, 0u}, {0u, 1u},          {max_node, 0u},
      {0u, max_level}, {max_node, max_level}, {12345u, 64u},
  };
  for (const auto& [node, level] : cases) {
    const uint64_t key = PackNodeLevel(node, level);
    EXPECT_EQ(UnpackNode(key), node) << node << "," << level;
    EXPECT_EQ(UnpackLevel(key), level) << node << "," << level;
  }
}

TEST(PackNodeLevelTest, TopByteIsAlwaysClear) {
  // Levels occupy bits 32..55, so the top byte of a packed key is always
  // zero.
  const uint64_t max_packed = PackNodeLevel(~0u, kPackNodeLevelCap - 1);
  EXPECT_EQ(max_packed >> 56, 0u);
}

#ifndef NDEBUG
TEST(PackNodeLevelTest, LevelCapIsEnforcedInDebugBuilds) {
  EXPECT_DEATH(PackNodeLevel(0, kPackNodeLevelCap), "Check failed");
}
#endif

// --------------------------------------------------------------------------
// ForEach order under capacity-retained reuse — the invariant that makes a
// warmed workspace answer like a fresh one.
// --------------------------------------------------------------------------

/// Runs one accumulation sequence through operator[] and returns the keys
/// in ForEach order.
std::vector<uint64_t> ForEachOrder(FlatHashMap2<double>& map,
                                   const std::vector<uint64_t>& sequence) {
  for (const uint64_t k : sequence) map[k] += 1.0;
  std::vector<uint64_t> order;
  map.ForEach([&](uint64_t k, const double&) { order.push_back(k); });
  return order;
}

TEST(FlatHashMap2Test, ForEachIsFirstTouchOrderAtAnyRetainedCapacity) {
  Rng rng(21);
  std::vector<uint64_t> sequence;
  for (int i = 0; i < 400; ++i) sequence.push_back(rng.NextBounded(200));
  std::vector<uint64_t> first_touch;
  std::set<uint64_t> seen;
  for (const uint64_t k : sequence) {
    if (seen.insert(k).second) first_touch.push_back(k);
  }

  FlatHashMap2<double> fresh(16);
  EXPECT_EQ(ForEachOrder(fresh, sequence), first_touch);

  FlatHashMap2<double> retained(16);
  for (uint64_t k = 0; k < 3000; ++k) retained[k * 7919] = 1.0;
  retained.clear();
  EXPECT_EQ(ForEachOrder(retained, sequence), first_touch);
}

// --------------------------------------------------------------------------
// Shared read-only use across pool workers (run under TSan in CI).
// --------------------------------------------------------------------------

TEST(FlatHashMap2ConcurrencyTest, ConcurrentReadersOnSharedMap) {
  // The shared-index pattern: one immutable map (PRSimIndex::hub_slot_),
  // many pool workers calling Find concurrently.
  FlatHashMap2<uint32_t> map;
  constexpr uint64_t kKeys = 20000;
  for (uint64_t i = 0; i < kKeys; ++i) map[i * 11] = static_cast<uint32_t>(i);
  const FlatHashMap2<uint32_t>& shared = map;

  std::vector<uint64_t> hit_counts(8, 0);
  ParallelFor(0, 8, [&](size_t worker) {
    uint64_t hits = 0;
    for (uint64_t i = 0; i < kKeys; ++i) {
      const uint32_t* v = shared.Find(i * 11);
      if (v != nullptr && *v == i) ++hits;
      if (shared.Contains(i * 11 + 1)) ++hits;  // misses by construction
    }
    hit_counts[worker] = hits;
  }, 8);
  for (const uint64_t hits : hit_counts) EXPECT_EQ(hits, kKeys);
}

}  // namespace
}  // namespace prsim
