// Tests for the unified engine API: EngineConfig parsing/validation, the
// string-keyed EngineRegistry, the grown SingleSourceSimRank surface
// (QueryTopK / QueryPair / CloneWithSeed / QueryCost), and TopK semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_config.h"
#include "core/engine_registry.h"
#include "core/prsim.h"
#include "gen/chung_lu.h"
#include "test_util.h"

namespace prsim {
namespace {

using testing::MakeRandomDigraph;
using testing::MakeSharedParent;

/// The quickstart citation graph: a 12-node DAG with meaningful SimRank
/// structure (nodes 0 and 1 are surveys with overlapping citers).
Graph MakeCitationGraph() {
  return BuildGraph(12, {{2, 0}, {3, 0}, {4, 0}, {4, 1}, {5, 1}, {6, 1},
                         {7, 2}, {8, 2}, {9, 3}, {10, 5}, {11, 5}, {7, 3}})
      .ValueOrDie();
}

/// Small per-engine overrides that keep the round-trip test fast (the Monte
/// Carlo default of 10000 pair walks per node is overkill on 12 nodes).
std::string RoundTripParams(const std::string& name) {
  if (name == "montecarlo") return "samples=500";
  if (name == "tsf") return "rg=60,rq=10";
  return "";
}

// ---------------------------------------------------------------------------
// EngineConfig
// ---------------------------------------------------------------------------

TEST(EngineConfigTest, ParsesKeyValueList) {
  auto config = EngineConfig::Parse("c=0.5,eps=0.2,paper_constants=true");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  double c = 0, eps = 0;
  bool paper = false;
  ASSERT_TRUE(config.ValueOrDie().GetDouble("c", &c).ok());
  ASSERT_TRUE(config.ValueOrDie().GetDouble("eps", &eps).ok());
  ASSERT_TRUE(config.ValueOrDie().GetBool("paper_constants", &paper).ok());
  EXPECT_DOUBLE_EQ(c, 0.5);
  EXPECT_DOUBLE_EQ(eps, 0.2);
  EXPECT_TRUE(paper);
  EXPECT_EQ(config.ValueOrDie().ToString(),
            "c=0.5,eps=0.2,paper_constants=true");
}

TEST(EngineConfigTest, EmptyStringParsesToEmptyConfig) {
  auto config = EngineConfig::Parse("");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config.ValueOrDie().empty());
}

TEST(EngineConfigTest, AbsentKeyLeavesDefaultUntouched) {
  auto config = EngineConfig::Parse("c=0.4").ValueOrDie();
  double eps = 0.125;
  ASSERT_TRUE(config.GetDouble("eps", &eps).ok());
  EXPECT_DOUBLE_EQ(eps, 0.125);
}

TEST(EngineConfigTest, DuplicateKeyIsAnError) {
  auto config = EngineConfig::Parse("eps=0.1,eps=0.2");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("duplicate"), std::string::npos);
}

TEST(EngineConfigTest, SegmentWithoutEqualsIsAnError) {
  EXPECT_FALSE(EngineConfig::Parse("eps").ok());
  EXPECT_FALSE(EngineConfig::Parse("c=0.5,bare").ok());
  EXPECT_FALSE(EngineConfig::Parse("=5").ok());
}

TEST(EngineConfigTest, MalformedValuesAreTypedErrors) {
  auto config = EngineConfig::Parse("eps=abc,j0=-3,flag=maybe").ValueOrDie();
  double eps = 0;
  uint32_t j0 = 0;
  bool flag = false;
  EXPECT_FALSE(config.GetDouble("eps", &eps).ok());
  EXPECT_FALSE(config.GetUint32("j0", &j0).ok());
  EXPECT_FALSE(config.GetBool("flag", &flag).ok());
}

TEST(EngineConfigTest, ExpectOnlyFlagsUnknownKeys) {
  auto config = EngineConfig::Parse("c=0.5,bogus=1").ValueOrDie();
  const Status st = config.ExpectOnly({"c", "eps"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bogus"), std::string::npos);
  EXPECT_TRUE(config.ExpectOnly({"c", "bogus"}).ok());
}

TEST(EngineConfigTest, RangeCheckedReaders) {
  auto config = EngineConfig::Parse("eps=-0.5,c=1.5").ValueOrDie();
  double eps = 0.1, c = 0.6;
  EXPECT_FALSE(config.GetPositiveDouble("eps", &eps).ok());
  EXPECT_FALSE(config.GetOpenInterval("c", 0.0, 1.0, &c).ok());
  // Untouched on error: callers can keep reporting with their defaults.
  EXPECT_DOUBLE_EQ(eps, 0.1);
  EXPECT_DOUBLE_EQ(c, 0.6);
}

// ---------------------------------------------------------------------------
// EngineRegistry
// ---------------------------------------------------------------------------

TEST(EngineRegistryTest, ListsAllEightEngines) {
  const auto names = EngineRegistry::Global().Names();
  const std::set<std::string> got(names.begin(), names.end());
  const std::set<std::string> want = {"prsim",  "probesim",   "reads",
                                      "sling",  "topsim",     "tsf",
                                      "montecarlo", "powermethod"};
  EXPECT_EQ(got, want);
}

TEST(EngineRegistryTest, FindIsCaseInsensitiveAndMatchesDisplayName) {
  const EngineRegistry& registry = EngineRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const EngineInfo* info = registry.Find(name);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(registry.Find(info->display_name), info)
        << "display name '" << info->display_name << "' must resolve";
    EXPECT_FALSE(info->config_keys.empty());
    EXPECT_FALSE(info->paper_ref.empty());
  }
  EXPECT_EQ(registry.Find("no-such-engine"), nullptr);
}

TEST(EngineRegistryTest, UnknownEngineNameErrors) {
  Graph g = MakeSharedParent();
  auto result = EngineRegistry::Global().Create("simrankpp", g, "");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EngineRegistryTest, UnknownConfigKeyErrors) {
  Graph g = MakeSharedParent();
  for (const std::string& name : EngineRegistry::Global().Names()) {
    auto result = EngineRegistry::Global().Create(name, g, "frobnicate=1");
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_NE(result.status().message().find("frobnicate"),
              std::string::npos)
        << name;
  }
}

TEST(EngineRegistryTest, OutOfRangeValuesError) {
  Graph g = MakeSharedParent();
  const EngineRegistry& registry = EngineRegistry::Global();
  EXPECT_FALSE(registry.Create("prsim", g, "eps=-0.5").ok());
  EXPECT_FALSE(registry.Create("prsim", g, "eps=0").ok());
  EXPECT_FALSE(registry.Create("prsim", g, "c=1.5").ok());
  EXPECT_FALSE(registry.Create("prsim", g, "c=0").ok());
  EXPECT_FALSE(registry.Create("probesim", g, "eps=-1").ok());
  EXPECT_FALSE(registry.Create("reads", g, "r=0").ok());
  EXPECT_FALSE(registry.Create("tsf", g, "rg=0").ok());
  EXPECT_FALSE(registry.Create("montecarlo", g, "samples=0").ok());
  EXPECT_FALSE(registry.Create("prsim", g, "eps=abc").ok());
}

TEST(EngineRegistryTest, EveryEngineRoundTripsOnTinyGraph) {
  Graph g = MakeCitationGraph();
  const NodeId source = 0;
  for (const std::string& name : EngineRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    auto result =
        EngineRegistry::Global().Create(name, g, RoundTripParams(name));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::unique_ptr<SingleSourceSimRank> engine =
        std::move(result).ValueOrDie();
    const EngineInfo* info = EngineRegistry::Global().Find(name);
    EXPECT_EQ(engine->name(), info->display_name);
    EXPECT_EQ(engine->IsIndexBased(), info->index_based);
    ASSERT_TRUE(engine->Preprocess().ok());

    const ScoreList scores = engine->Query(source);
    ASSERT_FALSE(scores.empty());
    EXPECT_DOUBLE_EQ(ScoreOf(scores, source), 1.0) << "s(u,u) must be 1";
    for (const auto& [v, s] : scores) {
      EXPECT_GE(s, 0.0) << "node " << v;
      EXPECT_LE(s, 1.0 + 1e-9) << "node " << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Grown SingleSourceSimRank surface
// ---------------------------------------------------------------------------

TEST(QuerySurfaceTest, QueryTopKMatchesQueryPlusTopK) {
  Graph g = MakeCitationGraph();
  auto engine = EngineRegistry::Global()
                    .Create("powermethod", g, "")
                    .MoveValueUnsafe();
  ASSERT_TRUE(engine->Preprocess().ok());
  const ScoreList expected = TopK(engine->Query(0), 3, 0);
  EXPECT_EQ(engine->QueryTopK(0, 3), expected);
}

TEST(QuerySurfaceTest, QueryPairDefaultsToSingleSourceExtraction) {
  Graph g = MakeSharedParent();
  // SLING queries are deterministic index joins, so the default QueryPair
  // (full query + extraction) is reproducible.
  auto engine =
      EngineRegistry::Global().Create("sling", g, "eps=0.01").MoveValueUnsafe();
  ASSERT_TRUE(engine->Preprocess().ok());
  const double via_query = ScoreOf(engine->Query(0), 1);
  EXPECT_DOUBLE_EQ(engine->QueryPair(0, 1), via_query);
  EXPECT_DOUBLE_EQ(engine->QueryPair(0, 0), 1.0);
}

TEST(QuerySurfaceTest, PowerMethodQueryPairIsExactLookup) {
  Graph g = MakeSharedParent();
  auto engine = EngineRegistry::Global()
                    .Create("powermethod", g, "")
                    .MoveValueUnsafe();
  ASSERT_TRUE(engine->Preprocess().ok());
  // s(0, 1) = c * s(2, 2) = c = 0.6 on the shared-parent gadget.
  EXPECT_NEAR(engine->QueryPair(0, 1), 0.6, 1e-9);
}

TEST(QuerySurfaceTest, MonteCarloQueryPairUsesNativeEstimator) {
  Graph g = MakeSharedParent();
  auto engine = EngineRegistry::Global()
                    .Create("montecarlo", g, "samples=20000,seed=5")
                    .MoveValueUnsafe();
  EXPECT_NEAR(engine->QueryPair(0, 1), 0.6, 0.02);
  EXPECT_DOUBLE_EQ(engine->QueryPair(1, 1), 1.0);
}

TEST(QuerySurfaceTest, QueryCostIsPopulated) {
  Graph g = MakeCitationGraph();
  auto prsim = EngineRegistry::Global()
                   .Create("prsim", g, "eps=0.1,seed=1")
                   .MoveValueUnsafe();
  ASSERT_TRUE(prsim->Preprocess().ok());
  prsim->Query(0);
  EXPECT_GT(prsim->last_query_cost().walks, 0u);

  auto sling = EngineRegistry::Global()
                   .Create("sling", g, "eps=0.1,seed=1")
                   .MoveValueUnsafe();
  ASSERT_TRUE(sling->Preprocess().ok());
  sling->Query(0);
  EXPECT_GT(sling->last_query_cost().index_tuples_read, 0u);
  EXPECT_EQ(sling->last_query_cost().walks, 0u);  // deterministic join
}

TEST(QuerySurfaceTest, CloneWithSeedAnswersWithoutRePreprocessing) {
  Graph g = MakeCitationGraph();
  for (const std::string& name : EngineRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    auto leader = EngineRegistry::Global()
                      .Create(name, g, RoundTripParams(name))
                      .MoveValueUnsafe();
    ASSERT_TRUE(leader->Preprocess().ok());
    // The clone must be queryable immediately: index-based engines would
    // PRSIM_CHECK-fail here if the built index were not carried over.
    std::unique_ptr<SingleSourceSimRank> clone = leader->CloneWithSeed(999);
    ASSERT_NE(clone, nullptr);
    const ScoreList scores = clone->Query(0);
    EXPECT_DOUBLE_EQ(ScoreOf(scores, 0), 1.0);
  }
}

TEST(QuerySurfaceTest, WarmedEngineAnswersLikeFreshOne) {
  // Scores are a pure function of (index, seed, stream position), never of
  // scratch state earlier queries left behind. The graph is large enough
  // that ProbeSim's reused probe maps grow past their initial capacity.
  ChungLuOptions gen;
  gen.n = 5000;
  gen.avg_degree = 8;
  gen.seed = 3;
  const Graph g = GenerateChungLu(gen).ValueOrDie();
  constexpr uint64_t kSeed = 42;
  for (const std::string& name : EngineRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    // Two power-method iterations keep the O(n * m) sweeps test-sized, and
    // eps=0.2 cuts ProbeSim's samples 4x (its maps still grow).
    std::string params = RoundTripParams(name);
    if (name == "powermethod") params = "iterations=2";
    if (name == "probesim") params = "eps=0.2";
    auto leader =
        EngineRegistry::Global().Create(name, g, params).MoveValueUnsafe();
    ASSERT_TRUE(leader->Preprocess().ok());
    for (const NodeId u : {NodeId{0}, NodeId{17}, NodeId{4321}}) {
      SCOPED_TRACE(u);
      std::unique_ptr<SingleSourceSimRank> warmed =
          leader->CloneWithSeed(kSeed);
      warmed->Query((u + 1) % g.n());
      warmed->Query((u + 2) % g.n());
      warmed->Reseed(kSeed);
      EXPECT_EQ(warmed->Query(u), leader->CloneWithSeed(kSeed)->Query(u));
    }
  }
}

TEST(QuerySurfaceTest, PowerMethodCloneIsBitIdentical) {
  Graph g = MakeCitationGraph();
  auto leader = EngineRegistry::Global()
                    .Create("powermethod", g, "")
                    .MoveValueUnsafe();
  ASSERT_TRUE(leader->Preprocess().ok());
  auto clone = leader->CloneWithSeed(7);
  EXPECT_EQ(clone->Query(3), leader->Query(3));
}

// ---------------------------------------------------------------------------
// TopK semantics
// ---------------------------------------------------------------------------

TEST(TopKTest, BreaksTiesByAscendingNodeId) {
  const ScoreList scores = {{9, 0.5}, {2, 0.5}, {5, 0.5}, {1, 0.9}, {0, 1.0}};
  const ScoreList top = TopK(scores, 3, /*source=*/0);
  const ScoreList expected = {{1, 0.9}, {2, 0.5}, {5, 0.5}};
  EXPECT_EQ(top, expected);
}

TEST(TopKTest, KLargerThanPoolReturnsEverythingButSource) {
  const ScoreList scores = {{0, 1.0}, {4, 0.2}, {2, 0.7}};
  const ScoreList top = TopK(scores, 10, /*source=*/0);
  const ScoreList expected = {{2, 0.7}, {4, 0.2}};
  EXPECT_EQ(top, expected);
}

TEST(TopKTest, KEqualToPoolKeepsOrderStable) {
  const ScoreList scores = {{3, 0.3}, {1, 0.3}, {2, 0.8}};
  const ScoreList top = TopK(scores, 3, /*source=*/9);
  const ScoreList expected = {{2, 0.8}, {1, 0.3}, {3, 0.3}};
  EXPECT_EQ(top, expected);
}

TEST(TopKTest, KZeroIsEmpty) {
  const ScoreList scores = {{1, 0.5}, {2, 0.4}};
  EXPECT_TRUE(TopK(scores, 0, 1).empty());
}

/// The earlier TopK, kept as the oracle: copy every entry but the source,
/// nth_element the k best to the front, then sort them.
ScoreList CopySelectSortTopK(const ScoreList& scores, size_t k,
                             NodeId source) {
  ScoreList pool;
  for (const auto& e : scores) {
    if (e.first != source) pool.push_back(e);
  }
  const auto cmp = [](const ScoreEntry& a, const ScoreEntry& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (pool.size() > k) {
    std::nth_element(pool.begin(), pool.begin() + k, pool.end(), cmp);
    pool.resize(k);
  }
  std::sort(pool.begin(), pool.end(), cmp);
  return pool;
}

TEST(TopKTest, MatchesCopySelectSortOracleOnTieHeavyLists) {
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    // Distinct node ids in random order; scores drawn from a handful of
    // values so most entries tie with others and the id tie-break decides.
    const size_t size = 1 + rng.NextBounded(300);
    std::vector<NodeId> ids(size + 50);
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<NodeId>(i);
    for (size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.NextBounded(i + 1)]);
    }
    const uint64_t distinct_scores = 1 + rng.NextBounded(6);
    ScoreList scores;
    for (size_t i = 0; i < size; ++i) {
      scores.emplace_back(ids[i],
                          0.125 * static_cast<double>(
                                      1 + rng.NextBounded(distinct_scores)));
    }
    // The source is in the list on even trials and absent on odd ones.
    const NodeId source = trial % 2 == 0 ? scores[rng.NextBounded(size)].first
                                         : ids[size + rng.NextBounded(50)];
    for (const size_t k : {size_t{0}, size_t{1}, size - 1, size, size + 5}) {
      EXPECT_EQ(TopK(scores, k, source), CopySelectSortTopK(scores, k, source))
          << "trial " << trial << ", size " << size << ", k " << k;
    }
  }
}

}  // namespace
}  // namespace prsim
