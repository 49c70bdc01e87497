// Sharded serving stack: deterministic partitioning, the shard bundle
// manifest, and the ShardRouter's core contract — a sharded deployment
// answers every request stream bit-identically to an unsharded engine, for
// all four persistent engines, at any shard count and any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_query.h"
#include "core/engine_registry.h"
#include "core/shard_manifest.h"
#include "core/shard_router.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "test_util.h"

namespace prsim {
namespace {

using testing::MakeRandomDigraph;

/// A fresh-seed request: answers like a freshly loaded engine's first
/// query and consumes no stream position.
QueryResult QueryFresh(ShardRouter& router, NodeId source, uint32_t k = 0) {
  QueryRequest request;
  request.source = source;
  request.k = k;
  request.fresh_seed = true;
  return router.SubmitRequest(std::move(request)).get();
}

/// A positional request, stamped with the router's next stream position.
std::future<QueryResult> Submit(ShardRouter& router, NodeId source) {
  QueryRequest request;
  request.source = source;
  return router.SubmitRequest(std::move(request));
}

// ---------------------------------------------------------------------------
// Partitioner.
// ---------------------------------------------------------------------------

TEST(PartitionTest, ValidateRejectsZeroShards) {
  PartitionSpec spec;
  spec.shards = 0;
  EXPECT_EQ(ValidatePartitionSpec(spec).code(),
            StatusCode::kInvalidArgument);
}

TEST(PartitionTest, ValidateRejectsUnknownStrategy) {
  PartitionSpec spec;
  spec.strategy = static_cast<PartitionStrategy>(7);
  EXPECT_EQ(ValidatePartitionSpec(spec).code(),
            StatusCode::kInvalidArgument);
}

TEST(PartitionTest, StrategyNamesRoundTrip) {
  for (const auto strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    auto parsed = ParsePartitionStrategy(PartitionStrategyName(strategy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.ValueOrDie(), strategy);
  }
  EXPECT_FALSE(ParsePartitionStrategy("round-robin").ok());
}

TEST(PartitionTest, AssignmentIsDeterministicAndInRange) {
  const NodeId n = 1000;
  for (const auto strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    for (const uint32_t shards : {1u, 2u, 3u, 7u}) {
      const PartitionSpec spec{shards, strategy};
      for (NodeId v = 0; v < n; ++v) {
        const uint32_t shard = ShardOfNode(v, n, spec);
        EXPECT_LT(shard, shards);
        EXPECT_EQ(shard, ShardOfNode(v, n, spec));  // pure function
      }
    }
  }
}

TEST(PartitionTest, PartitionNodesMatchesShardOfNode) {
  const NodeId n = 500;
  const PartitionSpec spec{3, PartitionStrategy::kHash};
  const auto assignment = PartitionNodes(n, spec);
  ASSERT_EQ(assignment.size(), 3u);
  size_t total = 0;
  for (uint32_t s = 0; s < 3; ++s) {
    total += assignment[s].size();
    EXPECT_TRUE(std::is_sorted(assignment[s].begin(), assignment[s].end()));
    for (const NodeId v : assignment[s]) {
      EXPECT_EQ(ShardOfNode(v, n, spec), s);
    }
  }
  EXPECT_EQ(total, n);  // every node owned exactly once
  // Hash spreads: no shard owns everything on a 3-way split of 500 nodes.
  for (uint32_t s = 0; s < 3; ++s) EXPECT_LT(assignment[s].size(), n);
}

TEST(PartitionTest, RangeKeepsContiguousBlocks) {
  const NodeId n = 10;
  const PartitionSpec spec{3, PartitionStrategy::kRange};
  const auto assignment = PartitionNodes(n, spec);
  // ceil(10/3) = 4: blocks [0,4), [4,8), [8,10).
  EXPECT_EQ(assignment[0], (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(assignment[1], (std::vector<NodeId>{4, 5, 6, 7}));
  EXPECT_EQ(assignment[2], (std::vector<NodeId>{8, 9}));
}

TEST(PartitionTest, MoreShardsThanNodesIsLegal) {
  const PartitionSpec spec{8, PartitionStrategy::kRange};
  ASSERT_TRUE(ValidatePartitionSpec(spec).ok());
  const auto assignment = PartitionNodes(3, spec);
  size_t total = 0;
  for (const auto& shard : assignment) total += shard.size();
  EXPECT_EQ(total, 3u);  // the extra shards simply own no nodes
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

class ShardManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("prsim_manifest_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  ShardManifest Sample() {
    ShardManifest m;
    m.algo = "prsim";
    m.params = "eps=0.3,seed=99";
    m.partition = {3, PartitionStrategy::kRange};
    m.n = 120;
    m.m = 700;
    m.graph_checksum = 0xdeadbeef;
    m.shards.assign(3, ShardArtifacts{"graph.bin", "index.idx"});
    return m;
  }

  std::filesystem::path dir_;
};

TEST_F(ShardManifestTest, SaveLoadRoundTrip) {
  const std::string path = Path("manifest.bin");
  ASSERT_TRUE(Sample().Save(path).ok());
  auto loaded = ShardManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ShardManifest& m = loaded.ValueOrDie();
  EXPECT_EQ(m.algo, "prsim");
  EXPECT_EQ(m.params, "eps=0.3,seed=99");
  EXPECT_EQ(m.partition.shards, 3u);
  EXPECT_EQ(m.partition.strategy, PartitionStrategy::kRange);
  EXPECT_EQ(m.n, 120u);
  EXPECT_EQ(m.m, 700u);
  EXPECT_EQ(m.graph_checksum, 0xdeadbeefu);
  ASSERT_EQ(m.shards.size(), 3u);
  EXPECT_EQ(m.shards[1].graph_path, "graph.bin");
  EXPECT_EQ(m.shards[1].index_path, "index.idx");

  auto config = m.Config();
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.ValueOrDie().ToString(), "eps=0.3,seed=99");
}

TEST_F(ShardManifestTest, LoadRejectsEmptyAlgo) {
  ShardManifest m = Sample();
  m.algo.clear();
  const std::string path = Path("empty_algo.bin");
  ASSERT_TRUE(m.Save(path).ok());
  auto loaded = ShardManifest::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardManifestTest, LoadRejectsNonArtifactFile) {
  const std::string path = Path("noise.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not an artifact";
  }
  auto loaded = ShardManifest::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(ShardManifestTest, ResolveManifestPathHandlesRelativeAndAbsolute) {
  EXPECT_EQ(ResolveManifestPath("bundle/manifest.bin", "graph.bin"),
            (std::filesystem::path("bundle") / "graph.bin").string());
  EXPECT_EQ(ResolveManifestPath("manifest.bin", "graph.bin"), "graph.bin");
  EXPECT_EQ(ResolveManifestPath("bundle/manifest.bin", "/abs/graph.bin"),
            "/abs/graph.bin");
}

// ---------------------------------------------------------------------------
// End-to-end: bundle build + router, bit-identical to unsharded.
// ---------------------------------------------------------------------------

struct EngineCase {
  const char* engine;
  const char* params;
};

const EngineCase kEngineCases[] = {
    {"prsim", "eps=0.3,seed=99"},
    {"sling", "eps=0.3,seed=99"},
    {"reads", "r=20,t=5,seed=99"},
    {"tsf", "rg=20,rq=5,seed=99"},
};

class ShardRouterTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("prsim_shard_" + std::to_string(::getpid()) + "_" +
            GetParam().engine);
    std::filesystem::create_directories(dir_);
    graph_ = MakeRandomDigraph(120, 700, 7);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  EngineConfig Config() {
    return EngineConfig::Parse(GetParam().params).ValueOrDie();
  }

  /// Builds a bundle with `shards` shards and returns the manifest path.
  std::string BuildBundle(uint32_t shards) {
    const PartitionSpec spec{shards, PartitionStrategy::kHash};
    auto manifest =
        BuildShardBundle(graph_, GetParam().engine, Config(), spec,
                         (dir_ / ("bundle" + std::to_string(shards)))
                             .string());
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    return manifest.ValueOrDie();
  }

  /// Fresh unsharded reference engine (preprocessed, never queried).
  std::unique_ptr<SingleSourceSimRank> ReferenceEngine() {
    auto engine = EngineRegistry::Global().Create(GetParam().engine, graph_,
                                                  Config());
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    auto leader = std::move(engine).ValueOrDie();
    EXPECT_TRUE(leader->Preprocess().ok());
    return leader;
  }

  static ScoreList Sorted(ScoreList scores) {
    std::sort(scores.begin(), scores.end());
    return scores;
  }

  std::filesystem::path dir_;
  Graph graph_;
};

// A fresh-seed request answers exactly like a freshly loaded engine's first
// query — what `client --fresh` against `serve --manifest` relies on — at
// every shard and thread count.
TEST_P(ShardRouterTest, QueryFreshMatchesUnshardedEngine) {
  auto reference = ReferenceEngine();
  for (const uint32_t shards : {1u, 2u, 3u}) {
    const std::string manifest = BuildBundle(shards);
    for (const size_t threads : {size_t{1}, size_t{0}}) {  // 0 = hw default
      ShardRouterOptions options;
      options.threads_per_shard = threads;
      auto router = ShardRouter::Open(manifest, options);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      EXPECT_EQ(router.ValueOrDie()->shard_count(), shards);
      EXPECT_EQ(router.ValueOrDie()->node_count(), graph_.n());
      for (const NodeId source : {NodeId{3}, NodeId{57}, NodeId{119}}) {
        reference->Reseed(reference->seed());  // fresh-engine first query
        const ScoreList expected = Sorted(reference->Query(source));
        QueryResult result = QueryFresh(*router.ValueOrDie(), source);
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_EQ(Sorted(result.scores), expected)
            << "shards=" << shards << " threads=" << threads
            << " source=" << source;
      }
    }
  }
}

// A positional Submit stream replays BatchQuery bit for bit at any shard
// count: the router stamps global stream positions, so sharding is
// invisible in the scores.
TEST_P(ShardRouterTest, SubmitStreamMatchesBatchQuery) {
  auto reference = ReferenceEngine();
  const std::vector<NodeId> sources = {3, 88, 21, 119, 0, 57, 42, 7};
  const std::vector<ScoreList> expected = BatchQuery(*reference, sources);
  for (const uint32_t shards : {1u, 2u, 3u}) {
    const std::string manifest = BuildBundle(shards);
    for (const size_t threads : {size_t{1}, size_t{0}}) {
      ShardRouterOptions options;
      options.threads_per_shard = threads;
      auto router = ShardRouter::Open(manifest, options);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      std::vector<std::future<QueryResult>> futures;
      futures.reserve(sources.size());
      for (const NodeId source : sources) {
        futures.push_back(Submit(*router.ValueOrDie(), source));
      }
      for (size_t i = 0; i < sources.size(); ++i) {
        QueryResult result = futures[i].get();
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_EQ(Sorted(result.scores), Sorted(expected[i]))
            << "shards=" << shards << " threads=" << threads << " i=" << i;
      }
      const ServiceStats stats = router.ValueOrDie()->Stats();
      EXPECT_EQ(stats.submitted, sources.size());
      EXPECT_EQ(stats.completed, sources.size());
      EXPECT_EQ(stats.failed, 0u);
    }
  }
}

// The result cache composes per shard (ownership routing means no key can
// live in two shard caches): fresh answers stay bit-identical cold and
// hot, a positional stream through the warmed-up router still replays
// BatchQuery, and Stats() sums the per-shard cache counters.
TEST_P(ShardRouterTest, CacheEnabledRouterStaysBitIdentical) {
  auto reference = ReferenceEngine();
  const std::vector<NodeId> sources = {3, 88, 21, 119, 0, 57, 42, 7};
  const std::vector<ScoreList> expected = BatchQuery(*reference, sources);
  for (const uint32_t shards : {1u, 3u}) {
    const std::string manifest = BuildBundle(shards);
    ShardRouterOptions options;
    options.threads_per_shard = 1;
    options.cache_bytes = 8u << 20;
    auto router = ShardRouter::Open(manifest, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    auto& routed = *router.ValueOrDie();
    // Pass 0 fills the cache (misses), pass 1 is served from it (hits);
    // both must equal a fresh engine's first query.
    for (int pass = 0; pass < 2; ++pass) {
      for (const NodeId source : {NodeId{3}, NodeId{57}}) {
        reference->Reseed(reference->seed());
        const ScoreList want = Sorted(reference->Query(source));
        QueryResult result = QueryFresh(routed, source);
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_EQ(Sorted(result.scores), want)
            << "shards=" << shards << " pass=" << pass << " source=" << source;
      }
    }
    // The warm cache is invisible to the positional stream.
    std::vector<std::future<QueryResult>> futures;
    futures.reserve(sources.size());
    for (const NodeId source : sources) {
      futures.push_back(Submit(routed, source));
    }
    for (size_t i = 0; i < sources.size(); ++i) {
      QueryResult result = futures[i].get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(Sorted(result.scores), Sorted(expected[i]))
          << "shards=" << shards << " i=" << i;
    }
    const ServiceStats stats = routed.Stats();
    EXPECT_EQ(stats.cache_misses, 2u) << "shards=" << shards;
    EXPECT_EQ(stats.cache_hits, 2u) << "shards=" << shards;
    EXPECT_EQ(stats.cache_coalesced, 0u);
    EXPECT_GT(stats.cache_bytes, 0u);
  }
}

TEST_P(ShardRouterTest, TopKSubmitMatchesUnsharded) {
  auto reference = ReferenceEngine();
  const std::string manifest = BuildBundle(2);
  auto router = ShardRouter::Open(manifest);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  QueryResult result = QueryFresh(*router.ValueOrDie(), 3, /*k=*/5);
  ASSERT_TRUE(result.status.ok());
  reference->Reseed(reference->seed());
  EXPECT_EQ(result.scores, TopK(reference->Query(3), 5, 3));
}

TEST_P(ShardRouterTest, InvalidSourceFailsWithoutConsumingAPosition) {
  const std::string manifest = BuildBundle(2);
  auto router = ShardRouter::Open(manifest);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  QueryResult bad = Submit(*router.ValueOrDie(), graph_.n()).get();
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  // The rejected request must not have shifted the positional seed stream.
  auto reference = ReferenceEngine();
  const ScoreList expected = Sorted(BatchQuery(*reference, {NodeId{3}})[0]);
  EXPECT_EQ(Sorted(Submit(*router.ValueOrDie(), 3).get().scores), expected);
}

// One shard's traffic being shed must be invisible to the other shards:
// an expired request is refused at the router, before it consumes a
// global stream position, so the surviving stream still replays BatchQuery
// bit for bit on every shard.
TEST_P(ShardRouterTest, ExpiredRequestShedsWithoutShiftingOtherShards) {
  auto reference = ReferenceEngine();
  const std::vector<NodeId> sources = {3, 88, 21, 119, 0, 57};
  const std::vector<ScoreList> expected = BatchQuery(*reference, sources);
  const std::string manifest = BuildBundle(2);
  ShardRouterOptions options;
  options.threads_per_shard = 1;
  auto router = ShardRouter::Open(manifest, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto& routed = *router.ValueOrDie();

  // Sources above land on both shards; the doomed request targets shard 0
  // specifically while the rest of the stream keeps flowing everywhere.
  NodeId shard0_source = 0;
  while (routed.ShardOf(shard0_source) != 0) ++shard0_source;

  std::vector<std::future<QueryResult>> futures;
  std::future<QueryResult> doomed;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (i == 2) {
      QueryRequest expired_request;
      expired_request.source = shard0_source;
      expired_request.deadline_ms = 0;
      doomed = routed.SubmitRequest(std::move(expired_request));
    }
    futures.push_back(Submit(routed, sources[i]));
  }
  const QueryResult refused = doomed.get();
  EXPECT_EQ(refused.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(refused.status.message().find("deadline expired before routing"),
            std::string::npos)
      << refused.status.ToString();
  for (size_t i = 0; i < sources.size(); ++i) {
    QueryResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(Sorted(result.scores), Sorted(expected[i]))
        << "positions shifted by the shed request at i=" << i;
  }
  const ServiceStats stats = routed.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, sources.size());
  EXPECT_EQ(stats.shed, 0u);
}

TEST_P(ShardRouterTest, MismatchedGraphArtifactIsRejected) {
  const std::string manifest = BuildBundle(2);
  // Overwrite the bundle's graph with a different one: the manifest's
  // fingerprint no longer matches, so Open must refuse to serve.
  const Graph other = MakeRandomDigraph(120, 700, /*seed=*/8);
  ASSERT_TRUE(
      GraphIO::SaveBinary(other, ResolveManifestPath(manifest, "graph.bin"))
          .ok());
  auto router = ShardRouter::Open(manifest);
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(router.status().message().find("fingerprint"), std::string::npos)
      << router.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(AllPersistentEngines, ShardRouterTest,
                         ::testing::ValuesIn(kEngineCases),
                         [](const auto& info) {
                           return std::string(info.param.engine);
                         });

// ---------------------------------------------------------------------------
// Router-level failures that don't depend on the engine.
// ---------------------------------------------------------------------------

class ShardRouterErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("prsim_shard_err_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ShardRouterErrorTest, MissingManifestFailsWithIOError) {
  auto router = ShardRouter::Open((dir_ / "missing.bin").string());
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kIOError);
}

TEST_F(ShardRouterErrorTest, UnknownEngineFailsWithNotFound) {
  const Graph graph = MakeRandomDigraph(50, 200, 3);
  ASSERT_TRUE(GraphIO::SaveBinary(graph, (dir_ / "graph.bin").string()).ok());
  ShardManifest manifest;
  manifest.algo = "no-such-engine";
  manifest.partition = {1, PartitionStrategy::kHash};
  manifest.n = graph.n();
  manifest.m = graph.m();
  manifest.graph_checksum = graph.Checksum();
  manifest.shards = {ShardArtifacts{"graph.bin", ""}};
  const std::string path = (dir_ / "manifest.bin").string();
  ASSERT_TRUE(manifest.Save(path).ok());
  auto router = ShardRouter::Open(path);
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kNotFound);
}

// An engine without a persistent index (empty index_path) is preprocessed
// at load time and must still answer exactly like an unsharded instance.
TEST_F(ShardRouterErrorTest, IndexFreeEngineBundleServes) {
  const Graph graph = MakeRandomDigraph(60, 250, 5);
  const EngineConfig config =
      EngineConfig::Parse("eps=0.4,seed=99").ValueOrDie();
  auto manifest =
      BuildShardBundle(graph, "probesim", config,
                       PartitionSpec{2, PartitionStrategy::kHash},
                       (dir_ / "bundle").string());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  auto router = ShardRouter::Open(manifest.ValueOrDie());
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  auto reference =
      EngineRegistry::Global().Create("probesim", graph, config);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference.ValueOrDie()->Preprocess().ok());
  reference.ValueOrDie()->Reseed(reference.ValueOrDie()->seed());
  ScoreList expected = reference.ValueOrDie()->Query(11);
  QueryResult result = QueryFresh(*router.ValueOrDie(), 11);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  std::sort(expected.begin(), expected.end());
  std::sort(result.scores.begin(), result.scores.end());
  EXPECT_EQ(result.scores, expected);
}

}  // namespace
}  // namespace prsim
