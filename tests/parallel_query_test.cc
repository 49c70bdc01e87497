// The intra-query parallelism contract: PRSim::Query and the RpprEstimator
// run their (round, j) sample grids as static chunks with positional RNG
// substreams (util/sample_grid.h), so results are bit-identical for ANY
// thread count and, for PRSim, any lane width — and their pooled workspaces
// make steady-state queries allocation-free (no map rehash or buffer
// regrowth on reuse).
//
// Registered under the `concurrency` label so the TSan CI job exercises the
// chunk fan-out / fixed-order merge for data races.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/prsim.h"
#include "ppr/rppr_estimator.h"
#include "test_util.h"
#include "util/sample_grid.h"
#include "util/thread_pool.h"

namespace prsim {
namespace {

using testing::MakeRandomDigraph;

/// Thread counts the bit-identity tests sweep: serial, small, odd (not a
/// divisor of the chunk count), and whatever this machine/CI pins via
/// PRSIM_THREADS or hardware concurrency.
std::vector<size_t> ThreadCounts() {
  return {1, 2, 7, DefaultThreadCount()};
}

ScoreList QueryWithThreads(const Graph& graph, const PRSim& leader,
                           const PRSimOptions& base, size_t threads, NodeId u,
                           QueryCost* cost) {
  PRSimOptions options = base;
  options.threads = threads;
  PRSim engine(graph, options);
  engine.ShareIndexFrom(leader);
  ScoreList scores = engine.Query(u);
  *cost = engine.last_query_cost();
  return scores;
}

TEST(ParallelQueryTest, PRSimBitIdenticalAcrossThreadCounts) {
  Graph g = MakeRandomDigraph(200, 1200, 21);
  PRSimOptions options;
  options.eps = 0.07;
  options.alpha = 4;
  options.seed = 17;
  options.threads = 1;
  PRSim leader(g, options);
  ASSERT_TRUE(leader.Preprocess().ok());

  for (NodeId u : {NodeId(0), NodeId(57), NodeId(199)}) {
    QueryCost base_cost;
    const ScoreList base =
        QueryWithThreads(g, leader, options, 1, u, &base_cost);
    for (size_t threads : ThreadCounts()) {
      QueryCost cost;
      const ScoreList other =
          QueryWithThreads(g, leader, options, threads, u, &cost);
      // Exact equality including entry order: the fixed-order merge makes
      // even the result layout independent of the worker count.
      EXPECT_EQ(base, other) << "u=" << u << " threads=" << threads;
      EXPECT_EQ(base_cost.walks, cost.walks);
      EXPECT_EQ(base_cost.meeting_tests, cost.meeting_tests);
      EXPECT_EQ(base_cost.backward_walks, cost.backward_walks);
      EXPECT_EQ(base_cost.backward_increments, cost.backward_increments);
      EXPECT_EQ(base_cost.index_tuples_read, cost.index_tuples_read);
    }
  }
}

TEST(ParallelQueryTest, PRSimPaperConstantsAlsoThreadCountInvariant) {
  // Paper-constants mode resolves to a different (fr, dr) grid shape; the
  // chunking discipline must hold there too.
  Graph g = MakeRandomDigraph(120, 700, 22);
  PRSimOptions options;
  options.eps = 0.2;
  options.delta = 0.05;
  options.paper_constants = true;
  options.seed = 5;
  options.threads = 1;
  PRSim leader(g, options);
  ASSERT_TRUE(leader.Preprocess().ok());

  QueryCost cost;
  const ScoreList base = QueryWithThreads(g, leader, options, 1, 3, &cost);
  for (size_t threads : ThreadCounts()) {
    EXPECT_EQ(base, QueryWithThreads(g, leader, options, threads, 3, &cost))
        << "threads=" << threads;
  }
}

TEST(ParallelQueryTest, RepeatedQueryIsPureAndReusesWorkspace) {
  Graph g = MakeRandomDigraph(150, 900, 23);
  PRSimOptions options;
  options.eps = 0.08;
  options.alpha = 5;
  options.seed = 11;
  PRSim engine(g, options);
  ASSERT_TRUE(engine.Preprocess().ok());

  // The workspace is built lazily by the first query.
  EXPECT_EQ(engine.SnapshotWorkspace().chunk_count, 0u);
  const ScoreList first = engine.Query(5);
  const PRSim::WorkspaceSnapshot after_first = engine.SnapshotWorkspace();
  EXPECT_GT(after_first.chunk_count, 0u);
  EXPECT_GT(after_first.map_capacity, 0u);
  EXPECT_GT(after_first.buffer_capacity, 0u);
  // The interleaving lanes are pooled in the workspace too, one per chunk.
  EXPECT_EQ(after_first.lane_count, after_first.chunk_count);

  // Queries are pure functions of (seed, source): repeating one returns the
  // identical ScoreList...
  const ScoreList second = engine.Query(5);
  EXPECT_EQ(first, second);
  // ...and performs no steady-state allocation: every pooled map keeps its
  // slot array (FlatHashMap::clear() retains capacity) and every buffer its
  // backing store, so the capacity snapshot is unchanged.
  EXPECT_EQ(engine.SnapshotWorkspace(), after_first);
  // The same holds at any lane width: lanes are bound to pooled slots, never
  // allocated per query.
  for (const size_t lanes : {size_t{1}, kSampleLanes, size_t{64}}) {
    EXPECT_EQ(engine.QueryAtLaneWidth(5, lanes), first) << "lanes " << lanes;
    EXPECT_EQ(engine.SnapshotWorkspace(), after_first) << "lanes " << lanes;
  }

  // Reseeding changes the scores but must not disturb the pooled workspace.
  engine.Reseed(4711);
  const ScoreList reseeded = engine.Query(5);
  EXPECT_NE(first, reseeded);
  EXPECT_EQ(engine.SnapshotWorkspace().chunk_count, after_first.chunk_count);
}

TEST(ParallelQueryTest, PRSimLaneWidthChangesNothing) {
  // Each worker runs its chunks as up to `lane_width` interleaved lanes.
  // Chunks share no state, so the per-chunk partials (eta-pi counts and tail
  // sums in insertion order, costs) and hence the results must be the same
  // at every width, including widths above the chunks per worker.
  Graph g = MakeRandomDigraph(300, 2400, 25);
  PRSimOptions options;
  options.eps = 0.08;
  options.alpha = 5;
  options.seed = 29;
  options.j0 = 8;  // some terminals are hubs, most run backward walks
  PRSim leader(g, options);
  ASSERT_TRUE(leader.Preprocess().ok());

  for (const size_t threads : {size_t{1}, size_t{3}}) {
    PRSimOptions engine_options = options;
    engine_options.threads = threads;
    PRSim engine(g, engine_options);
    engine.ShareIndexFrom(leader);
    for (const NodeId u : {NodeId(0), NodeId(101), NodeId(299)}) {
      const ScoreList base = engine.QueryAtLaneWidth(u, 1);
      const QueryCost base_cost = engine.last_query_cost();
      const std::vector<PRSim::ChunkPartial> base_partials =
          engine.SnapshotChunkPartials();
      ASSERT_EQ(base_partials.size(), engine.SnapshotWorkspace().chunk_count);
      EXPECT_GT(base_cost.backward_walks, 0u);
      for (const size_t lanes : {size_t{2}, size_t{8}, size_t{64}}) {
        EXPECT_EQ(engine.QueryAtLaneWidth(u, lanes), base)
            << "u=" << u << " threads=" << threads << " lanes=" << lanes;
        EXPECT_EQ(engine.last_query_cost(), base_cost);
        EXPECT_EQ(engine.SnapshotChunkPartials(), base_partials)
            << "u=" << u << " threads=" << threads << " lanes=" << lanes;
      }
    }
  }
}

TEST(ParallelQueryTest, CloneWithSeedStartsWithOwnWorkspace) {
  Graph g = MakeRandomDigraph(100, 500, 24);
  PRSimOptions options;
  options.eps = 0.1;
  PRSim leader(g, options);
  ASSERT_TRUE(leader.Preprocess().ok());
  (void)leader.Query(1);

  auto clone = leader.CloneWithSeed(99);
  auto* prsim_clone = dynamic_cast<PRSim*>(clone.get());
  ASSERT_NE(prsim_clone, nullptr);
  EXPECT_EQ(prsim_clone->SnapshotWorkspace().chunk_count, 0u);
  (void)prsim_clone->Query(1);
  EXPECT_GT(prsim_clone->SnapshotWorkspace().chunk_count, 0u);
}

TEST(ParallelQueryTest, RpprEstimatesBitIdenticalAcrossThreadCounts) {
  Graph g = MakeRandomDigraph(150, 900, 33);
  const NodeId w = 3;

  RpprEstimatorOptions base;
  base.eps = 0.02;
  base.seed = 9;
  base.threads = 1;
  RpprEstimator baseline(g, base);
  const RpprEstimate level_base = baseline.EstimateLevel(w, 2);
  const RpprEstimate agg_base = baseline.EstimateAggregate(w);
  EXPECT_FALSE(level_base.values.empty());
  EXPECT_FALSE(agg_base.values.empty());

  for (size_t threads : ThreadCounts()) {
    RpprEstimatorOptions options = base;
    options.threads = threads;
    RpprEstimator estimator(g, options);
    const RpprEstimate level = estimator.EstimateLevel(w, 2);
    const RpprEstimate agg = estimator.EstimateAggregate(w);
    EXPECT_EQ(level_base.values, level.values) << "threads=" << threads;
    EXPECT_EQ(level_base.total_walk_increments, level.total_walk_increments);
    EXPECT_EQ(agg_base.values, agg.values) << "threads=" << threads;
    EXPECT_EQ(agg_base.total_walk_increments, agg.total_walk_increments);
  }
}

TEST(ParallelQueryTest, BackwardWalkIndependentOfScratchHistory) {
  // The walk consumes RNG draws while iterating its recycled frontier, so
  // iteration follows insertion order, never map slot order: a walker whose
  // scratch grew on earlier (different) targets must replay a walk exactly
  // like a factory-fresh one.
  Graph g = MakeRandomDigraph(400, 8000, 44);
  BackwardWalker fresh(g, 0.6);
  BackwardWalker used(g, 0.6);
  Rng warm(1);
  for (int i = 0; i < 50; ++i) {
    (void)used.RunVarianceBounded(warm.NextIndex(g.n()), 8, warm);
  }
  // Precondition: the warmup actually grew the recycled scratch, i.e. the
  // two walkers genuinely differ in retained capacity.
  ASSERT_GT(used.ScratchCapacity(), fresh.ScratchCapacity());

  // Besides fixed targets, replay a walk whose frontier outgrows
  // kFrontierScanLimit, so the position index is exercised too; a third
  // walker finds one without touching the two under test.
  std::vector<std::pair<NodeId, uint64_t>> walks = {{0, 99}, {7, 99},
                                                     {123, 99}};
  BackwardWalker probe(g, 0.6);
  for (uint64_t seed = 0; walks.size() == 3 && seed < 64; ++seed) {
    for (NodeId w = 0; w < g.n(); ++w) {
      Rng rng(seed);
      if (probe.RunVarianceBounded(w, 6, rng).estimates.size() >
          BackwardWalker::kFrontierScanLimit) {
        walks.emplace_back(w, seed);
        break;
      }
    }
  }
  ASSERT_EQ(walks.size(), 4u) << "no walk outgrew the linear-scan frontier";

  for (const auto& [w, seed] : walks) {
    Rng rng_fresh(seed);
    Rng rng_used(seed);
    const BackwardWalkResult a = fresh.RunVarianceBounded(w, 6, rng_fresh);
    const BackwardWalkResult b = used.RunVarianceBounded(w, 6, rng_used);
    EXPECT_EQ(a.estimates, b.estimates) << "w=" << w << " seed=" << seed;
    EXPECT_EQ(a.increments, b.increments) << "w=" << w << " seed=" << seed;
  }
}

TEST(ParallelQueryTest, QueryIndependentOfWorkspaceHistory) {
  // Query(u) must be a pure function of (seed, u) even after the pooled
  // workspace grew on other sources — per-worker service clones answer
  // scheduling-dependent request subsets, and their answers must not
  // depend on that history.
  Graph g = MakeRandomDigraph(300, 6000, 45);
  PRSimOptions options;
  options.eps = 0.04;
  options.alpha = 6;
  options.seed = 13;
  PRSim fresh(g, options);
  ASSERT_TRUE(fresh.Preprocess().ok());
  PRSim used(g, options);
  used.ShareIndexFrom(fresh);
  (void)used.Query(1);
  (void)used.Query(250);
  const PRSim::WorkspaceSnapshot warmed = used.SnapshotWorkspace();

  const ScoreList a = fresh.Query(7);
  const ScoreList b = used.Query(7);
  EXPECT_EQ(a, b);
  // The precondition that makes this test bite: the warmup queries really
  // left `used` with more retained capacity than `fresh` consumed.
  EXPECT_NE(warmed, fresh.SnapshotWorkspace());
}

TEST(ParallelQueryTest, SourceMassLeavesNoScoreAccumulatorResidue) {
  // Walks from u come back to u on an undirected graph, so the score
  // accumulator touches u's own slot. Emission drops that mass (s(u, u) is
  // exactly 1) and must still clear the slot; a leftover slot would point
  // later queries that reach u at a stale position.
  Graph g = MakeRandomDigraph(120, 600, 46, /*undirected=*/true);
  PRSimOptions options;
  options.eps = 0.08;
  options.alpha = 5;
  options.seed = 19;
  PRSim used(g, options);
  ASSERT_TRUE(used.Preprocess().ok());
  const NodeId u = 3;
  const std::vector<NodeId> sequence = {u, 10, 50, 119, u};

  std::vector<ScoreList> first_pass = {used.Query(u)};
  // Precondition: u's own node got positive tail mass in every round, so
  // its median is positive and the accumulator touched its slot.
  const std::vector<SampleChunk> tasks =
      BuildSampleChunks(used.rounds(), used.samples_per_round());
  const std::vector<PRSim::ChunkPartial> partials =
      used.SnapshotChunkPartials();
  ASSERT_EQ(partials.size(), tasks.size());
  std::vector<bool> round_has_mass(used.rounds(), false);
  for (size_t i = 0; i < partials.size(); ++i) {
    for (const auto& [v, value] : partials[i].tail) {
      if (v == u && value > 0) round_has_mass[tasks[i].round] = true;
    }
  }
  ASSERT_EQ(std::count(round_has_mass.begin(), round_has_mass.end(), false),
            0);

  for (size_t i = 1; i < sequence.size(); ++i) {
    first_pass.push_back(used.Query(sequence[i]));
  }
  EXPECT_EQ(first_pass.front(), first_pass.back());

  // Every answer equals a fresh engine's.
  for (size_t i = 0; i < sequence.size(); ++i) {
    PRSim fresh(g, options);
    fresh.ShareIndexFrom(used);
    EXPECT_EQ(fresh.Query(sequence[i]), first_pass[i])
        << "source " << sequence[i] << " at position " << i;
  }

  // Repeating the sequence answers the same and grows nothing.
  const PRSim::WorkspaceSnapshot snapshot = used.SnapshotWorkspace();
  for (size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ(used.Query(sequence[i]), first_pass[i]);
  }
  EXPECT_EQ(used.SnapshotWorkspace(), snapshot);
}

TEST(ParallelQueryTest, RpprRepeatedEstimateIsPure) {
  Graph g = MakeRandomDigraph(80, 400, 34);
  RpprEstimatorOptions options;
  options.eps = 0.05;
  options.seed = 2;
  RpprEstimator estimator(g, options);
  const RpprEstimate a = estimator.EstimateLevel(7, 1);
  const RpprEstimate b = estimator.EstimateLevel(7, 1);
  EXPECT_EQ(a.values, b.values);
  // Level and aggregate estimates for the same target draw from disjoint
  // substream families, not a shared advancing stream.
  const RpprEstimate agg = estimator.EstimateAggregate(7);
  const RpprEstimate c = estimator.EstimateLevel(7, 1);
  EXPECT_EQ(a.values, c.values);
  (void)agg;
}

}  // namespace
}  // namespace prsim
