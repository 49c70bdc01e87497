// End-to-end accuracy tests for the PRSim query algorithm against the exact
// power-method oracle, parameterized across graph families, decay factors and
// error targets; plus determinism, stats, and API-contract checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <tuple>

#include "baselines/power_method.h"
#include "core/batch_query.h"
#include "core/prsim.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "test_util.h"
#include "util/sample_grid.h"

namespace prsim {
namespace {

using testing::MakeCompleteDigraph;
using testing::MakeCycle;
using testing::MakeRandomDigraph;
using testing::MakeSharedParent;

/// Max |estimate - exact| over all v for one query.
double MaxError(const ScoreList& estimate, PowerMethodSimRank& oracle,
                NodeId u, NodeId n) {
  double worst = 0;
  // Check both directions: estimated nodes against truth, and all true
  // nonzero values against the (possibly missing) estimates.
  for (NodeId v = 0; v < n; ++v) {
    const double s_hat = ScoreOf(estimate, v);
    worst = std::max(worst, std::abs(s_hat - oracle.SimRank(u, v)));
  }
  return worst;
}

struct AccuracyCase {
  std::string name;
  Graph graph;
  double c;
  double eps;
};

std::vector<AccuracyCase> AccuracyCases() {
  std::vector<AccuracyCase> cases;
  cases.push_back({"random_sparse", MakeRandomDigraph(120, 500, 1), 0.6, 0.1});
  cases.push_back({"random_dense", MakeRandomDigraph(80, 1800, 2), 0.6, 0.1});
  cases.push_back({"random_c08", MakeRandomDigraph(100, 600, 3), 0.8, 0.15});
  cases.push_back(
      {"undirected", MakeRandomDigraph(100, 500, 4, true), 0.6, 0.1});
  {
    ChungLuOptions gen;
    gen.n = 150;
    gen.avg_degree = 6;
    gen.gamma_out = 1.6;
    gen.seed = 5;
    cases.push_back(
        {"powerlaw", GenerateChungLu(gen).ValueOrDie(), 0.6, 0.1});
  }
  cases.push_back({"complete", MakeCompleteDigraph(40), 0.6, 0.1});
  return cases;
}

class PRSimAccuracyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PRSimAccuracyTest, PaperConstantsMeetErrorBound) {
  static const auto cases = AccuracyCases();
  const AccuracyCase& tc = cases[GetParam()];

  PowerMethodOptions pm;
  pm.c = tc.c;
  PowerMethodSimRank oracle(tc.graph, pm);
  oracle.Preprocess().Abort();

  PRSimOptions options;
  options.c = tc.c;
  options.eps = tc.eps;
  options.delta = 0.05;
  options.paper_constants = true;
  options.seed = 99;
  PRSim algo(tc.graph, options);
  ASSERT_TRUE(algo.Preprocess().ok());

  // With paper constants the bound holds per node with probability
  // 1 - delta/n; across a handful of queries a violation would be a bug.
  for (NodeId u : {NodeId(0), NodeId(3), NodeId(17)}) {
    ScoreList result = algo.Query(u % tc.graph.n());
    EXPECT_LE(MaxError(result, oracle, u % tc.graph.n(), tc.graph.n()),
              tc.eps)
        << tc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, PRSimAccuracyTest,
                         ::testing::Range<size_t>(0, 6),
                         [](const auto& info) {
                           static const auto cases = AccuracyCases();
                           return cases[info.param].name;
                         });

TEST(PRSimTest, PracticalModeReasonableAccuracy) {
  Graph g = MakeRandomDigraph(150, 900, 6);
  PowerMethodSimRank oracle(g, {});
  oracle.Preprocess().Abort();

  PRSimOptions options;
  options.eps = 0.05;
  options.alpha = 8.0;
  options.seed = 7;
  PRSim algo(g, options);
  ASSERT_TRUE(algo.Preprocess().ok());
  double worst = 0;
  for (NodeId u = 0; u < 10; ++u) {
    worst = std::max(worst, MaxError(algo.Query(u), oracle, u, g.n()));
  }
  // Practical constants: expect errors around eps, allow 3x slack.
  EXPECT_LT(worst, 3 * options.eps);
}

TEST(PRSimTest, SourceScoreIsOne) {
  Graph g = MakeRandomDigraph(50, 250, 8);
  PRSimOptions options;
  options.eps = 0.2;
  PRSim algo(g, options);
  ASSERT_TRUE(algo.Preprocess().ok());
  for (NodeId u : {NodeId(0), NodeId(13), NodeId(49)}) {
    EXPECT_DOUBLE_EQ(ScoreOf(algo.Query(u), u), 1.0);
  }
}

TEST(PRSimTest, EstimatesAreNonNegative) {
  Graph g = MakeRandomDigraph(80, 400, 9);
  PRSimOptions options;
  options.eps = 0.1;
  PRSim algo(g, options);
  ASSERT_TRUE(algo.Preprocess().ok());
  for (NodeId u = 0; u < 20; ++u) {
    for (const auto& [v, score] : algo.Query(u)) {
      EXPECT_GE(score, 0.0);
    }
  }
}

TEST(PRSimTest, DeterministicForSeed) {
  Graph g = MakeRandomDigraph(100, 600, 10);
  PRSimOptions options;
  options.eps = 0.1;
  options.seed = 1234;
  PRSim a(g, options), b(g, options);
  ASSERT_TRUE(a.Preprocess().ok());
  ASSERT_TRUE(b.Preprocess().ok());
  auto ra = a.Query(5);
  auto rb = b.Query(5);
  std::sort(ra.begin(), ra.end());
  std::sort(rb.begin(), rb.end());
  EXPECT_EQ(ra, rb);
}

TEST(PRSimTest, QueryBeforePreprocessAborts) {
  Graph g = MakeCycle(10);
  PRSim algo(g, {});
  EXPECT_DEATH(algo.Query(0), "Preprocess");
}

TEST(PRSimTest, StatsPopulated) {
  Graph g = MakeRandomDigraph(200, 1500, 11);
  PRSimOptions options;
  options.eps = 0.1;
  PRSim algo(g, options);
  ASSERT_TRUE(algo.Preprocess().ok());
  algo.Query(3);
  const auto& stats = algo.last_query_cost();
  EXPECT_EQ(stats.walks, algo.samples_per_round() * algo.rounds());
  EXPECT_GT(stats.meeting_tests, 0u);
  EXPECT_GT(stats.backward_walks, 0u);
}

TEST(PRSimTest, RoundsForcedOdd) {
  Graph g = MakeCycle(10);
  PRSimOptions options;
  options.rounds = 4;
  PRSim algo(g, options);
  EXPECT_EQ(algo.rounds() % 2, 1u);
}

TEST(PRSimTest, IndexBytesZeroBeforePreprocess) {
  Graph g = MakeCycle(10);
  PRSim algo(g, {});
  EXPECT_EQ(algo.IndexBytes(), 0u);
  ASSERT_TRUE(algo.Preprocess().ok());
  EXPECT_GT(algo.IndexBytes(), 0u);
}

TEST(PRSimTest, HubHeavyConfigurationShiftsWorkToIndex) {
  // j0 = n turns every termination into an index lookup: no backward walks.
  Graph g = MakeRandomDigraph(100, 700, 12);
  PRSimOptions options;
  options.eps = 0.1;
  options.j0 = 100;
  PRSim algo(g, options);
  ASSERT_TRUE(algo.Preprocess().ok());
  algo.Query(0);
  EXPECT_EQ(algo.last_query_cost().backward_walks, 0u);

  PRSimOptions no_hubs = options;
  no_hubs.j0 = 1;
  PRSim algo2(g, no_hubs);
  ASSERT_TRUE(algo2.Preprocess().ok());
  algo2.Query(0);
  EXPECT_GT(algo2.last_query_cost().backward_walks, 0u);
}

TEST(PRSimTest, SharedParentValue) {
  Graph g = MakeSharedParent();
  PRSimOptions options;
  options.eps = 0.03;
  options.alpha = 10;
  options.seed = 3;
  PRSim algo(g, options);
  ASSERT_TRUE(algo.Preprocess().ok());
  EXPECT_NEAR(ScoreOf(algo.Query(0), 1), 0.6, 0.08);
}

TEST(PRSimTest, DanglingSourceStillAnswers) {
  // Node with no in-neighbors: every walk from it either stops immediately
  // or is lost; SimRank to everything else is 0.
  Graph g = testing::MakeChain(5);
  PRSimOptions options;
  options.eps = 0.1;
  PRSim algo(g, options);
  ASSERT_TRUE(algo.Preprocess().ok());
  ScoreList result = algo.Query(0);
  EXPECT_DOUBLE_EQ(ScoreOf(result, 0), 1.0);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_NEAR(ScoreOf(result, v), 0.0, 0.05);
  }
}

TEST(PRSimTest, SharedIndexConcurrentQueries) {
  // One leader builds the index; per-thread workers share it (the index is
  // immutable after Preprocess). All answers must stay within the error
  // budget of the exact oracle.
  Graph g = MakeRandomDigraph(120, 700, 14);
  PowerMethodSimRank oracle(g, {});
  oracle.Preprocess().Abort();

  PRSimOptions options;
  options.eps = 0.08;
  options.alpha = 6;
  PRSim leader(g, options);
  ASSERT_TRUE(leader.Preprocess().ok());

  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<PRSim>> workers;
  for (int t = 0; t < kThreads; ++t) {
    PRSimOptions worker_options = options;
    worker_options.seed = 1000 + t;
    workers.push_back(std::make_unique<PRSim>(g, worker_options));
    workers.back()->ShareIndexFrom(leader);
    EXPECT_EQ(workers.back()->IndexBytes(), leader.IndexBytes());
  }

  std::vector<double> worst(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (NodeId u = t * 5; u < static_cast<NodeId>(t * 5 + 5); ++u) {
        ScoreList result = workers[t]->Query(u);
        for (NodeId v = 0; v < 120; ++v) {
          worst[t] = std::max(
              worst[t], std::abs(ScoreOf(result, v) - oracle.SimRank(u, v)));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_LT(worst[t], 3 * options.eps) << "thread " << t;
  }
}

TEST(PRSimTest, BatchQueryMatchesAccuracyAndIsThreadCountInvariant) {
  Graph g = MakeRandomDigraph(100, 600, 15);
  PowerMethodSimRank oracle(g, {});
  oracle.Preprocess().Abort();

  PRSimOptions options;
  options.eps = 0.1;
  options.alpha = 6;
  options.seed = 5;
  PRSim leader(g, options);
  ASSERT_TRUE(leader.Preprocess().ok());

  std::vector<NodeId> sources = {0, 5, 10, 15, 20, 25, 30, 35};
  auto serial = BatchQuery(leader, sources, /*threads=*/1);
  auto parallel = BatchQuery(leader, sources, /*threads=*/4);
  ASSERT_EQ(serial.size(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    // Determinism across thread counts, bit for bit.
    EXPECT_EQ(serial[i], parallel[i]) << i;
    // Accuracy against the oracle.
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_NEAR(ScoreOf(serial[i], v), oracle.SimRank(sources[i], v),
                  3 * options.eps);
    }
  }
}

TEST(PRSimTest, ShareIndexFromUnpreprocessedAborts) {
  Graph g = MakeCycle(10);
  PRSim a(g, {}), b(g, {});
  EXPECT_DEATH(b.ShareIndexFrom(a), "no index");
}

TEST(PRSimTest, UndirectedSymmetryApproximate) {
  Graph g = MakeRandomDigraph(60, 250, 13, /*undirected=*/true);
  PRSimOptions options;
  options.eps = 0.05;
  options.alpha = 8;
  PRSim algo(g, options);
  ASSERT_TRUE(algo.Preprocess().ok());
  const auto r0 = algo.Query(0);
  const auto r1 = algo.Query(1);
  EXPECT_NEAR(ScoreOf(r0, 1), ScoreOf(r1, 0), 3 * options.eps);
}

/// FNV-1a over the 64-bit words fed to it.
struct Fnv1a64 {
  uint64_t state = 0xcbf29ce484222325ULL;
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (word >> (8 * byte)) & 0xff;
      state *= 0x100000001b3ULL;
    }
  }
};

/// Digest of the full Query() score lists (node ids and score bits, in
/// emission order) and of the summed QueryCost counters over 64 sources,
/// with the sample grid interleaved `lane_width` chunks deep (0: the width
/// Query() picks for the graph).
uint64_t QueryDigest(const Graph& g, size_t threads, size_t lane_width) {
  PRSimOptions options;
  options.threads = threads;
  PRSim engine(g, options);
  EXPECT_TRUE(engine.Preprocess().ok());
  Fnv1a64 hash;
  QueryCost total;
  for (NodeId i = 0; i < 64; ++i) {
    const NodeId u = static_cast<NodeId>((i * 7919ULL + 13) % g.n());
    const ScoreList result = lane_width == 0
                                 ? engine.Query(u)
                                 : engine.QueryAtLaneWidth(u, lane_width);
    hash.Add(result.size());
    for (const auto& [v, score] : result) {
      hash.Add(v);
      hash.Add(std::bit_cast<uint64_t>(score));
    }
    total.Accumulate(engine.last_query_cost());
  }
  hash.Add(total.walks);
  hash.Add(total.meeting_tests);
  hash.Add(total.backward_walks);
  hash.Add(total.backward_increments);
  hash.Add(total.index_tuples_read);
  return hash.state;
}

std::string Hex(uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// Golden digests of Query() output, pinned before the sample grid's walks
// were interleaved across lanes. Any moved RNG draw, reordered float sum or
// changed counter changes them; they must hold at every engine thread count
// and lane width.
TEST(PRSimTest, GoldenQueryDigestIsPinned) {
  ChungLuOptions chung_lu;
  chung_lu.n = 20000;
  chung_lu.avg_degree = 10;
  chung_lu.gamma_out = 2.0;
  chung_lu.seed = 1;
  const Graph power_law = GenerateChungLu(chung_lu).ValueOrDie();
  ErdosRenyiOptions erdos_renyi;
  erdos_renyi.n = 20000;
  erdos_renyi.avg_degree = 10;
  erdos_renyi.seed = 1;
  const Graph flat = GenerateErdosRenyi(erdos_renyi).ValueOrDie();

  constexpr uint64_t kChungLuDigest = 0x12c2358310846369ULL;
  constexpr uint64_t kErdosRenyiDigest = 0xdbd979e0a0d742b1ULL;
  for (const size_t threads : {1, 4}) {
    for (const size_t lanes : {size_t{0}, size_t{1}, kSampleLanes}) {
      EXPECT_EQ(Hex(QueryDigest(power_law, threads, lanes)),
                Hex(kChungLuDigest))
          << "Chung-Lu, threads " << threads << ", lanes " << lanes;
      EXPECT_EQ(Hex(QueryDigest(flat, threads, lanes)),
                Hex(kErdosRenyiDigest))
          << "Erdos-Renyi, threads " << threads << ", lanes " << lanes;
    }
  }
}

}  // namespace
}  // namespace prsim
