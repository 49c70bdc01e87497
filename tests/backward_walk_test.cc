// Tests for Algorithms 2 and 3: unbiasedness (Lemma 3.3), the variance bound
// of the variance-bounded walk (Lemma 3.5), cost scaling (Lemma 3.4), and the
// Section 3.4 gadget where the simple walk's estimator explodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gen/chung_lu.h"
#include "ppr/backward_walk.h"
#include "ppr/reverse_pagerank.h"
#include "test_util.h"

namespace prsim {
namespace {

using testing::DenseLevelRppr;
using testing::MakeCompleteDigraph;
using testing::MakeRandomDigraph;
using testing::MakeVarianceGadget;

double EstimateAt(const BackwardWalkResult& result, NodeId v) {
  for (const auto& [node, value] : result.estimates) {
    if (node == v) return value;
  }
  return 0.0;
}

// Parameterized over (algorithm, seed): both walks must be unbiased.
class BackwardWalkUnbiasednessTest
    : public ::testing::TestWithParam<std::tuple<bool, uint64_t>> {};

TEST_P(BackwardWalkUnbiasednessTest, MeanMatchesDenseRppr) {
  const auto [variance_bounded, seed] = GetParam();
  const double c = 0.6;
  Graph g = MakeRandomDigraph(18, 70, seed);
  const uint32_t target_level = 3;
  const auto pi = DenseLevelRppr(g, c, target_level);
  BackwardWalker walker(g, c);
  Rng rng(seed * 31 + 1);
  const NodeId w = 2;

  const int runs = 120000;
  std::vector<double> mean(g.n(), 0.0);
  for (int i = 0; i < runs; ++i) {
    auto result = variance_bounded
                      ? walker.RunVarianceBounded(w, target_level, rng)
                      : walker.RunSimple(w, target_level, rng);
    for (const auto& [v, value] : result.estimates) mean[v] += value;
  }
  for (NodeId v = 0; v < g.n(); ++v) {
    const double expected = pi[target_level][v][w];
    EXPECT_NEAR(mean[v] / runs, expected, 0.01)
        << (variance_bounded ? "vb" : "simple") << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, BackwardWalkUnbiasednessTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(7u, 8u, 9u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "VarianceBounded"
                                                 : "Simple") +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(BackwardWalkTest, LevelZeroIsDeterministic) {
  Graph g = MakeRandomDigraph(10, 40, 3);
  BackwardWalker walker(g, 0.6);
  Rng rng(1);
  auto result = walker.RunVarianceBounded(4, 0, rng);
  ASSERT_EQ(result.estimates.size(), 1u);
  EXPECT_EQ(result.estimates[0].first, 4u);
  EXPECT_NEAR(result.estimates[0].second, 1.0 - std::sqrt(0.6), 1e-12);
}

TEST(BackwardWalkTest, VarianceBoundHoldsEmpirically) {
  // Lemma 3.5: E[pi_hat^2] <= pi. Check the second moment on random graphs.
  const double c = 0.6;
  Graph g = MakeRandomDigraph(15, 60, 12);
  const uint32_t level = 3;
  const auto pi = DenseLevelRppr(g, c, level);
  BackwardWalker walker(g, c);
  Rng rng(2);
  const NodeId w = 0;
  const int runs = 150000;
  std::vector<double> second(g.n(), 0.0);
  for (int i = 0; i < runs; ++i) {
    auto result = walker.RunVarianceBounded(w, level, rng);
    for (const auto& [v, value] : result.estimates) {
      second[v] += value * value;
    }
  }
  for (NodeId v = 0; v < g.n(); ++v) {
    const double bound = pi[level][v][w];
    // Allow 4-sigma sampling noise on the second-moment estimate.
    const double noise = 4.0 * std::sqrt(bound / runs) + 1e-4;
    EXPECT_LE(second[v] / runs, bound + noise) << "v=" << v;
  }
}

TEST(BackwardWalkTest, GadgetMeansAgree) {
  // Section 3.4 gadget w -> x_i -> v: both algorithms stay unbiased even in
  // the adversarial construction.
  const double c = 0.6;
  const NodeId spokes = 50;
  Graph g = MakeVarianceGadget(spokes);
  const auto pi = DenseLevelRppr(g, c, 2);
  BackwardWalker walker(g, c);
  Rng rng(3);
  double sum_simple = 0, sum_vb = 0;
  const int runs = 200000;
  for (int i = 0; i < runs; ++i) {
    sum_simple += EstimateAt(walker.RunSimple(0, 2, rng), 1);
    sum_vb += EstimateAt(walker.RunVarianceBounded(0, 2, rng), 1);
  }
  EXPECT_NEAR(sum_simple / runs, pi[2][1][0], 0.01);
  EXPECT_NEAR(sum_vb / runs, pi[2][1][0], 0.01);
}

TEST(BackwardWalkTest, SimpleWalkPassesAccumulatedMassVarianceBoundedCaps) {
  // Funnel: w -> x_i (k spokes) -> y -> z, plus K feeder edges f_j -> z to
  // raise d_in(z). The simple walk forwards the *whole* accumulated estimate
  // pi_hat_2(y) = B * (1-sqrt_c) (B = number of spokes that fired) to z, so
  // estimates of 2..5 * (1-sqrt_c) appear; the variance-bounded walk always
  // takes the sampled branch at z (d_in(z) >> pi_hat/(1-sqrt_c)) and its
  // increments are capped at exactly (1-sqrt_c) — this is the mechanism
  // behind Lemma 3.5.
  const double c = 0.6;
  const NodeId k = 20, feeders = 50;
  std::vector<Edge> edges;
  const NodeId w = 0, y = 1, z = 2;
  for (NodeId i = 0; i < k; ++i) {
    const NodeId x = 3 + i;
    edges.emplace_back(w, x);
    edges.emplace_back(x, y);
  }
  edges.emplace_back(y, z);
  for (NodeId j = 0; j < feeders; ++j) edges.emplace_back(3 + k + j, z);
  Graph g = BuildGraph(3 + k + feeders, std::move(edges)).ValueOrDie();
  ASSERT_EQ(g.InDegree(z), feeders + 1);

  BackwardWalker walker(g, c);
  const double term = 1.0 - std::sqrt(c);
  Rng rng(4);
  double max_simple = 0, max_vb = 0;
  for (int i = 0; i < 20000; ++i) {
    max_simple = std::max(max_simple, EstimateAt(walker.RunSimple(w, 3, rng), z));
    max_vb = std::max(max_vb,
                      EstimateAt(walker.RunVarianceBounded(w, 3, rng), z));
  }
  EXPECT_GE(max_simple, 2 * term - 1e-9);
  EXPECT_LE(max_vb, term + 1e-9);
}

TEST(BackwardWalkTest, CostScalesWithReversePageRank) {
  // Lemma 3.4: expected increments are O(n pi(w)).
  ChungLuOptions options;
  options.n = 20000;
  options.avg_degree = 10;
  options.gamma_out = 1.6;
  options.seed = 4;
  Graph g = GenerateChungLu(options).ValueOrDie();
  auto pi = ComputeReversePageRank(g, {.c = 0.6});
  auto order = RankNodesByValue(pi);
  BackwardWalker walker(g, 0.6);
  Rng rng(5);

  auto mean_cost = [&](NodeId w) {
    uint64_t total = 0;
    for (int i = 0; i < 300; ++i) {
      total += walker.RunVarianceBounded(w, 8, rng).increments;
    }
    return static_cast<double>(total) / 300.0;
  };
  const NodeId hub = order.front();
  const NodeId mid = order[g.n() / 2];
  const double hub_cost = mean_cost(hub);
  const double mid_cost = mean_cost(mid);
  EXPECT_GT(pi[hub], 10 * pi[mid]);
  EXPECT_GT(hub_cost, mid_cost);
  // Cost per unit of n*pi(w) should be within a common constant.
  const double hub_ratio = hub_cost / (g.n() * pi[hub]);
  EXPECT_LT(hub_ratio, 1.0 / (1.0 - std::sqrt(0.6)) + 1.0);
}

TEST(BackwardWalkTest, CompleteDigraphLevelOne) {
  // All nodes symmetric: pi_1(v, w) = (1-sqrt_c) sqrt_c/(n-1) for v != w.
  const double c = 0.6;
  const NodeId n = 8;
  Graph g = MakeCompleteDigraph(n);
  BackwardWalker walker(g, c);
  Rng rng(6);
  std::vector<double> mean(n, 0.0);
  const int runs = 200000;
  for (int i = 0; i < runs; ++i) {
    for (const auto& [v, value] :
         walker.RunVarianceBounded(0, 1, rng).estimates) {
      mean[v] += value;
    }
  }
  const double expected = (1 - std::sqrt(c)) * std::sqrt(c) / (n - 1);
  for (NodeId v = 1; v < n; ++v) {
    EXPECT_NEAR(mean[v] / runs, expected, 0.002);
  }
}

TEST(BackwardWalkTest, TargetWithNoOutEdgesDiesAfterLevelZero) {
  Graph g = testing::MakeChain(3);
  BackwardWalker walker(g, 0.6);
  Rng rng(7);
  auto result = walker.RunVarianceBounded(2, 4, rng);
  EXPECT_TRUE(result.estimates.empty());
}

TEST(BackwardWalkTest, EstimatesAreNonNegative) {
  Graph g = MakeRandomDigraph(40, 200, 13);
  BackwardWalker walker(g, 0.8);
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    for (const auto& [v, value] :
         walker.RunVarianceBounded(rng.NextIndex(40), 5, rng).estimates) {
      EXPECT_GE(value, 0.0);
    }
  }
}

/// Algorithm 3 written out plainly: std::unordered_map frontiers, each with
/// a vector of its keys in insertion order, drawing from `rng` in the order
/// the paper's pseudocode visits nodes. `max_frontier` reports the largest
/// frontier the walk built.
struct ReferenceWalk {
  std::vector<std::pair<NodeId, double>> estimates;
  uint64_t increments = 0;
  size_t max_frontier = 0;
};

ReferenceWalk ReferenceVarianceBounded(const Graph& g, double c, NodeId w,
                                       uint32_t target_level, Rng& rng) {
  const double sqrt_c = std::sqrt(c);
  const double term = 1.0 - sqrt_c;
  std::unordered_map<NodeId, double> cur{{w, term}};
  std::unordered_map<NodeId, double> next;
  std::vector<NodeId> cur_keys{w};
  std::vector<NodeId> next_keys;
  const auto add = [&](NodeId y, double delta) {
    const auto [it, inserted] = next.try_emplace(y, 0.0);
    if (inserted) next_keys.push_back(y);
    it->second += delta;
  };
  ReferenceWalk walk;
  walk.increments = 1;
  walk.max_frontier = 1;
  for (uint32_t level = 0; level < target_level && !cur_keys.empty();
       ++level) {
    for (const NodeId x : cur_keys) {
      const double estimate = cur.at(x);
      if (rng.NextDouble() >= sqrt_c) continue;
      const auto outs = g.OutNeighbors(x);
      const auto degs = g.OutNeighborInDegrees(x);
      const double exact_threshold = estimate / term;
      size_t i = 0;
      for (; i < outs.size() && degs[i] <= exact_threshold; ++i) {
        add(outs[i], estimate / degs[i]);
      }
      if (i < outs.size()) {
        const double sampled_threshold = exact_threshold / rng.NextDouble();
        for (; i < outs.size() && degs[i] <= sampled_threshold; ++i) {
          add(outs[i], term);
        }
      }
      walk.increments += i;
    }
    cur = std::move(next);
    cur_keys = std::move(next_keys);
    next.clear();
    next_keys.clear();
    walk.max_frontier = std::max(walk.max_frontier, cur_keys.size());
  }
  for (const NodeId v : cur_keys) walk.estimates.emplace_back(v, cur.at(v));
  return walk;
}

TEST(BackwardWalkTest, FrontierSwitchMatchesMapReferenceDrawForDraw) {
  // A dense digraph, so frontiers outgrow the linear-scan limit and the
  // walker switches to its position index mid-level. One walker serves
  // every walk, so its scratch is reused across both regimes.
  const double c = 0.6;
  Graph g = MakeRandomDigraph(400, 8000, 44);
  BackwardWalker walker(g, c);
  Rng targets(3);
  size_t crossed = 0;
  size_t scanned_only = 0;
  for (int i = 0; i < 2000; ++i) {
    const NodeId w = targets.NextIndex(g.n());
    const uint32_t level = 1 + targets.NextIndex(8);
    Rng rng_walker(1000 + i);
    Rng rng_reference(1000 + i);
    const BackwardWalkResult got =
        walker.RunVarianceBounded(w, level, rng_walker);
    const ReferenceWalk want =
        ReferenceVarianceBounded(g, c, w, level, rng_reference);
    ASSERT_EQ(got.estimates, want.estimates) << "w=" << w << " l=" << level;
    ASSERT_EQ(got.increments, want.increments) << "w=" << w << " l=" << level;
    // Draw for draw: both consumed exactly the same number of draws.
    ASSERT_EQ(rng_walker.Next(), rng_reference.Next())
        << "w=" << w << " l=" << level;
    if (want.max_frontier > BackwardWalker::kFrontierScanLimit) {
      ++crossed;
    } else {
      ++scanned_only;
    }
  }
  // Both regimes were exercised (a walk rarely outgrows the scan limit:
  // about 3% of these do).
  EXPECT_GT(crossed, 20u);
  EXPECT_GT(scanned_only, 1000u);
}

}  // namespace
}  // namespace prsim
