// Tests for sqrt(c)-walk sampling: termination distributions must match the
// dense l-hop RPPR recurrence, eta estimates must match the exact coupled
// pair-chain, and the Monte Carlo SimRank estimator must match the exact
// meeting probability.

#include <gtest/gtest.h>

#include <cmath>

#include "ppr/walker.h"
#include "test_util.h"
#include "util/flat_hash_map2.h"

namespace prsim {
namespace {

using testing::ExactEta;
using testing::ExactMeetingSimRank;
using testing::DenseLevelRppr;
using testing::MakeChain;
using testing::MakeCompleteDigraph;
using testing::MakeCycle;
using testing::MakeRandomDigraph;
using testing::MakeSharedParent;

TEST(WalkerTest, RejectsBadDecay) {
  Graph g = MakeCycle(3);
  EXPECT_DEATH(Walker(g, 0.0), "decay");
  EXPECT_DEATH(Walker(g, 1.0), "decay");
}

TEST(WalkerTest, TerminationProbabilityAtStepZero) {
  // Pr[terminate immediately] = 1 - sqrt(c).
  Graph g = MakeCycle(5);
  const double c = 0.6;
  Walker walker(g, c);
  Rng rng(1);
  const int n = 200000;
  int at_zero = 0;
  for (int i = 0; i < n; ++i) {
    auto out = walker.SampleWalk(0, rng);
    ASSERT_TRUE(out.terminated);  // cycles have no dangling nodes
    at_zero += (out.steps == 0);
  }
  EXPECT_NEAR(static_cast<double>(at_zero) / n, 1.0 - std::sqrt(c), 0.005);
}

TEST(WalkerTest, ChainWalksAreLostAtHead) {
  // Chain 0 -> 1 -> 2: node 0 has no in-neighbors, so a walk from 0 that
  // decides to move is lost.
  Graph g = MakeChain(3);
  Walker walker(g, 0.6);
  Rng rng(2);
  const int n = 100000;
  int lost = 0, at_zero = 0;
  for (int i = 0; i < n; ++i) {
    auto out = walker.SampleWalk(0, rng);
    if (!out.terminated) {
      ++lost;
    } else {
      EXPECT_EQ(out.terminal, 0u);
      EXPECT_EQ(out.steps, 0u);
      ++at_zero;
    }
  }
  const double sqrt_c = std::sqrt(0.6);
  EXPECT_NEAR(static_cast<double>(lost) / n, sqrt_c, 0.005);
  EXPECT_NEAR(static_cast<double>(at_zero) / n, 1 - sqrt_c, 0.005);
}

TEST(WalkerTest, TerminalDistributionMatchesDenseRppr) {
  // On random graphs, the empirical (terminal, steps) distribution must match
  // the exact pi_l(u, w) recurrence.
  const double c = 0.6;
  Graph g = MakeRandomDigraph(20, 80, 33);
  Walker walker(g, c);
  const auto pi = DenseLevelRppr(g, c, 30);
  Rng rng(3);
  const NodeId u = 4;
  const int samples = 400000;
  FlatHashMap2<double> counts;
  for (int i = 0; i < samples; ++i) {
    auto out = walker.SampleWalk(u, rng);
    if (out.terminated) {
      counts[PackNodeLevel(out.terminal, out.steps)] += 1.0;
    }
  }
  for (uint32_t l = 0; l <= 6; ++l) {
    for (NodeId w = 0; w < g.n(); ++w) {
      const double expected = pi[l][u][w];
      const double* hit = counts.Find(PackNodeLevel(w, l));
      const double observed = hit ? *hit / samples : 0.0;
      EXPECT_NEAR(observed, expected, 0.004)
          << "l=" << l << " w=" << w;
    }
  }
}

TEST(WalkerTest, EtaMatchesExactPairChain) {
  const double c = 0.6;
  for (auto [name, g] : std::vector<std::pair<std::string, Graph>>{
           {"cycle", MakeCycle(7)},
           {"complete", MakeCompleteDigraph(6)},
           {"random", MakeRandomDigraph(15, 60, 44)}}) {
    Walker walker(g, c);
    const auto eta = ExactEta(g, c);
    Rng rng(5);
    for (NodeId w = 0; w < std::min<NodeId>(g.n(), 8); ++w) {
      const double estimate = walker.EstimateEta(w, 120000, rng);
      EXPECT_NEAR(estimate, eta[w], 0.01) << name << " w=" << w;
    }
  }
}

TEST(WalkerTest, EtaIsOneOnCycle) {
  // On a directed cycle each node has exactly one in-neighbor, so the two
  // walks move in lockstep along the same nodes but started identically —
  // they coincide at every step. Wait: both walks from w move to the SAME
  // unique predecessor, so they meet at step 1 whenever both survive.
  // Hence eta(w) = 1 - c (meet iff both walks take the first step).
  const double c = 0.6;
  Graph g = MakeCycle(9);
  Walker walker(g, c);
  Rng rng(6);
  const double eta = walker.EstimateEta(3, 200000, rng);
  EXPECT_NEAR(eta, 1.0 - c, 0.005);
}

TEST(WalkerTest, SimRankEstimatorMatchesExactMeeting) {
  const double c = 0.6;
  Graph g = MakeRandomDigraph(12, 50, 55);
  Walker walker(g, c);
  const auto exact = ExactMeetingSimRank(g, c);
  Rng rng(7);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 4; v < 8; ++v) {
      const double estimate = walker.EstimateSimRank(u, v, 150000, rng);
      EXPECT_NEAR(estimate, exact[u][v], 0.01) << u << "," << v;
    }
  }
}

TEST(WalkerTest, SimRankSharedParentIsC) {
  // I(0) = I(1) = {2}: s(0, 1) = c exactly.
  const double c = 0.6;
  Graph g = MakeSharedParent();
  Walker walker(g, c);
  Rng rng(8);
  EXPECT_NEAR(walker.EstimateSimRank(0, 1, 300000, rng), c, 0.006);
}

TEST(WalkerTest, SimRankOfNodeWithItselfIsOne) {
  Graph g = MakeCycle(4);
  Walker walker(g, 0.6);
  Rng rng(9);
  EXPECT_DOUBLE_EQ(walker.EstimateSimRank(2, 2, 10, rng), 1.0);
}

TEST(WalkerTest, PairMeetsNeverOnDisconnectedComponents) {
  // Two disjoint 2-cycles: walks from different components can never meet.
  Graph g = BuildGraph(4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}}).ValueOrDie();
  Walker walker(g, 0.8);
  Rng rng(10);
  EXPECT_DOUBLE_EQ(walker.EstimateSimRank(0, 2, 20000, rng), 0.0);
}

}  // namespace
}  // namespace prsim
