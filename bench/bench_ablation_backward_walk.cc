// Ablation: Variance Bounded Backward Walk (Algorithm 3) vs Simple Backward
// Walk (Algorithm 2) vs a ProbeSim-style full deterministic expansion.
//
// Three claims from Sections 3.4 / 5.3 are measured on power-law graphs:
//   1. both walks cost O(n pi(w)) while the full expansion pays the whole
//      out-neighborhood of every reached node (the d̄ factor);
//   2. the walks' estimator means agree (both unbiased);
//   3. the simple walk's estimator variance exceeds the variance-bounded
//      walk's on hub targets — the reason PRSim can use median-of-means.

#include <cmath>
#include <cstdio>
#include <vector>

#include "gen/chung_lu.h"
#include "ppr/backward_walk.h"
#include "ppr/reverse_pagerank.h"
#include "util/flat_hash_map2.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace prsim;

/// Deterministic full expansion to the target level (the probe cost model).
uint64_t FullExpansionCost(const Graph& g, NodeId w, uint32_t level) {
  FlatHashMap2<double> cur(64), next(64);
  cur[w] = 1.0;
  uint64_t cost = 0;
  const double sqrt_c = std::sqrt(0.6);
  for (uint32_t i = 0; i < level; ++i) {
    next.clear();
    cur.ForEach([&](uint64_t key, const double& mass) {
      const auto x = static_cast<NodeId>(key);
      const auto outs = g.OutNeighbors(x);
      const auto degs = g.OutNeighborInDegrees(x);
      for (size_t e = 0; e < outs.size(); ++e) {
        next[outs[e]] += sqrt_c * mass / degs[e];
        ++cost;
      }
    });
    std::swap(cur, next);
  }
  return cost;
}

}  // namespace

int main() {
  const uint32_t level = 6;
  std::printf("[ablation-bw] level=%u, costs are mean ops per invocation\n",
              level);
  std::printf("%-8s %-12s %-14s %-14s %-14s %-12s %-12s\n", "gamma",
              "n*pi(hub)", "vb_ops", "simple_ops", "full_ops", "vb_var",
              "simple_var");

  for (double gamma : {1.3, 2.0, 3.0}) {
    ChungLuOptions gen;
    gen.n = 50000;
    gen.avg_degree = 10;
    gen.gamma_out = gamma;
    gen.seed = 3;
    Graph g = GenerateChungLu(gen).ValueOrDie();
    auto pi = ComputeReversePageRank(g, {.c = 0.6});
    const NodeId hub = RankNodesByValue(pi)[0];

    BackwardWalker walker(g, 0.6);
    Rng rng(7);
    const int runs = 400;
    uint64_t vb_ops = 0, simple_ops = 0;
    // Variance of the estimator at the hub's most-reached node: track the
    // estimate of one fixed target v (pick the max-mean node on the fly).
    FlatHashMap2<double> sum(1024), sum_sq(1024);
    for (int i = 0; i < runs; ++i) {
      auto vb = walker.RunVarianceBounded(hub, level, rng);
      vb_ops += vb.increments;
      for (const auto& [v, val] : vb.estimates) {
        sum[v] += val;
        sum_sq[v] += val * val;
      }
    }
    FlatHashMap2<double> ssum(1024), ssum_sq(1024);
    for (int i = 0; i < runs; ++i) {
      auto simple = walker.RunSimple(hub, level, rng);
      simple_ops += simple.increments;
      for (const auto& [v, val] : simple.estimates) {
        ssum[v] += val;
        ssum_sq[v] += val * val;
      }
    }
    // Aggregate variance across all reached nodes (sum of per-node vars).
    double vb_var = 0, simple_var = 0;
    sum_sq.ForEach([&](uint64_t key, const double& sq) {
      const double mean = (*sum.Find(key)) / runs;
      vb_var += sq / runs - mean * mean;
    });
    ssum_sq.ForEach([&](uint64_t key, const double& sq) {
      const double mean = (*ssum.Find(key)) / runs;
      simple_var += sq / runs - mean * mean;
    });

    const uint64_t full_ops = FullExpansionCost(g, hub, level);
    std::printf("%-8.1f %-12.1f %-14.1f %-14.1f %-14llu %-12.4f %-12.4f\n",
                gamma, g.n() * pi[hub],
                static_cast<double>(vb_ops) / runs,
                static_cast<double>(simple_ops) / runs,
                static_cast<unsigned long long>(full_ops), vb_var,
                simple_var);
    std::fflush(stdout);
  }
  std::printf(
      "\nexpected: vb_ops ~ simple_ops ~ n*pi(hub)/(1-sqrt_c), both orders "
      "of magnitude below full_ops (the ProbeSim cost model). On benign "
      "Chung-Lu hubs the two walks' variances are comparable; Algorithm 3's "
      "advantage is the *guarantee* Var <= pi (Lemma 3.5), which Algorithm 2 "
      "lacks on funnel-shaped graphs (see "
      "backward_walk_test.cc:SimpleWalkPassesAccumulatedMass...).\n");
  return 0;
}
