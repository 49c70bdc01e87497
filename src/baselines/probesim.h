// ProbeSim (Liu et al. [25]): index-free single-source SimRank.
//
// Each sample walks a sqrt(c)-trajectory W(u) from u and, for every step l
// with position w_l, runs a deterministic Probe that pushes probability mass
// down out-edges for l levels, computing for every v the probability that a
// sqrt(c)-walk from v is at w_l at its step l *without* having met W(u) at an
// earlier step (first-meeting correction: level i of the expansion
// corresponds to v-walk step l - i and skips the node W(u)[l - i]). Summing
// probe results over l and averaging over samples yields an unbiased
// single-source estimator.
//
// The probe expands whole out-neighborhoods, so a sample that lands on a
// high reverse-PageRank hub costs O(n pi(w) * d) — the weakness PRSim's
// variance-bounded backward walk removes (paper Sections 4 and 5.3).

#ifndef PRSIM_BASELINES_PROBESIM_H_
#define PRSIM_BASELINES_PROBESIM_H_

#include <cstdint>

#include "core/single_source.h"
#include "graph/graph.h"
#include "ppr/walker.h"
#include "util/flat_hash_map2.h"
#include "util/rng.h"

namespace prsim {

struct ProbeSimOptions {
  double c = 0.6;
  double eps = 0.1;   ///< additive error target
  /// Samples = ceil(alpha / eps^2); alpha plays the role of log(n/delta)
  /// with the practical constant used across this library.
  double alpha = 3.0;
  uint64_t seed = 11;
};

class ProbeSim : public SingleSourceSimRank {
 public:
  ProbeSim(const Graph& graph, const ProbeSimOptions& options);

  std::string name() const override { return "ProbeSim"; }
  NodeId node_count() const override { return graph_.n(); }

  ScoreList Query(NodeId u) override;

  std::unique_ptr<SingleSourceSimRank> CloneWithSeed(
      uint64_t seed) const override {
    ProbeSimOptions options = options_;
    options.seed = seed;
    return std::make_unique<ProbeSim>(graph_, options);
  }
  uint64_t seed() const override { return options_.seed; }
  void Reseed(uint64_t seed) override {
    options_.seed = seed;
    rng_.Reseed(seed);
  }

  uint64_t samples() const { return samples_; }

 private:
  /// Runs one probe from `w` at trajectory step `level`, accumulating
  /// h_l(v, w) into `scores` with weight 1/samples_.
  void Probe(NodeId w, uint32_t level, const std::vector<NodeId>& trajectory,
             FlatHashMap2<double>& scores);

  const Graph& graph_;
  ProbeSimOptions options_;
  Walker walker_;
  Rng rng_;
  uint64_t samples_;
  double sqrt_c_;
  // Probe scratch, reused across queries. Probe() float-sums expansion mass
  // while iterating ForEach, whose insertion order does not depend on the
  // capacity these maps kept from earlier queries.
  FlatHashMap2<double> cur_{64};
  FlatHashMap2<double> next_{64};
};

}  // namespace prsim

#endif  // PRSIM_BASELINES_PROBESIM_H_
