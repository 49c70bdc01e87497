// TopSim (Lee et al. [20]): truncated walk-enumeration similarity search.
//
// TopSim evaluates the walk-pair formulation of SimRank restricted to depth
// T: it enumerates reverse walks of length l <= T from the query node u
// (probability mass 1/d_in per step), and for each reached (w, l) expands
// forward along out-edges l levels to score candidates v with
// c^l * p(u -> w) * p(v -> w). Three pruning knobs keep the enumeration
// tractable and give the method its characteristic speed/accuracy tradeoff:
//   * T     — walk depth cap (default 3);
//   * 1/h   — degree threshold: at nodes with in-degree above 1/h only 1/h
//             sampled in-neighbors are expanded (the TopSim-SM trimming);
//   * eta_prune / H — probability floor and per-level width cap.
//
// Like the original, this is a heuristic top-k method: no error guarantee,
// and meeting multiplicity is not corrected — the accuracy benches show
// exactly the plateau visible for TOPSIM in Figures 2/3.

#ifndef PRSIM_BASELINES_TOPSIM_H_
#define PRSIM_BASELINES_TOPSIM_H_

#include <cstdint>
#include <vector>

#include "core/single_source.h"
#include "graph/graph.h"
#include "util/flat_hash_map2.h"
#include "util/rng.h"

namespace prsim {

struct TopSimOptions {
  double c = 0.6;
  uint32_t depth = 3;          ///< T
  uint32_t degree_cap = 100;   ///< 1/h
  double eta_prune = 0.001;    ///< similarity/probability floor
  uint32_t width = 100;        ///< H: entries expanded per level
  uint64_t seed = 29;
};

class TopSim : public SingleSourceSimRank {
 public:
  TopSim(const Graph& graph, const TopSimOptions& options);

  std::string name() const override { return "TopSim"; }
  NodeId node_count() const override { return graph_.n(); }

  ScoreList Query(NodeId u) override;

  std::unique_ptr<SingleSourceSimRank> CloneWithSeed(
      uint64_t seed) const override {
    TopSimOptions options = options_;
    options.seed = seed;
    return std::make_unique<TopSim>(graph_, options);
  }
  uint64_t seed() const override { return options_.seed; }
  void Reseed(uint64_t seed) override {
    options_.seed = seed;
    rng_.Reseed(seed);
  }

 private:
  /// Keeps the `width` heaviest entries of a frontier map, dropping the
  /// rest. The nth_element width cut breaks mass ties by the map's
  /// insertion order.
  std::vector<std::pair<NodeId, double>> TrimFrontier(
      const FlatHashMap2<double>& frontier) const;

  const Graph& graph_;
  TopSimOptions options_;
  Rng rng_;
};

}  // namespace prsim

#endif  // PRSIM_BASELINES_TOPSIM_H_
