#include "ppr/backward_search.h"

#include <cmath>

#include "util/flat_hash_map2.h"
#include "util/logging.h"

namespace prsim {

BackwardSearchResult BackwardSearch(const Graph& graph, NodeId w,
                                    const BackwardSearchOptions& options) {
  PRSIM_CHECK(options.c > 0 && options.c < 1);
  PRSIM_CHECK(options.rmax > 0);
  const double sqrt_c = std::sqrt(options.c);
  const double term = 1.0 - sqrt_c;
  const double keep = options.keep_threshold >= 0 ? options.keep_threshold
                                                  : options.rmax;

  BackwardSearchResult result;
  // The ForEach below accumulates float residues and emits reserve-list
  // entries in the map's insertion order, a pure function of the push
  // sequence, so the index artifact is too.
  FlatHashMap2<double> residue(16), residue_next(16);
  residue[w] = 1.0;

  for (uint32_t level = 0; level < options.max_level; ++level) {
    if (residue.empty()) break;
    std::vector<std::pair<NodeId, float>> reserves;
    bool pushed_any = false;
    residue.ForEach([&](uint64_t key, const double& r) {
      // Residues at or below rmax are dropped (their reserve contribution is
      // the approximation error Lemma 3.1 accounts for).
      if (r <= options.rmax) return;
      pushed_any = true;
      const auto v = static_cast<NodeId>(key);
      const double psi = term * r;
      if (psi > keep) {
        reserves.emplace_back(v, static_cast<float>(psi));
      }
      const auto outs = graph.OutNeighbors(v);
      const auto degs = graph.OutNeighborInDegrees(v);
      for (size_t i = 0; i < outs.size(); ++i) {
        residue_next[outs[i]] += sqrt_c * r / degs[i];
      }
      result.push_operations += outs.size();
    });
    if (!pushed_any) break;
    result.levels.push_back(std::move(reserves));
    residue.clear();
    std::swap(residue, residue_next);
  }
  // Trim trailing empty levels (reserves can be empty while pushes happened).
  while (!result.levels.empty() && result.levels.back().empty()) {
    result.levels.pop_back();
  }
  return result;
}

}  // namespace prsim
