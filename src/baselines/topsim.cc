#include "baselines/topsim.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace prsim {

TopSim::TopSim(const Graph& graph, const TopSimOptions& options)
    : graph_(graph), options_(options), rng_(options.seed) {
  PRSIM_CHECK(options_.depth > 0 && options_.width > 0);
}

std::vector<std::pair<NodeId, double>> TopSim::TrimFrontier(
    const FlatHashMap2<double>& frontier) const {
  std::vector<std::pair<NodeId, double>> entries;
  entries.reserve(frontier.size());
  frontier.ForEach([&](uint64_t key, const double& mass) {
    if (mass >= options_.eta_prune) {
      entries.emplace_back(static_cast<NodeId>(key), mass);
    }
  });
  if (entries.size() > options_.width) {
    std::nth_element(entries.begin(), entries.begin() + options_.width,
                     entries.end(), [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    entries.resize(options_.width);
  }
  return entries;
}

ScoreList TopSim::Query(NodeId u) {
  PRSIM_CHECK(u < graph_.n());
  cost_ = QueryCost{};  // deterministic truncated enumeration: no sampling
  const double c = options_.c;
  FlatHashMap2<double> scores(1024);

  // Reverse enumeration: rev[l] = trimmed (w, p(u -> w in l steps)).
  std::vector<std::vector<std::pair<NodeId, double>>> rev(options_.depth + 1);
  rev[0] = {{u, 1.0}};
  FlatHashMap2<double> frontier(256);
  for (uint32_t level = 1; level <= options_.depth; ++level) {
    frontier.clear();
    for (const auto& [x, mass] : rev[level - 1]) {
      const uint32_t din = graph_.InDegree(x);
      if (din == 0) continue;
      const double share = mass / din;
      if (din <= options_.degree_cap) {
        for (NodeId y : graph_.InNeighbors(x)) frontier[y] += share;
      } else {
        // TopSim-SM trimming: sample degree_cap in-neighbors, keeping the
        // per-edge share (underestimates total mass, as the original does).
        for (uint32_t s = 0; s < options_.degree_cap; ++s) {
          frontier[graph_.InNeighborAt(x, rng_.NextIndex(din))] += share;
        }
      }
    }
    rev[level] = TrimFrontier(frontier);
    if (rev[level].empty()) break;
  }

  // Forward scoring: from each (w, l) expand out-edges l levels.
  FlatHashMap2<double> fwd(256), fwd_next(256);
  for (uint32_t level = 1; level < rev.size(); ++level) {
    const double decay = std::pow(c, static_cast<double>(level));
    for (const auto& [w, p_u] : rev[level]) {
      if (p_u * decay < options_.eta_prune) continue;
      fwd.clear();
      fwd[w] = 1.0;
      for (uint32_t step = 0; step < level; ++step) {
        fwd_next.clear();
        auto trimmed = TrimFrontier(fwd);
        for (const auto& [x, mass] : trimmed) {
          const auto outs = graph_.OutNeighbors(x);
          const auto degs = graph_.OutNeighborInDegrees(x);
          for (size_t e = 0; e < outs.size(); ++e) {
            fwd_next[outs[e]] += mass / degs[e];
          }
        }
        std::swap(fwd, fwd_next);
        if (fwd.empty()) break;
      }
      fwd.ForEach([&](uint64_t key, const double& p_v) {
        const auto v = static_cast<NodeId>(key);
        if (v == u) return;
        scores[v] += decay * p_u * p_v;
      });
    }
  }

  ScoreList out;
  out.reserve(scores.size() + 1);
  scores.ForEach([&](uint64_t key, const double& score) {
    if (score > 0) out.emplace_back(static_cast<NodeId>(key), score);
  });
  out.emplace_back(u, 1.0);
  return out;
}

}  // namespace prsim
