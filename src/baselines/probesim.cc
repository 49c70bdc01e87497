#include "baselines/probesim.h"

#include <cmath>

#include "util/logging.h"

namespace prsim {

ProbeSim::ProbeSim(const Graph& graph, const ProbeSimOptions& options)
    : graph_(graph),
      options_(options),
      walker_(graph, options.c),
      rng_(options.seed) {
  PRSIM_CHECK(options_.eps > 0);
  samples_ = static_cast<uint64_t>(
      std::ceil(options_.alpha / (options_.eps * options_.eps)));
  samples_ = std::max<uint64_t>(samples_, 1);
  sqrt_c_ = walker_.sqrt_c();
}

void ProbeSim::Probe(NodeId w, uint32_t level,
                     const std::vector<NodeId>& trajectory,
                     FlatHashMap2<double>& scores) {
  const double inv_samples = 1.0 / static_cast<double>(samples_);
  cur_.clear();
  cur_[w] = 1.0;
  for (uint32_t i = 1; i <= level; ++i) {
    next_.clear();
    // Expansion level i reaches nodes that are l - i walk-steps away from
    // their own start; first-meeting correction skips the node the u-walk
    // occupies at that step (trajectory[level - i]; for i == level this is u
    // itself, excluding the trivial v = u term).
    const NodeId avoid = trajectory[level - i];
    cur_.ForEach([&](uint64_t key, const double& mass) {
      const auto x = static_cast<NodeId>(key);
      const auto outs = graph_.OutNeighbors(x);
      const auto degs = graph_.OutNeighborInDegrees(x);
      for (size_t e = 0; e < outs.size(); ++e) {
        const NodeId y = outs[e];
        if (y == avoid) continue;
        next_[y] += sqrt_c_ * mass / degs[e];
      }
    });
    std::swap(cur_, next_);
    if (cur_.empty()) return;
  }
  cur_.ForEach([&](uint64_t key, const double& mass) {
    scores[key] += mass * inv_samples;
  });
}

ScoreList ProbeSim::Query(NodeId u) {
  PRSIM_CHECK(u < graph_.n());
  cost_ = QueryCost{};
  cost_.walks = samples_;
  FlatHashMap2<double> scores(1024);
  std::vector<NodeId> trajectory;
  trajectory.reserve(16);

  for (uint64_t sample = 0; sample < samples_; ++sample) {
    // Sample the trajectory of one sqrt(c)-walk from u: positions while the
    // walk is alive, including the start.
    trajectory.clear();
    trajectory.push_back(u);
    NodeId pos = u;
    for (uint32_t step = 1; step < kMaxWalkLevel; ++step) {
      if (rng_.NextDouble() >= sqrt_c_) break;
      const uint32_t din = graph_.InDegree(pos);
      if (din == 0) break;
      pos = graph_.InNeighborAt(pos, rng_.NextIndex(din));
      trajectory.push_back(pos);
    }
    for (uint32_t level = 1; level < trajectory.size(); ++level) {
      ++cost_.backward_walks;
      Probe(trajectory[level], level, trajectory, scores);
    }
  }

  ScoreList out;
  out.reserve(scores.size() + 1);
  scores.ForEach([&](uint64_t key, const double& score) {
    const auto v = static_cast<NodeId>(key);
    if (v != u && score > 0) out.emplace_back(v, score);
  });
  out.emplace_back(u, 1.0);
  return out;
}

}  // namespace prsim
