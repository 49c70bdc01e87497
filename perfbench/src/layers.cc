#include "layers.h"

#include <utility>

#include "ppr/backward_search.h"
#include "ppr/backward_walk.h"
#include "ppr/reverse_pagerank.h"
#include "ppr/walker.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

const prsim::PRSim* AsPRSim(const prsim::SingleSourceSimRank& engine) {
  return dynamic_cast<const prsim::PRSim*>(&engine);
}

void AddIndexBreakdown(const prsim::Graph& graph, const prsim::PRSim& engine,
                       double c, double build_s, size_t threads, Json* out) {
  prsim::WallTimer timer;
  prsim::ReversePageRankOptions rpr_options;
  rpr_options.c = c;
  prsim::ComputeReversePageRank(graph, rpr_options);
  const double rpr_s = timer.Seconds();

  const prsim::PRSimIndex& index = engine.index();
  prsim::BackwardSearchOptions search;
  search.c = c;
  search.rmax = index.rmax();
  uint64_t tuples = 0;
  timer.Restart();
  for (const NodeId hub : index.hub_nodes()) {
    tuples += prsim::BackwardSearch(graph, hub, search).TupleCount();
  }
  const double search_s = timer.Seconds();
  out->Num("rpr_s", rpr_s)
      .Num("backward_search_s", search_s)
      .Int("backward_search_tuples", tuples)
      .Num("parallel_eff",
           (rpr_s + search_s) / (build_s * static_cast<double>(threads)));
}

void AddPhaseModel(const prsim::Graph& graph, const prsim::PRSim& engine,
                   double c, const std::vector<NodeId>& sources,
                   uint64_t seed, Json* out) {
  const prsim::PRSimIndex& index = engine.index();
  const prsim::Walker walker(graph, c);
  prsim::Rng rng(seed);

  // Phase 1: sqrt(c)-walks from the workload's sources.
  constexpr uint64_t kWalks = 200000;
  std::vector<prsim::WalkOutcome> walks(kWalks);
  prsim::WallTimer timer;
  for (uint64_t i = 0; i < kWalks; ++i) {
    walks[i] = walker.SampleWalk(sources[i % sources.size()], rng);
  }
  const double walk_s = timer.Seconds();

  // Phase 2: a meeting test at every terminal, as Query() runs one per
  // terminated walk; the non-meeting (terminal, level) pairs feed phases 3
  // and 4 exactly as in Query().
  std::vector<std::pair<NodeId, uint32_t>> tails;
  std::vector<std::pair<NodeId, uint32_t>> hub_pairs;
  uint64_t meets = 0;
  uint64_t met = 0;
  timer.Restart();
  for (const prsim::WalkOutcome& walk : walks) {
    if (!walk.terminated) continue;
    ++meets;
    if (walker.SamplePairMeets(walk.terminal, rng)) ++met;
  }
  const double meet_s = timer.Seconds();
  for (const prsim::WalkOutcome& walk : walks) {
    if (!walk.terminated) continue;
    (index.IsHub(walk.terminal) ? hub_pairs : tails)
        .emplace_back(walk.terminal, walk.steps);
  }

  // Phase 3: variance-bounded backward walks from the non-hub terminals,
  // capped at half a second.
  prsim::BackwardWalker backward(graph, c);
  double sink = 0;
  uint64_t increments = 0;
  uint64_t backward_walks = 0;
  timer.Restart();
  for (const auto& [w, level] : tails) {
    increments += backward.RunVarianceBounded(
        w, level, rng, [&sink](NodeId, double value) { sink += value; });
    ++backward_walks;
    if ((backward_walks & 63) == 0 && timer.Seconds() > 0.5) break;
  }
  const double backward_s = timer.Seconds();

  // Phase 4: hub reserve-list lookups and scans at the hub terminals'
  // levels; when walks reach no stored list, every stored list is scanned.
  std::vector<std::pair<NodeId, uint32_t>> lists;
  for (const auto& pair : hub_pairs) {
    if (index.Find(pair.first, pair.second) != nullptr) lists.push_back(pair);
  }
  if (lists.empty()) {
    for (const NodeId hub : index.hub_nodes()) {
      for (uint32_t level = 0; level < prsim::kMaxWalkLevel; ++level) {
        if (index.Find(hub, level) != nullptr) lists.emplace_back(hub, level);
      }
    }
  }
  uint64_t tuples = 0;
  timer.Restart();
  while (!lists.empty() && tuples < 2000000 && timer.Seconds() < 0.3) {
    for (const auto& [w, level] : lists) {
      const auto* reserves = index.Find(w, level);
      if (reserves == nullptr) continue;
      for (const auto& [v, psi] : *reserves) {
        sink += static_cast<double>(psi) * static_cast<double>(v & 1);
      }
      tuples += reserves->size();
    }
  }
  const double tuple_s = timer.Seconds();

  const auto per_ns = [](double seconds, uint64_t count) {
    return count == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(count);
  };
  out->Num("walk_ns", per_ns(walk_s, kWalks))
      .Num("meet_ns", per_ns(meet_s, meets))
      .Num("backward_increment_ns", per_ns(backward_s, increments))
      .Num("tuple_ns", per_ns(tuple_s, tuples))
      .Int("micro_walks", kWalks)
      .Int("micro_meets", meets)
      .Int("micro_met", met)
      .Int("micro_backward_walks", backward_walks)
      .Int("micro_backward_increments", increments)
      .Int("micro_tuples", tuples)
      .Num("micro_sink", sink);
}

}  // namespace perfbench
