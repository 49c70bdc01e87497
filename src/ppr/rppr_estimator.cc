#include "ppr/rppr_estimator.h"

#include <algorithm>
#include <cmath>

#include "ppr/walker.h"
#include "util/flat_hash_map2.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/sample_grid.h"

namespace prsim {

/// Pooled scratch, mirroring PRSim::QueryWorkspace: one slot per static
/// sample chunk plus the merge-pass accumulators, all reused across calls.
struct RpprEstimator::Workspace {
  struct Chunk {
    Chunk(const Graph& graph, double c) : backward(graph, c) {}
    /// Partial per-node sums of this chunk's round (values / dr). The merge
    /// iterates them in insertion order (FlatHashMap2::ForEach), so the
    /// output never depends on capacity retained from earlier estimates
    /// (see PRSim::QueryWorkspace).
    FlatHashMap2<double> acc{256};
    BackwardWalker backward;
    Rng rng{0};
    uint64_t increments = 0;
  };

  Workspace(const Graph& graph, double c, uint32_t rounds,
            uint64_t samples_per_round)
      : tasks(BuildSampleChunks(rounds, samples_per_round)) {
    chunks.reserve(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) chunks.emplace_back(graph, c);
  }

  std::vector<SampleChunk> tasks;
  std::vector<Chunk> chunks;

  RoundColumns columns;  ///< per-(node, round) sums + median reduce
};

RpprEstimator::RpprEstimator(const Graph& graph,
                             const RpprEstimatorOptions& options)
    : graph_(graph), options_(options) {
  PRSIM_CHECK(options_.eps > 0);
  PRSIM_CHECK(options_.delta > 0 && options_.delta < 1);
  dr_ = static_cast<uint64_t>(
      std::ceil(options_.alpha / (options_.eps * options_.eps)));
  dr_ = std::max<uint64_t>(dr_, 1);
  const double n = std::max<double>(graph_.n(), 2);
  fr_ = options_.rounds > 0
            ? options_.rounds
            : static_cast<uint32_t>(
                  std::ceil(3.0 * std::log(n / options_.delta)));
  fr_ |= 1;
  // Levels beyond L contribute at most sqrt(c)^L < eps/4 in aggregate.
  const double sqrt_c = std::sqrt(options_.c);
  max_level_ = static_cast<uint32_t>(
      std::ceil(std::log(options_.eps / 4.0) / std::log(sqrt_c)));
  max_level_ = std::min(max_level_, kMaxWalkLevel);
}

RpprEstimator::~RpprEstimator() = default;

template <typename Sample>
RpprEstimate RpprEstimator::MedianOfMeans(uint64_t stream, Sample&& sample) {
  if (workspace_ == nullptr) {
    workspace_ = std::make_unique<Workspace>(graph_, options_.c, fr_, dr_);
  }
  Workspace& ws = *workspace_;
  const double inv_dr = 1.0 / static_cast<double>(dr_);

  // Phase 1: static chunks, one positional RNG substream each (the same
  // discipline as PRSim::Query — see util/sample_grid.h).
  const auto run_chunk = [&](size_t i) {
    const SampleChunk& task = ws.tasks[i];
    Workspace::Chunk& chunk = ws.chunks[i];
    chunk.acc.clear();
    chunk.increments = 0;
    chunk.rng.Reseed(SampleChunkSeed(options_.seed, stream, task, dr_));
    for (uint64_t j = task.j_lo; j < task.j_hi; ++j) {
      sample(chunk, [&](NodeId v, double value) {
        chunk.acc[v] += value * inv_dr;
      });
    }
  };
  ParallelFor(0, ws.tasks.size(), run_chunk, options_.threads);

  // Phase 2: fixed-order merge of chunk partials into per-round columns,
  // then the median-of-rounds reduce (shared with PRSim's tail part).
  RpprEstimate out;
  ws.columns.Reset(fr_);
  for (size_t i = 0; i < ws.tasks.size(); ++i) {
    const uint32_t round = ws.tasks[i].round;
    const Workspace::Chunk& chunk = ws.chunks[i];
    out.total_walk_increments += chunk.increments;
    chunk.acc.ForEach(
        [&](uint64_t v, double partial) { ws.columns.Add(v, round, partial); });
  }

  out.values.reserve(ws.columns.key_count());
  ws.columns.ForEachMedian([&](uint64_t key, double median) {
    if (median > 0) out.values.emplace_back(static_cast<NodeId>(key), median);
  });
  return out;
}

RpprEstimate RpprEstimator::EstimateLevel(NodeId w, uint32_t level) {
  PRSIM_CHECK(w < graph_.n());
  // Guards the substream disjointness below: kMaxWalkLevel + 1 is reserved
  // as the aggregate stream tag (and walks are capped there anyway).
  PRSIM_CHECK(level <= kMaxWalkLevel) << "level exceeds kMaxWalkLevel";
  return MedianOfMeans(
      PackNodeLevel(w, level), [&](Workspace::Chunk& chunk, auto&& emit) {
        chunk.increments +=
            chunk.backward.RunVarianceBounded(w, level, chunk.rng, emit);
      });
}

RpprEstimate RpprEstimator::EstimateAggregate(NodeId w) {
  PRSIM_CHECK(w < graph_.n());
  // The aggregate stream uses a level tag no EstimateLevel call can produce
  // (levels are capped at kMaxWalkLevel), keeping the two substream
  // families disjoint for the same target.
  return MedianOfMeans(
      PackNodeLevel(w, kMaxWalkLevel + 1),
      [&](Workspace::Chunk& chunk, auto&& emit) {
        // One variance-bounded walk per level; the per-sample aggregate is
        // the sum of unbiased level estimates, itself unbiased for pi(v, w)
        // up to the truncated < eps/4 tail.
        for (uint32_t level = 0; level <= max_level_; ++level) {
          chunk.increments +=
              chunk.backward.RunVarianceBounded(w, level, chunk.rng, emit);
        }
      });
}

}  // namespace prsim
