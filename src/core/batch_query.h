// Parallel batch querying over any registry engine.
//
// Single-source queries are independent given an (immutable) index, so a
// batch parallelizes perfectly: one engine clone per static chunk, minted
// through CloneWithSeed (every index-based engine shares its immutable built
// index with clones via shared_ptr — PRSim's ShareIndexFrom fast path,
// generalized) with deterministic per-query seeds derived from the leader's
// seed and the query's position. The chunks run through ParallelFor on the
// shared ThreadPool, so sustained batch load pays queue pushes rather than
// thread churn.

#ifndef PRSIM_CORE_BATCH_QUERY_H_
#define PRSIM_CORE_BATCH_QUERY_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "core/single_source.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/percentiles.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace prsim {

namespace internal {
/// Deterministic per-query seed: depends only on (base seed, position), so
/// batch results are independent of the thread count and chunking. The
/// constant is the 64-bit golden-ratio increment.
inline uint64_t BatchQuerySeed(uint64_t base_seed, size_t position) {
  return base_seed ^ (0x9e3779b97f4a7c15ULL * (position + 1));
}
}  // namespace internal

/// Scores plus the batch-aggregated cost: summed QueryCost counters and
/// nearest-rank p50/p95/p99 over the per-query wall times.
struct BatchQueryResult {
  std::vector<ScoreList> scores;  ///< positionally aligned with `sources`
  QueryCost cost;
};

/// Answers one single-source query per entry of `sources`, using up to
/// `threads` static chunks (0 = DefaultThreadCount()) run by ParallelFor on
/// the shared ThreadPool. `leader` must be preprocessed; it is not modified.
/// One clone is minted per chunk (cloning is O(1) — the built index is
/// shared — but per-query cloning would still churn allocations), and
/// Reseed() makes each query a pure function of (leader seed, position), so
/// results are bit-identical across any `threads` value and any pool size.
/// An engine exception is rethrown here after every chunk has finished.
/// Per-query wall times land in `cost` as p50/p95/p99.
inline BatchQueryResult BatchQueryWithStats(const SingleSourceSimRank& leader,
                                            const std::vector<NodeId>& sources,
                                            size_t threads = 0) {
  BatchQueryResult result;
  if (sources.empty()) return result;
  if (threads == 0) threads = DefaultThreadCount();
  threads = std::min(threads, sources.size());
  const size_t chunk = (sources.size() + threads - 1) / threads;
  const size_t chunks = (sources.size() + chunk - 1) / chunk;

  result.scores.resize(sources.size());
  std::vector<double> latencies(sources.size());
  std::vector<QueryCost> chunk_costs(chunks);
  ParallelFor(
      0, chunks,
      [&](size_t c) {
        std::unique_ptr<SingleSourceSimRank> engine =
            leader.CloneWithSeed(leader.seed());
        PRSIM_CHECK(engine != nullptr)
            << leader.name() << " returned a null CloneWithSeed()";
        WallTimer timer;
        const size_t hi = std::min(sources.size(), (c + 1) * chunk);
        for (size_t i = c * chunk; i < hi; ++i) {
          engine->Reseed(internal::BatchQuerySeed(leader.seed(), i));
          timer.Restart();
          result.scores[i] = engine->Query(sources[i]);
          latencies[i] = timer.Seconds();
          chunk_costs[c].Accumulate(engine->last_query_cost());
        }
      },
      chunks);
  for (const QueryCost& c : chunk_costs) result.cost.Accumulate(c);
  std::sort(latencies.begin(), latencies.end());
  result.cost.latency_p50_seconds = SortedQuantile(latencies, 0.50);
  result.cost.latency_p95_seconds = SortedQuantile(latencies, 0.95);
  result.cost.latency_p99_seconds = SortedQuantile(latencies, 0.99);
  return result;
}

/// Scores-only convenience wrapper around BatchQueryWithStats.
inline std::vector<ScoreList> BatchQuery(const SingleSourceSimRank& leader,
                                         const std::vector<NodeId>& sources,
                                         size_t threads = 0) {
  return BatchQueryWithStats(leader, sources, threads).scores;
}

}  // namespace prsim

#endif  // PRSIM_CORE_BATCH_QUERY_H_
