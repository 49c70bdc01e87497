// Common interface for single-source SimRank algorithms.
//
// PRSim and every baseline implement this interface so the evaluation harness
// (pooling, parameter sweeps, figure benches), the engine registry, and the
// batch layer can treat them uniformly.

#ifndef PRSIM_CORE_SINGLE_SOURCE_H_
#define PRSIM_CORE_SINGLE_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace prsim {

/// Sparse single-source result: (node, estimated SimRank) pairs. Entries with
/// estimate 0 are omitted; the source node itself is included with score 1.
using ScoreEntry = std::pair<NodeId, double>;
using ScoreList = std::vector<ScoreEntry>;

/// Uniform per-query cost counters, refreshed by each Query() call. Every
/// engine fills in the counters that apply to it (an index-free sampler
/// leaves `index_tuples_read` at 0, a deterministic index join leaves
/// `walks` at 0); zero simply means "this engine does no such work".
struct QueryCost {
  uint64_t walks = 0;               ///< forward random walks sampled
  uint64_t meeting_tests = 0;       ///< pair-walk meeting trials
  uint64_t backward_walks = 0;      ///< backward walk / probe invocations
  uint64_t backward_increments = 0; ///< estimator increments inside those
  uint64_t index_tuples_read = 0;   ///< tuples merged from a prebuilt index
  /// Latency percentiles over a *batch* of queries, filled by the aggregate
  /// paths (BatchQueryWithStats, QueryService::Stats); single Query() calls
  /// leave them 0. Always monotone: p50 <= p95 <= p99.
  double latency_p50_seconds = 0;
  double latency_p95_seconds = 0;
  double latency_p99_seconds = 0;

  /// Adds another query's counters into this aggregate (latency percentiles
  /// are not summable and stay untouched — the owner of the sample set
  /// fills them).
  void Accumulate(const QueryCost& other) {
    walks += other.walks;
    meeting_tests += other.meeting_tests;
    backward_walks += other.backward_walks;
    backward_increments += other.backward_increments;
    index_tuples_read += other.index_tuples_read;
  }

  bool operator==(const QueryCost&) const = default;
};

/// \brief Abstract single-source SimRank solver.
///
/// Lifecycle: construct over a Graph, call Preprocess() once (may be a no-op
/// for index-free methods), then Query() any number of times. Implementations
/// own per-query scratch, so one instance must not be queried concurrently;
/// CloneWithSeed() mints an independently seeded sibling for that.
class SingleSourceSimRank {
 public:
  virtual ~SingleSourceSimRank() = default;

  /// Short identifier used in bench output ("PRSim", "ProbeSim", ...).
  virtual std::string name() const = 0;

  /// Number of nodes in the underlying graph; query nodes must be < this.
  virtual NodeId node_count() const = 0;

  /// Builds any index structures. Returns an error if the configuration is
  /// infeasible (e.g. the index would exceed a configured memory budget).
  virtual Status Preprocess() { return Status::OK(); }

  /// Estimates s(u, v) for all v; returns the non-zero estimates.
  virtual ScoreList Query(NodeId u) = 0;

  /// Top-k most similar nodes to u (excluding u itself), sorted descending
  /// by score with ties broken by ascending node id. The default evaluates
  /// the full single-source query; pruned engines may override with a
  /// cheaper direct top-k path.
  virtual ScoreList QueryTopK(NodeId u, size_t k);

  /// Estimates the single pair s(u, v). The default extracts it from a full
  /// single-source query; engines with a native pair estimator (Monte Carlo
  /// pair walks, the exact power-method matrix) override it.
  virtual double QueryPair(NodeId u, NodeId v);

  /// Returns an independently seeded engine over the same graph and options
  /// that shares (or copies) any already built index, so the clone answers
  /// queries without re-running Preprocess(). Used by BatchQuery to fan one
  /// leader out across worker threads.
  virtual std::unique_ptr<SingleSourceSimRank> CloneWithSeed(
      uint64_t seed) const = 0;

  /// The seed this engine was configured with (0 for deterministic engines).
  virtual uint64_t seed() const { return 0; }

  /// Resets the query-time random state as if the engine had been
  /// constructed with `seed` (a no-op for engines whose queries are
  /// deterministic). Lets BatchQuery reuse one clone per worker while
  /// keeping every query a pure function of (seed, source).
  virtual void Reseed(uint64_t seed) { (void)seed; }

  /// Bytes held by index structures (0 for index-free methods).
  virtual size_t IndexBytes() const { return 0; }

  virtual bool IsIndexBased() const { return false; }

  /// Serializes the built index to a versioned artifact at `path`, embedding
  /// a fingerprint of the graph and of every index-shaping option. Requires
  /// a completed Preprocess()/LoadIndex(); engines without a persistent
  /// index (including index-free methods) return kUnimplemented.
  virtual Status SaveIndex(const std::string& path) const {
    (void)path;
    return Status::Unimplemented(name() + " has no persistent index");
  }

  /// Installs the index from an artifact previously written by SaveIndex()
  /// against the same graph and options, replacing Preprocess(). Fails with
  /// kInvalidArgument when the artifact's fingerprint does not match this
  /// engine's graph or options, kIOError on corruption, and kUnimplemented
  /// for engines without a persistent index. After a successful load the
  /// engine answers queries exactly as a freshly preprocessed instance with
  /// the same seed would.
  virtual Status LoadIndex(const std::string& path) {
    (void)path;
    return Status::Unimplemented(name() + " has no persistent index");
  }

  /// Cost counters of the most recent Query() call.
  const QueryCost& last_query_cost() const { return cost_; }

 protected:
  QueryCost cost_;
};

/// Returns the k entries with the largest scores (ties by ascending node id),
/// sorted descending by score. The source node (score 1) is excluded, since
/// top-k evaluation asks for the most similar *other* nodes. One pass keeps
/// the best k seen so far in a heap whose top is the worst of them, so the
/// cost is O(size log k) with no copy of the list; the order (score desc,
/// id asc) is strict, so the result does not depend on how it is selected.
inline ScoreList TopK(const ScoreList& scores, size_t k, NodeId source) {
  const auto ranks_before = [](const ScoreEntry& a, const ScoreEntry& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  ScoreList best;
  if (k == 0) return best;
  best.reserve(std::min(k, scores.size()));
  auto it = scores.begin();
  for (; it != scores.end() && best.size() < k; ++it) {
    if (it->first == source) continue;
    best.push_back(*it);
    std::push_heap(best.begin(), best.end(), ranks_before);
  }
  if (it != scores.end()) {
    // The heap is full. Most entries of a long list score below the worst
    // kept one, and the first compare turns them away.
    ScoreEntry worst = best.front();
    for (; it != scores.end(); ++it) {
      if (it->second < worst.second || it->first == source ||
          !ranks_before(*it, worst)) {
        continue;
      }
      std::pop_heap(best.begin(), best.end(), ranks_before);
      best.back() = *it;
      std::push_heap(best.begin(), best.end(), ranks_before);
      worst = best.front();
    }
  }
  std::sort_heap(best.begin(), best.end(), ranks_before);
  return best;
}

/// Looks up a node's score in a ScoreList (0 if absent).
inline double ScoreOf(const ScoreList& scores, NodeId v) {
  for (const auto& [node, score] : scores) {
    if (node == v) return score;
  }
  return 0.0;
}

inline ScoreList SingleSourceSimRank::QueryTopK(NodeId u, size_t k) {
  return TopK(Query(u), k, u);
}

inline double SingleSourceSimRank::QueryPair(NodeId u, NodeId v) {
  PRSIM_CHECK(u < node_count() && v < node_count())
      << "pair (" << u << ", " << v << ") out of range";
  if (u == v) return 1.0;
  return ScoreOf(Query(u), v);
}

}  // namespace prsim

#endif  // PRSIM_CORE_SINGLE_SOURCE_H_
