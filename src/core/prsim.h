// PRSim single-source SimRank (paper Algorithm 4).
//
// Query sketch for source u:
//   1. Sample nr = dr * fr sqrt(c)-walks from u. A walk terminating at (w, l)
//      triggers one meeting test (two walks from w); if they do not meet, the
//      sample contributes 1/nr to the estimator of eta(w) * pi_l(u, w).
//   2. For non-hub w, the same non-meeting sample also runs a variance-
//      bounded backward walk (Algorithm 3) to level l, contributing
//      pi_hat_l(v, w) / ((1-sqrt_c)^2 dr) to the round's tail estimate
//      s_hat_B^i(u, v). The median over fr rounds converts the Chebyshev
//      bound of Lemma 3.5 into a high-probability guarantee (Lemma 3.7).
//   3. For hub w, the (w, l) pairs whose eta-pi estimate exceeds eps/c1 are
//      resolved against the precomputed reserve lists L_l(w):
//      s_hat_I(u, v) += eta_pi_hat_l(u, w) * psi_l(v, w) / (1-sqrt_c)^2.
//
// Constants: `paper_constants = true` uses c1 = 12/(1-sqrt_c)^2,
// dr = c1/eps^2, fr = 3 ln(n/delta) exactly as in the proofs — the mode the
// accuracy tests validate. The default practical mode uses dr = alpha/eps^2,
// fr = 7, mirroring how released SimRank implementations drop the
// union-bound constant; Figure 2/3 benches sweep eps in this mode.
//
// Execution model: the (round, j) sample grid is split into static chunks
// (util/sample_grid.h) executed on the shared ThreadPool, each chunk drawing
// from its own positionally seeded RNG substream and accumulating into a
// pooled per-chunk workspace; chunk partials are merged in fixed grid order.
// Each worker runs its contiguous range of chunks as up to kSampleLanes
// interleaved lanes (RunInterleaved): a lane steps its chunk's current
// sample — the sqrt(c)-walk, the meeting test, the backward walk — through
// the resumable cursors of ppr/walker.h and ppr/backward_walk.h, and at
// every graph-row access it prefetches the row and yields to the next lane,
// so several cache misses are in flight instead of one. Graphs small enough
// to stay in cache run one lane per worker (SampleLaneWidth), where
// switching lanes would only cost time. A chunk's draws and partials do not
// depend on which lane runs it or how lanes interleave, so scores are a
// pure function of (seed, source) — bit-identical for any thread count and
// lane width — and steady-state queries perform no per-walk allocation (the
// workspace, including the lanes and each chunk's BackwardWalker scratch,
// is reused across queries with retained capacity). The merge reads every
// chunk map in insertion order (FlatHashMap2::ForEach), and the scores
// accumulate through a node-indexed slot array (one uint32_t per node,
// allocated with the workspace) into first-touch vectors: emission walks
// those vectors and zeroes the slots it touched, so the per-query result
// path costs O(touched nodes) with no hash map. Note the chunked RNG
// discipline means scores differ from the pre-chunking serial
// implementation for the same seed; the statistical guarantees are
// unchanged.

#ifndef PRSIM_CORE_PRSIM_H_
#define PRSIM_CORE_PRSIM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/prsim_index.h"
#include "core/single_source.h"
#include "graph/graph.h"
#include "ppr/backward_walk.h"
#include "ppr/walker.h"
#include "util/rng.h"

namespace prsim {

struct PRSimOptions {
  double c = 0.6;      ///< SimRank decay factor
  double eps = 0.1;    ///< additive error target
  double delta = 1e-4; ///< failure probability
  /// Hub count; 0 = sqrt(n) (experimental default of Section 5).
  uint32_t j0 = 0;
  /// Use the exact constants of Algorithms 1/4 (see header comment).
  bool paper_constants = false;
  /// Practical-mode samples-per-round scale: dr = alpha / eps^2.
  double alpha = 3.0;
  /// Practical-mode round count for the median trick (forced odd).
  uint32_t rounds = 7;
  uint32_t max_level = 64;
  /// Worker threads for index construction AND for the intra-query sample
  /// grid (0 = DefaultThreadCount(), which honors PRSIM_THREADS). Query
  /// scores never depend on this value — see the header comment.
  size_t threads = 0;
  uint64_t seed = 42;
};

class PRSim : public SingleSourceSimRank {
 public:
  PRSim(const Graph& graph, const PRSimOptions& options);
  ~PRSim() override;

  std::string name() const override { return "PRSim"; }
  NodeId node_count() const override { return graph_.n(); }

  /// Builds the hub index (Algorithm 1). Must be called before Query.
  Status Preprocess() override;

  /// Persists the built hub index as a fingerprinted artifact (see
  /// PRSimIndexIO); the fingerprint covers the graph and the index-shaping
  /// options (c, eps, j0, max_level).
  Status SaveIndex(const std::string& path) const override;

  /// Loads a SaveIndex() artifact instead of running Preprocess(); queries
  /// afterwards match a freshly preprocessed engine with the same seed
  /// bit-for-bit (index construction never draws from the query RNG).
  Status LoadIndex(const std::string& path) override;

  /// Shares another engine's (immutable) index. Queries are stateful per
  /// engine (each owns a pooled query workspace), so concurrent querying
  /// uses one PRSim per thread, all sharing one index:
  ///   PRSim worker(graph, options_with_distinct_seed);
  ///   worker.ShareIndexFrom(leader);
  void ShareIndexFrom(const PRSim& other) {
    PRSIM_CHECK(other.index_ != nullptr) << "source engine has no index";
    index_ = other.index_;
  }

  /// Algorithm 4. Returns sparse non-zero estimates including (u, 1).
  /// Parallel over the sample grid (options.threads workers) unless called
  /// from a pool worker, where it degrades to serial chunk execution with
  /// bit-identical results. Pure function of (seed, u).
  ScoreList Query(NodeId u) override;

  /// Query() with the sample grid's lane width as an argument instead of
  /// the one SampleLaneWidth picks for the graph: each worker keeps up to
  /// `lane_width` chunks in flight. Results, costs and chunk partials are
  /// the same at every width; tests use this to check that.
  ScoreList QueryAtLaneWidth(NodeId u, size_t lane_width);

  /// Independently seeded engine sharing this engine's (immutable) index —
  /// the ShareIndexFrom fast path, packaged for the generic BatchQuery.
  /// The clone starts with an empty workspace of its own.
  std::unique_ptr<SingleSourceSimRank> CloneWithSeed(
      uint64_t seed) const override {
    PRSimOptions options = options_;
    options.seed = seed;
    auto clone = std::make_unique<PRSim>(graph_, options);
    clone->index_ = index_;
    return clone;
  }
  uint64_t seed() const override { return options_.seed; }
  void Reseed(uint64_t seed) override { options_.seed = seed; }

  size_t IndexBytes() const override;
  bool IsIndexBased() const override { return true; }

  const PRSimIndex& index() const { return *index_; }
  bool preprocessed() const { return index_ != nullptr; }

  /// Number of samples per round / rounds the current options resolve to.
  uint64_t samples_per_round() const { return dr_; }
  uint32_t rounds() const { return fr_; }

  /// Capacity snapshot of the pooled query workspace. The workspace-reuse
  /// contract: repeating a query must leave the snapshot unchanged (no map
  /// regrowth, no buffer reallocation). Zeros before the first Query().
  struct WorkspaceSnapshot {
    size_t chunk_count = 0;       ///< static sample-grid chunks
    size_t lane_count = 0;        ///< pooled interleaving lanes
    size_t map_capacity = 0;      ///< summed FlatHashMap slot capacities
    size_t buffer_capacity = 0;   ///< summed vector capacities (elements)
    bool operator==(const WorkspaceSnapshot&) const = default;
  };
  WorkspaceSnapshot SnapshotWorkspace() const;

  /// The last query's per-chunk partials, in grid order: eta-pi sample
  /// counts and tail partials in insertion order, and the chunk's costs.
  /// Empty before the first Query().
  struct ChunkPartial {
    std::vector<std::pair<uint64_t, uint64_t>> eta_pi;
    std::vector<std::pair<NodeId, double>> tail;
    QueryCost cost;
    bool operator==(const ChunkPartial&) const = default;
  };
  std::vector<ChunkPartial> SnapshotChunkPartials() const;

 private:
  struct QueryWorkspace;

  /// The PRSimIndexOptions this engine's options resolve to (the mapping
  /// Preprocess, SaveIndex, and LoadIndex all share).
  PRSimIndexOptions IndexOptions() const;

  const Graph& graph_;
  PRSimOptions options_;
  Walker walker_;
  /// Chunks each worker interleaves (util/sample_grid.h SampleLaneWidth).
  size_t lane_width_;
  std::shared_ptr<const PRSimIndex> index_;
  /// Pooled scratch for Query(), built lazily on first use (its shape
  /// depends only on fr_/dr_) and reused across queries.
  std::unique_ptr<QueryWorkspace> workspace_;

  double sqrt_c_ = 0;
  double inv_term_sq_ = 0;  // 1 / (1 - sqrt_c)^2
  double c1_ = 0;           // 12 / (1 - sqrt_c)^2
  uint64_t dr_ = 0;
  uint32_t fr_ = 0;
};

}  // namespace prsim

#endif  // PRSIM_CORE_PRSIM_H_
