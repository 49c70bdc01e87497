// TSF (Shao et al. [30]): two-stage random-walk sampling with one-way graphs.
//
// Index: Rg "one-way graphs", each storing one uniformly sampled in-neighbor
// (parent) per node. Within one one-way graph, every node's reverse walk is
// the deterministic parent chain, so a single structure simultaneously
// encodes a coupled walk sample for all n nodes.
//
// Query: for each one-way graph, sample Rq fresh reverse walks from u on the
// original graph; node v scores c^i whenever v's parent chain and u's fresh
// walk coincide at step i. Per the paper's observation, TSF allows *repeated*
// meetings along a pair of walks (and assumes walks are acyclic), so its
// estimates systematically overestimate SimRank — visible in the accuracy
// benches. Meetings are enumerated output-sensitively by descending the
// child-lists of the one-way graph i levels below u's step-i position.

#ifndef PRSIM_BASELINES_TSF_H_
#define PRSIM_BASELINES_TSF_H_

#include <cstdint>
#include <vector>

#include "core/single_source.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace prsim {

struct TsfOptions {
  double c = 0.6;
  uint32_t rg = 300;  ///< one-way graphs in the index (paper default 300)
  uint32_t rq = 40;   ///< fresh walks per one-way graph (paper default 40)
  uint32_t depth = 10;  ///< walk truncation depth t
  /// Abort preprocessing above this many stored parent pointers.
  uint64_t max_index_entries = 400000000;
  uint64_t seed = 17;
};

class Tsf : public SingleSourceSimRank {
 public:
  Tsf(const Graph& graph, const TsfOptions& options);

  std::string name() const override { return "TSF"; }
  NodeId node_count() const override { return graph_.n(); }

  Status Preprocess() override;
  ScoreList Query(NodeId u) override;

  /// Persists the one-way-graph parent pointers as a fingerprinted
  /// artifact. The options hash includes the seed: the parents are a
  /// sample, so indexes from different seeds are different indexes.
  Status SaveIndex(const std::string& path) const override;
  Status LoadIndex(const std::string& path) override;

  /// The clone shares the immutable one-way-graph index in O(1) and starts
  /// the query stream for `seed`, so its first query matches Reseed(seed)
  /// on any instance (query scratch is rebuilt per query).
  std::unique_ptr<SingleSourceSimRank> CloneWithSeed(
      uint64_t seed) const override {
    TsfOptions options = options_;
    options.seed = seed;
    auto clone = std::make_unique<Tsf>(graph_, options);
    clone->parents_ = parents_;
    clone->StartQueryStream();
    return clone;
  }
  uint64_t seed() const override { return options_.seed; }
  /// Honors the interface contract exactly: the query stream restarts as a
  /// fresh engine's would (Preprocess() and LoadIndex() both end in
  /// StartQueryStream()), so Reseed(seed()) replays the first query of a
  /// freshly constructed instance.
  void Reseed(uint64_t seed) override {
    options_.seed = seed;
    StartQueryStream();
  }

  size_t IndexBytes() const override;
  bool IsIndexBased() const override { return true; }

 private:
  static constexpr NodeId kNoParent = ~static_cast<NodeId>(0);

  uint64_t OptionsHash() const;

  /// Resets rng_ to the query stream for options_.seed. Both Preprocess()
  /// (which consumes build draws from rng_) and LoadIndex() (which consumes
  /// none) end by calling this, so a loaded index answers queries exactly
  /// like a freshly built one under the same seed.
  void StartQueryStream();

  const Graph& graph_;
  TsfOptions options_;
  Rng rng_;

  /// (*parents_)[g * n + v] = sampled in-neighbor of v in one-way graph g.
  /// Immutable once built, shared across clones.
  std::shared_ptr<const std::vector<NodeId>> parents_;

  // Scratch reused across queries: child CSR of one one-way graph.
  std::vector<uint32_t> child_off_;
  std::vector<NodeId> child_adj_;
  std::vector<NodeId> frontier_, frontier_next_;
};

}  // namespace prsim

#endif  // PRSIM_BASELINES_TSF_H_
