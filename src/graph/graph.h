// Immutable directed graph in compressed-sparse-row form.
//
// This is the storage substrate every algorithm in the library runs on. Both
// adjacency directions are materialized:
//
//  * in-adjacency  — consumed by sqrt(c)-walks, which move to uniformly
//    random in-neighbors;
//  * out-adjacency — consumed by backward search / backward walks, which push
//    mass from a node to its out-neighbors.
//
// Following PRSim's preprocessing (Algorithm 1, lines 1-4), the out-adjacency
// list of every node is ordered by ascending in-degree of the target, built
// with a single counting sort over all edges in O(n + m). The variance-bounded
// backward walk (Algorithm 3) depends on this ordering: it scans a prefix of
// O(x) up to an in-degree threshold instead of the whole list. A parallel
// array stores each out-target's in-degree so the scan is branch-predictable
// and never dereferences the degree array.

#ifndef PRSIM_GRAPH_GRAPH_H_
#define PRSIM_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/pod_array.h"
#include "util/status.h"

namespace prsim {

using NodeId = uint32_t;

/// A directed edge (source, target).
using Edge = std::pair<NodeId, NodeId>;

class Graph {
 public:
  Graph() = default;

  /// Builds a graph with nodes [0, n) from an edge list.
  ///
  /// Duplicate edges and self-loops are kept as given; use GraphBuilder for
  /// canonicalization policies. Fails if any endpoint is >= n.
  static Result<Graph> FromEdges(NodeId n, const std::vector<Edge>& edges);

  NodeId n() const { return n_; }
  uint64_t m() const { return static_cast<uint64_t>(out_adj_.size()); }

  uint32_t OutDegree(NodeId v) const {
    return static_cast<uint32_t>(out_off_[v + 1] - out_off_[v]);
  }
  uint32_t InDegree(NodeId v) const { return in_degree_[v]; }

  /// Average degree m/n.
  double AverageDegree() const {
    return n_ == 0 ? 0.0 : static_cast<double>(m()) / n_;
  }

  /// Out-neighbors of v, ordered by ascending in-degree of the target.
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {out_adj_.data() + out_off_[v],
            out_adj_.data() + out_off_[v + 1]};
  }

  /// In-degrees of the out-neighbors of v, parallel to OutNeighbors(v);
  /// non-decreasing by construction.
  std::span<const uint32_t> OutNeighborInDegrees(NodeId v) const {
    return {out_tgt_in_degree_.data() + out_off_[v],
            out_tgt_in_degree_.data() + out_off_[v + 1]};
  }

  /// In-neighbors of v (unordered).
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_adj_.data() + in_off_[v], in_adj_.data() + in_off_[v + 1]};
  }

  /// Uniformly random in-neighbor accessor: the idx-th in-neighbor of v.
  NodeId InNeighborAt(NodeId v, uint32_t idx) const {
    return in_adj_[in_off_[v] + idx];
  }

  /// Cache hints for the walk cursors of ppr/walker.h and
  /// ppr/backward_walk.h: warm the offsets of v's in-row (InNeighbors) or
  /// out-row (OutNeighbors, OutNeighborInDegrees) so that a later access
  /// does not stall. They read nothing and change nothing.
  void PrefetchInRow(NodeId v) const { __builtin_prefetch(in_off_.data() + v); }
  void PrefetchOutRow(NodeId v) const {
    __builtin_prefetch(out_off_.data() + v);
  }

  /// Number of nodes with no in-neighbors ("dangling" for sqrt(c)-walks).
  NodeId CountDanglingNodes() const;

  /// Materializes the full edge list (source, target), grouped by source.
  std::vector<Edge> ToEdges() const;

  /// Heap bytes held by adjacency structures.
  size_t MemoryBytes() const;

  /// FNV-1a over n and the out-CSR arrays, in O(n + m). Artifact
  /// fingerprints embed this so an index saved against one graph cannot be
  /// loaded against a different graph of the same size. The in-adjacency is
  /// derived from the same edge multiset and is not hashed separately.
  uint64_t Checksum() const;

  /// Invariant checker used by tests and the binary loader: offsets are
  /// monotone, adjacency ids are in range, the in-degree ordering of
  /// out-adjacency holds, and both directions describe the same edge multiset.
  Status Validate() const;

 private:
  friend class GraphIO;

  // CSR arrays are PodArrays: owned vectors when built in memory, zero-copy
  // views into an mmap'd format-v2 snapshot when loaded by GraphIO.
  NodeId n_ = 0;
  PodArray<uint64_t> out_off_;            // size n+1
  PodArray<NodeId> out_adj_;              // size m, sorted by target in-deg
  PodArray<uint32_t> out_tgt_in_degree_;  // size m, parallel to out_adj_
  PodArray<uint64_t> in_off_;             // size n+1
  PodArray<NodeId> in_adj_;               // size m
  PodArray<uint32_t> in_degree_;          // size n
};

}  // namespace prsim

#endif  // PRSIM_GRAPH_GRAPH_H_
