// Randomized backward walks: paper Algorithms 2 and 3.
//
// Both algorithms produce unbiased estimators pi_hat_l(v, w) of the l-hop
// reverse personalized PageRank *to* a target node w, for every v, in
// O(n * pi(w)) expected time — the output-sensitive optimum. They exploit the
// in-degree-ordered out-adjacency of Graph: at each node x only the prefix of
// O(x) whose in-degree is below a (randomized) threshold is visited, which is
// how the cost avoids the full-neighborhood scans of ProbeSim's Probe.
//
//  * SimpleBackwardWalk (Algorithm 2) is unbiased but its estimator variance
//    is unbounded (see the star-gadget example in Section 3.4).
//  * VarianceBoundedBackwardWalk (Algorithm 3) additionally guarantees
//    Var[pi_hat_l(v, w)] <= pi_l(v, w) (Lemma 3.5), which is what lets PRSim
//    apply Chebyshev + the median trick.
//
// Both run on one resumable step. Start() places the walk at w; Resume()
// expands frontier nodes until the next one needs its out-row, prefetches
// that row (first its offsets, then its targets and their in-degrees) and
// returns kPending, so a caller holding several walks (PRSim's sample-grid
// lanes, see ppr/walker.h) can step the others while the cache line
// arrives; after kDone, Finish() emits the estimates. A walk consumes
// exactly its own draws, in order, from the Rng it is resumed with, so its
// output does not depend on how it was interleaved with other walks.
//
// The run-to-completion API (the same step with kYield = false) emits
// (node, estimate) pairs into a caller-provided sink, so the per-walk hot
// path performs no allocation: query engines accumulate straight into
// their pooled workspace maps. The vector-returning overloads remain for
// tests and the ablation bench, which want materialized results.
//
// A frontier is a vector of (node, estimate) entries in insertion order.
// Most walks touch only a few nodes, so duplicates are found by a linear
// scan while the next frontier holds at most kFrontierScanLimit entries,
// and through a position index once it outgrows that.

#ifndef PRSIM_PPR_BACKWARD_WALK_H_
#define PRSIM_PPR_BACKWARD_WALK_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "ppr/walker.h"
#include "util/flat_hash_map2.h"
#include "util/rng.h"

namespace prsim {

/// Materialized walk output (the allocating convenience form): sparse
/// estimates at the target level plus cost accounting.
struct BackwardWalkResult {
  /// Non-zero pi_hat_target_level(v, w) entries.
  std::vector<std::pair<NodeId, double>> estimates;
  /// Number of estimator increments performed (the quantity bounded by
  /// O(n pi(w) / (1 - sqrt_c)) in Lemma 3.4).
  uint64_t increments = 0;
};

/// \brief Reusable backward-walk engine (scratch maps are recycled between
/// calls; not thread-safe — use one engine per thread).
class BackwardWalker {
 public:
  BackwardWalker(const Graph& graph, double c);

  /// Algorithm 2. Unbiased, unbounded variance; kept for the ablation bench
  /// and as a correctness cross-check. Emits every non-zero
  /// pi_hat_target_level(v, w) as sink(v, estimate); returns the increment
  /// count. No allocation beyond growing the recycled scratch maps.
  template <typename Sink>
  uint64_t RunSimple(NodeId w, uint32_t target_level, Rng& rng, Sink&& sink) {
    Start(w, target_level, /*variance_bounded=*/false);
    Resume</*kYield=*/false>(rng);
    return Finish(sink);
  }

  /// Algorithm 3. Unbiased with Var[pi_hat] <= pi_l(v, w); same sink
  /// contract as RunSimple.
  template <typename Sink>
  uint64_t RunVarianceBounded(NodeId w, uint32_t target_level, Rng& rng,
                              Sink&& sink) {
    Start(w, target_level, /*variance_bounded=*/true);
    Resume</*kYield=*/false>(rng);
    return Finish(sink);
  }

  /// Resumable form (see the header comment): starts a walk of Algorithm 3
  /// (`variance_bounded`) or 2 from w to `target_level`. Draws nothing.
  void Start(NodeId w, uint32_t target_level, bool variance_bounded) {
    ResetScratch();
    cur_.push_back({w, term_});  // pi_hat_0(w, w) = 1 - sqrt_c
    target_level_ = target_level;
    variance_bounded_ = variance_bounded;
    level_ = 0;
    increments_ = 1;
    stage_ = Stage::kLevel;
  }

  /// Expands the started walk up to the next out-row it needs and
  /// prefetches it (kPending), or reports that the walk is over (kDone).
  /// With kYield = false it runs the walk to its end without prefetching.
  template <bool kYield = true>
  WalkStep Resume(Rng& rng);

  /// After Resume() returned kDone: emits every non-zero
  /// pi_hat_target_level(v, w) as sink(v, estimate), leaves the scratch
  /// empty, and returns the walk's increment count.
  template <typename Sink>
  uint64_t Finish(Sink&& sink) {
    for (const FrontierEntry& entry : cur_) {
      sink(entry.node, entry.estimate);
    }
    // Leave the scratch empty and equalized so the state BETWEEN walks is
    // the deterministic one (the reset in Start() is just a guard): a
    // repeated walk sequence reaches its high-water capacity once and never
    // changes it again, which is what the workspace-reuse probe asserts.
    ResetScratch();
    return increments_;
  }

  /// Allocating conveniences for tests/benches; the query engines use the
  /// sink overloads.
  BackwardWalkResult RunSimple(NodeId w, uint32_t target_level, Rng& rng);
  BackwardWalkResult RunVarianceBounded(NodeId w, uint32_t target_level,
                                        Rng& rng);

  double sqrt_c() const { return sqrt_c_; }

  /// Combined capacity of the recycled frontier scratch (both frontier
  /// vectors + the position index) — the workspace-reuse probe:
  /// steady-state walks must not grow it.
  size_t ScratchCapacity() const {
    return cur_.capacity() + next_.capacity() + next_position_.capacity();
  }

  /// Largest frontier searched by linear scan; a bigger one is indexed.
  static constexpr size_t kFrontierScanLimit = 16;

 private:
  /// Where the walk stands (see Resume).
  enum class Stage : uint8_t {
    kLevel,    ///< about to expand frontier level `level_`
    kNode,     ///< about to visit frontier node cur_[node_]
    kOffsets,  ///< its out-row offsets are prefetched
    kRow,      ///< its out-row is prefetched: push mass along it
  };

  /// Pushes `estimate_` from the current frontier node along `outs_` /
  /// `degs_` into the next frontier (the body of Algorithms 2 and 3).
  void Expand(Rng& rng);

  /// Accumulates `delta` for `y` in the next frontier; a first-seen `y` is
  /// appended, so the frontier stays in insertion order.
  void AccumulateNext(NodeId y, double delta) {
    if (next_.size() <= kFrontierScanLimit) {
      for (FrontierEntry& entry : next_) {
        if (entry.node == y) {
          entry.estimate += delta;
          return;
        }
      }
      next_.push_back({y, delta});
      if (next_.size() > kFrontierScanLimit) {  // switch to the index
        for (size_t i = 0; i < next_.size(); ++i) {
          next_position_[next_[i].node] = static_cast<uint32_t>(i + 1);
        }
      }
      return;
    }
    uint32_t& position = next_position_[y];  // 1-based; 0 = not yet seen
    if (position == 0) {
      next_.push_back({y, delta});
      position = static_cast<uint32_t>(next_.size());
    } else {
      next_[position - 1].estimate += delta;
    }
  }

  /// Empties the scratch and equalizes the capacities of the two frontier
  /// vectors. They are swapped a per-walk-varying number of times, so
  /// without equalization a walk's growth decisions would depend on which
  /// side the larger retained buffer happens to sit in — i.e. on engine
  /// history. Symmetric capacities make reuse allocation-free: a repeated
  /// walk sequence never regrows scratch that already fit it.
  void ResetScratch() {
    cur_.clear();
    next_.clear();
    next_position_.clear();
    if (cur_.capacity() < next_.capacity()) {
      cur_.reserve(next_.capacity());
    } else if (next_.capacity() < cur_.capacity()) {
      next_.reserve(cur_.capacity());
    }
  }

  const Graph& graph_;
  double sqrt_c_;
  double term_;  // 1 - sqrt_c
  struct FrontierEntry {
    NodeId node;
    double estimate;
  };
  // The current and next frontier in insertion order. The walk consumes RNG
  // draws while iterating the frontier, so the order must be a pure
  // function of the walk itself — never of capacity retained from earlier
  // walks — which is what keeps queries pure functions of (seed, source).
  std::vector<FrontierEntry> cur_;
  std::vector<FrontierEntry> next_;
  /// Position (1-based) of each node in next_, kept only while next_ holds
  /// more than kFrontierScanLimit entries. It is looked up, never iterated.
  FlatHashMap2<uint32_t> next_position_{64};

  // The walk in flight.
  Stage stage_ = Stage::kLevel;
  bool variance_bounded_ = true;
  uint32_t target_level_ = 0;
  uint32_t level_ = 0;    ///< frontier levels expanded so far
  size_t node_ = 0;       ///< index of the frontier node being visited
  double estimate_ = 0;   ///< that node's current estimate
  std::span<const NodeId> outs_;    ///< its out-row (kRow)
  std::span<const uint32_t> degs_;  ///< in-degrees along outs_ (kRow)
  uint64_t increments_ = 0;
};

template <bool kYield>
inline WalkStep BackwardWalker::Resume(Rng& rng) {
  for (;;) {
    switch (stage_) {
      case Stage::kLevel:
        if (level_ == target_level_ || cur_.empty()) {
          return WalkStep::kDone;
        }
        node_ = 0;
        stage_ = Stage::kNode;
        [[fallthrough]];
      case Stage::kNode: {
        if (node_ == cur_.size()) {
          cur_.clear();
          std::swap(cur_, next_);
          next_position_.clear();
          ++level_;
          stage_ = Stage::kLevel;
          continue;
        }
        const NodeId x = cur_[node_].node;
        estimate_ = cur_[node_].estimate;
        // Algorithm 3 continues from x with probability sqrt_c, decided
        // before its out-row is touched.
        if (variance_bounded_ && rng.NextDouble() >= sqrt_c_) {
          ++node_;
          continue;
        }
        stage_ = Stage::kOffsets;
        if constexpr (kYield) {
          graph_.PrefetchOutRow(x);
          return WalkStep::kPending;
        }
        [[fallthrough]];
      }
      case Stage::kOffsets: {
        const NodeId x = cur_[node_].node;
        outs_ = graph_.OutNeighbors(x);
        degs_ = graph_.OutNeighborInDegrees(x);
        stage_ = Stage::kRow;
        if constexpr (kYield) {
          __builtin_prefetch(outs_.data());
          __builtin_prefetch(degs_.data());
          return WalkStep::kPending;
        }
        [[fallthrough]];
      }
      case Stage::kRow:
        Expand(rng);
        ++node_;
        stage_ = Stage::kNode;
        continue;
    }
  }
}

inline void BackwardWalker::Expand(Rng& rng) {
  const NodeId* outs = outs_.data();
  const uint32_t* degs = degs_.data();
  const size_t size = outs_.size();
  const double estimate = estimate_;
  size_t i = 0;
  if (variance_bounded_) {
    // Algorithm 3: out-neighbors with in-degree <= estimate/(1-sqrt_c)
    // receive the exact share estimate/d_in(y) (each such increment is
    // >= 1-sqrt_c, which is what bounds the cost); higher-degree
    // out-neighbors receive a fixed (1-sqrt_c) increment with probability
    // estimate/(d_in(y)(1-sqrt_c)), realized by thresholding one uniform
    // draw against the sorted in-degree prefix.
    const double exact_threshold = estimate / term_;
    for (; i < size && degs[i] <= exact_threshold; ++i) {
      AccumulateNext(outs[i], estimate / degs[i]);
    }
    if (i < size) {
      const double r = rng.NextDouble();
      const double sampled_threshold = exact_threshold / r;
      for (; i < size && degs[i] <= sampled_threshold; ++i) {
        AccumulateNext(outs[i], term_);
      }
    }
  } else {
    // Algorithm 2: every out-neighbor y with d_in(y) <= sqrt_c / r gets the
    // full current estimate, i.e. an increment of estimate with probability
    // sqrt_c / d_in(y).
    const double r = rng.NextDouble();
    const double threshold = sqrt_c_ / r;
    for (; i < size && degs[i] <= threshold; ++i) {
      AccumulateNext(outs[i], estimate);
    }
  }
  increments_ += i;  // one increment per out-neighbor reached
}

}  // namespace prsim

#endif  // PRSIM_PPR_BACKWARD_WALK_H_
