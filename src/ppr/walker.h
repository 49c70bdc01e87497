// sqrt(c)-walk machinery (paper Section 2).
//
// A reverse sqrt(c)-discounted random walk from u terminates at the current
// node with probability 1 - sqrt(c) at every step and otherwise moves to a
// uniformly random *in*-neighbor. Everything in SimRank-land is expressed in
// terms of these walks:
//   * pi_l(u, w)  = Pr[walk from u terminates at w in exactly l steps]
//   * pi(u, w)    = sum_l pi_l(u, w)                  (reverse PPR)
//   * pi(w)       = avg_u pi(u, w)                    (reverse PageRank)
//   * s(u, v)     = Pr[walks from u and v meet]       (SimRank, [32])
//   * eta(w)      = Pr[two walks from w never meet at any step >= 1]
//
// Dangling convention (DESIGN.md Section 1): a walk that decides to move from
// a node with no in-neighbor is "lost" — it terminates nowhere. This matches
// the deterministic l-hop recurrence used by backward search / backward walks.
//
// Every walk here runs on one resumable step. A WalkCursor (one walk) or a
// PairCursor (two walks tested for a meeting) advances until its next move
// needs a graph row: the in-row offsets of the current node, then the chosen
// in-neighbor slot. There ResumeWalk/ResumePair prefetch the row and return
// kPending, so a caller holding several cursors (PRSim's sample-grid lanes)
// can step the others while the cache line arrives, in the manner of
// asynchronous memory access chaining (Kocberber et al., VLDB 2015). Each
// cursor consumes exactly the draws of its own walk, in order, from the Rng
// it is resumed with, so the outcome does not depend on how resumptions of
// different cursors interleave. SampleWalk, SamplePairMeets and the
// estimators run the same step with kYield = false: straight to the end,
// without prefetching.

#ifndef PRSIM_PPR_WALKER_H_
#define PRSIM_PPR_WALKER_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"

namespace prsim {

/// Hard cap on walk depth. Survival beyond level L has probability
/// c^(L/2) — below 1e-9 at L = 64 for any c <= 0.8 — and capped walks are
/// treated as lost, which keeps every estimator (sub-)unbiased.
inline constexpr uint32_t kMaxWalkLevel = 64;

/// Outcome of one sqrt(c)-walk.
struct WalkOutcome {
  NodeId terminal = 0;   ///< termination node (valid iff terminated)
  uint32_t steps = 0;    ///< number of moves taken before terminating
  bool terminated = false;  ///< false if the walk was lost at a dangling node
};

/// What a resumed cursor did.
enum class WalkStep : uint8_t {
  kPending,  ///< prefetched the graph row its next move reads; resume later
  kDone,     ///< finished; the outcome has been written
};

/// Where a cursor stands within one move.
enum class WalkStage : uint8_t {
  kDecide,  ///< draw whether to continue; prefetch the in-row if so
  kRow,     ///< in-row offsets prefetched: pick and prefetch the slot
  kSlot,    ///< in-neighbor slot prefetched: move there
};

/// One sqrt(c)-walk in flight (see the header comment).
struct WalkCursor {
  NodeId pos = 0;
  uint32_t steps = 0;  ///< moves taken so far
  WalkStage stage = WalkStage::kDecide;
  const NodeId* slot = nullptr;  ///< the chosen in-neighbor (kSlot)
};

/// Two independent sqrt(c)-walks moved in lockstep until they stop or meet.
struct PairCursor {
  NodeId a = 0;
  NodeId b = 0;
  uint32_t steps = 0;
  WalkStage stage = WalkStage::kDecide;
  const NodeId* slot_a = nullptr;
  const NodeId* slot_b = nullptr;
};

/// \brief Stateless sampler of sqrt(c)-walks over one graph.
class Walker {
 public:
  /// `c` is the SimRank decay factor in (0, 1); walks move with probability
  /// sqrt(c).
  Walker(const Graph& graph, double c);

  double sqrt_c() const { return sqrt_c_; }
  double c() const { return sqrt_c_ * sqrt_c_; }

  /// A cursor for a walk from u; starting draws nothing.
  static WalkCursor StartWalk(NodeId u) { return WalkCursor{.pos = u}; }

  /// Advances `cursor` to its next in-row access and prefetches it
  /// (kPending), or finishes the walk and writes `out` (kDone). With
  /// kYield = false it runs the walk to its end without prefetching.
  template <bool kYield = true>
  WalkStep ResumeWalk(WalkCursor& cursor, Rng& rng, WalkOutcome& out) const;

  /// A cursor for two walks from a and b; starting draws nothing.
  static PairCursor StartPair(NodeId a, NodeId b) {
    return PairCursor{.a = a, .b = b};
  }

  /// Advances both walks of `cursor` to their next in-row accesses and
  /// prefetches them (kPending), or finishes and sets `met` (kDone): true
  /// iff both walks are alive after some step i >= 1 and on the same node.
  /// With kYield = false it runs to the end without prefetching.
  template <bool kYield = true>
  WalkStep ResumePair(PairCursor& cursor, Rng& rng, bool& met) const;

  /// Samples one sqrt(c)-walk from u.
  WalkOutcome SampleWalk(NodeId u, Rng& rng) const {
    WalkCursor cursor = StartWalk(u);
    WalkOutcome out;
    ResumeWalk</*kYield=*/false>(cursor, rng, out);
    return out;
  }

  /// Samples two independent sqrt(c)-walks from w and reports whether they
  /// meet: both alive after step i >= 1 and on the same node. Used to sample
  /// the last-meeting probability eta(w) (Definition 2.1): the returned value
  /// is true with probability 1 - eta(w).
  bool SamplePairMeets(NodeId w, Rng& rng) const {
    return PairMeets(w, w, rng);
  }

  /// Monte Carlo estimate of eta(w) from `samples` independent pairs.
  double EstimateEta(NodeId w, uint64_t samples, Rng& rng) const;

  /// Monte Carlo single-pair SimRank: fraction of `samples` walk pairs from
  /// (u, v) that meet. Exactly the classic MC estimator of [12, 32].
  double EstimateSimRank(NodeId u, NodeId v, uint64_t samples, Rng& rng) const;

 private:
  bool PairMeets(NodeId a, NodeId b, Rng& rng) const {
    PairCursor cursor = StartPair(a, b);
    bool met = false;
    ResumePair</*kYield=*/false>(cursor, rng, met);
    return met;
  }

  /// Picks a uniformly random in-neighbor slot of v, or returns nullptr if
  /// v is dangling (the walk is lost).
  const NodeId* PickInNeighbor(NodeId v, Rng& rng) const {
    const auto row = graph_.InNeighbors(v);
    if (row.empty()) return nullptr;
    return row.data() + rng.NextIndex(static_cast<uint32_t>(row.size()));
  }

  const Graph& graph_;
  double sqrt_c_;
};

template <bool kYield>
inline WalkStep Walker::ResumeWalk(WalkCursor& cursor, Rng& rng,
                                   WalkOutcome& out) const {
  for (;;) {
    switch (cursor.stage) {
      case WalkStage::kDecide:
        if (rng.NextDouble() >= sqrt_c_) {
          out = WalkOutcome{cursor.pos, cursor.steps, true};
          return WalkStep::kDone;
        }
        cursor.stage = WalkStage::kRow;
        if constexpr (kYield) {
          graph_.PrefetchInRow(cursor.pos);
          return WalkStep::kPending;
        }
        [[fallthrough]];
      case WalkStage::kRow:
        cursor.slot = PickInNeighbor(cursor.pos, rng);
        if (cursor.slot == nullptr) {
          out = WalkOutcome{};  // lost at a dangling node
          return WalkStep::kDone;
        }
        cursor.stage = WalkStage::kSlot;
        if constexpr (kYield) {
          __builtin_prefetch(cursor.slot);
          return WalkStep::kPending;
        }
        [[fallthrough]];
      case WalkStage::kSlot:
        cursor.pos = *cursor.slot;
        if (++cursor.steps == kMaxWalkLevel) {
          out = WalkOutcome{};  // capped: treated as lost (probability < 1e-9)
          return WalkStep::kDone;
        }
        cursor.stage = WalkStage::kDecide;
    }
  }
}

template <bool kYield>
inline WalkStep Walker::ResumePair(PairCursor& cursor, Rng& rng,
                                   bool& met) const {
  for (;;) {
    switch (cursor.stage) {
      case WalkStage::kDecide:
        // Each walk independently decides to continue; a stop by either
        // walk makes any future meeting impossible.
        if (rng.NextDouble() >= sqrt_c_ || rng.NextDouble() >= sqrt_c_) {
          met = false;
          return WalkStep::kDone;
        }
        cursor.stage = WalkStage::kRow;
        if constexpr (kYield) {
          graph_.PrefetchInRow(cursor.a);
          graph_.PrefetchInRow(cursor.b);
          return WalkStep::kPending;
        }
        [[fallthrough]];
      case WalkStage::kRow:
        cursor.slot_a = PickInNeighbor(cursor.a, rng);
        if (cursor.slot_a == nullptr) {
          met = false;
          return WalkStep::kDone;
        }
        cursor.slot_b = PickInNeighbor(cursor.b, rng);
        if (cursor.slot_b == nullptr) {
          met = false;
          return WalkStep::kDone;
        }
        cursor.stage = WalkStage::kSlot;
        if constexpr (kYield) {
          __builtin_prefetch(cursor.slot_a);
          __builtin_prefetch(cursor.slot_b);
          return WalkStep::kPending;
        }
        [[fallthrough]];
      case WalkStage::kSlot:
        cursor.a = *cursor.slot_a;
        cursor.b = *cursor.slot_b;
        ++cursor.steps;
        if (cursor.a == cursor.b) {  // met at step >= 1
          met = true;
          return WalkStep::kDone;
        }
        if (cursor.steps == kMaxWalkLevel) {
          met = false;
          return WalkStep::kDone;
        }
        cursor.stage = WalkStage::kDecide;
    }
  }
}

}  // namespace prsim

#endif  // PRSIM_PPR_WALKER_H_
