#include "core/prsim.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <type_traits>
#include <vector>

#include "core/index_io.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/sample_grid.h"
#include "util/thread_pool.h"

namespace prsim {

/// Pooled per-engine scratch for the chunked query path. Everything here is
/// reused across queries: FlatHashMap2::clear() and vector::clear() retain
/// capacity, so steady-state queries allocate nothing per walk (and, once
/// the touched-node set stabilizes, nothing at all).
///
/// Every pass that feeds ordered work — RNG draws, float sums into a shared
/// cell, result emission — follows insertion order: FlatHashMap2::ForEach
/// walks the map's journal, and the score accumulator keeps first-touch
/// vectors. Map slot layout depends on the capacity retained from earlier
/// queries; insertion order is a pure function of the query, which is what
/// keeps Query(u) bit-identical regardless of what the engine ran before.
struct PRSim::QueryWorkspace {
  /// One slot per static sample chunk; slot i is written only by the worker
  /// running chunk i, then read by the merge pass after the join.
  struct Chunk {
    Chunk(const Graph& graph, double c) : backward(graph, c) {}
    /// eta(w) * pi_l(u, w) sample counts keyed by PackNodeLevel(w, l).
    /// Counts (not 1/nr masses): integer merges are exact in any order.
    FlatHashMap2<uint64_t> eta_pi{256};
    /// This chunk's partial tail-sum per touched node. A chunk never spans
    /// a round, so these are partials of exactly one round's column.
    FlatHashMap2<double> tail{256};
    BackwardWalker backward;
    Rng rng{0};
    QueryCost cost;

    void Reset() {
      eta_pi.clear();
      tail.clear();
      cost = QueryCost{};
    }
  };

  /// One chunk in flight on a worker (util/sample_grid.h RunInterleaved):
  /// the sample it is on and that sample's cursor. A lane yields at every
  /// graph-row access of the sample's walk, meeting test and backward walk.
  struct Lane {
    enum class Phase : uint8_t { kNextSample, kWalk, kMeet, kBackward };
    Chunk* chunk = nullptr;
    uint64_t j = 0;     ///< next sample of the chunk to start
    uint64_t j_hi = 0;  ///< one past the chunk's last sample
    Phase phase = Phase::kNextSample;
    WalkCursor walk;
    PairCursor pair;
    NodeId terminal = 0;  ///< the non-meeting sample's (w, l)
    uint32_t level = 0;
  };

  QueryWorkspace(const Graph& graph, double c, uint32_t rounds,
                 uint64_t samples_per_round)
      : tasks(BuildSampleChunks(rounds, samples_per_round)),
        lanes(tasks.size()),
        score_slot(graph.n(), 0) {
    chunks.reserve(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) chunks.emplace_back(graph, c);
  }

  std::vector<SampleChunk> tasks;
  std::vector<Chunk> chunks;
  /// Lane slots: a worker running chunks [lo, hi) uses lanes[lo, hi), so no
  /// width or worker count ever needs more than one lane per chunk.
  std::vector<Lane> lanes;

  // Merge-pass accumulators (main thread only).
  FlatHashMap2<uint64_t> eta_pi{1024};  ///< merged sample counts
  RoundColumns tail;  ///< per-(node, round) tail sums + median reduce

  // Score accumulator: score_slot[v] is 1 + v's position in score_nodes /
  // score_values, 0 while v is untouched. Emission visits the touched
  // nodes in first-touch order and zeroes their slots again, so a query
  // costs O(touched) and the node-indexed array stays all zero between
  // queries.
  std::vector<uint32_t> score_slot;
  std::vector<NodeId> score_nodes;
  std::vector<double> score_values;
};

PRSim::PRSim(const Graph& graph, const PRSimOptions& options)
    : graph_(graph),
      options_(options),
      walker_(graph, options.c),
      lane_width_(SampleLaneWidth(graph.MemoryBytes())) {
  PRSIM_CHECK(options_.eps > 0) << "eps must be positive";
  PRSIM_CHECK(options_.delta > 0 && options_.delta < 1);
  sqrt_c_ = std::sqrt(options_.c);
  const double term = 1.0 - sqrt_c_;
  inv_term_sq_ = 1.0 / (term * term);
  c1_ = 12.0 * inv_term_sq_;

  const double n = std::max<double>(graph_.n(), 2);
  if (options_.paper_constants) {
    dr_ = static_cast<uint64_t>(std::ceil(c1_ / (options_.eps * options_.eps)));
    fr_ = static_cast<uint32_t>(std::ceil(3.0 * std::log(n / options_.delta)));
  } else {
    dr_ = static_cast<uint64_t>(
        std::ceil(options_.alpha / (options_.eps * options_.eps)));
    fr_ = options_.rounds;
  }
  dr_ = std::max<uint64_t>(dr_, 1);
  fr_ |= 1;  // odd round count keeps the median unambiguous
}

PRSim::~PRSim() = default;

PRSimIndexOptions PRSim::IndexOptions() const {
  PRSimIndexOptions index_options;
  index_options.c = options_.c;
  index_options.eps = options_.eps;
  index_options.j0 = options_.j0;
  index_options.max_level = options_.max_level;
  index_options.threads = options_.threads;
  return index_options;
}

Status PRSim::Preprocess() {
  PRSIM_ASSIGN_OR_RETURN(PRSimIndex built,
                         PRSimIndex::Build(graph_, IndexOptions()));
  index_ = std::make_shared<const PRSimIndex>(std::move(built));
  return Status::OK();
}

Status PRSim::SaveIndex(const std::string& path) const {
  if (index_ == nullptr) {
    return Status::InvalidArgument(
        "PRSim: no index built; call Preprocess() before SaveIndex()");
  }
  return PRSimIndexIO::Save(*index_, graph_, IndexOptions(), path);
}

Status PRSim::LoadIndex(const std::string& path) {
  PRSIM_ASSIGN_OR_RETURN(PRSimIndex loaded,
                         PRSimIndexIO::Load(graph_, IndexOptions(), path));
  index_ = std::make_shared<const PRSimIndex>(std::move(loaded));
  return Status::OK();
}

ScoreList PRSim::Query(NodeId u) { return QueryAtLaneWidth(u, lane_width_); }

ScoreList PRSim::QueryAtLaneWidth(NodeId u, size_t lane_width) {
  PRSIM_CHECK(index_ != nullptr) << "call Preprocess() before Query()";
  PRSIM_CHECK(u < graph_.n()) << "query node out of range";
  PRSIM_CHECK(lane_width > 0) << "lane width must be positive";
  cost_ = QueryCost{};

  const uint64_t nr = dr_ * fr_;
  const double inv_nr = 1.0 / static_cast<double>(nr);
  const double tail_scale =
      inv_term_sq_ / static_cast<double>(dr_);  // 1/((1-sqrt_c)^2 dr)

  if (workspace_ == nullptr) {
    workspace_ =
        std::make_unique<QueryWorkspace>(graph_, options_.c, fr_, dr_);
  }
  QueryWorkspace& ws = *workspace_;
  using Lane = QueryWorkspace::Lane;
  using Phase = Lane::Phase;

  // Phase 1: run the static chunks of the (round, j) grid. Each chunk draws
  // from its own positional RNG substream and accumulates into its own slot,
  // so any number of workers — including the serial fallback inside pool
  // workers that ParallelFor applies — and any lane interleaving produce
  // identical chunk partials.
  const auto start = [&](Lane& lane, size_t i) {
    const SampleChunk& task = ws.tasks[i];
    QueryWorkspace::Chunk& chunk = ws.chunks[i];
    chunk.Reset();
    chunk.rng.Reseed(SampleChunkSeed(options_.seed, u, task, dr_));
    lane.chunk = &chunk;
    lane.j = task.j_lo;
    lane.j_hi = task.j_hi;
    lane.phase = Phase::kNextSample;
  };
  // Runs the lane's chunk up to its next graph-row access (true) or to its
  // end (false); with a std::false_type `yield`, straight to its end
  // without prefetching. One sample: a sqrt(c)-walk from u; at its
  // terminal (w, l) a meeting test; if the pair does not meet, the sample
  // counts toward eta(w) * pi_l(u, w), and for non-hub w a backward walk
  // adds its tail estimate (the proof of Lemma 3.7 samples (w, l) with
  // probability pi_l(u, w) * eta(w)).
  const auto resume = [&](Lane& lane, auto yield) -> bool {
    constexpr bool kYield = decltype(yield)::value;
    QueryWorkspace::Chunk& chunk = *lane.chunk;
    for (;;) {
      switch (lane.phase) {
        case Phase::kNextSample:
          if (lane.j == lane.j_hi) return false;
          ++lane.j;
          ++chunk.cost.walks;
          lane.walk = Walker::StartWalk(u);
          lane.phase = Phase::kWalk;
          [[fallthrough]];
        case Phase::kWalk: {
          WalkOutcome walk;
          if (walker_.ResumeWalk<kYield>(lane.walk, chunk.rng, walk) ==
              WalkStep::kPending) {
            return true;
          }
          if (!walk.terminated) {
            lane.phase = Phase::kNextSample;
            continue;
          }
          lane.terminal = walk.terminal;
          lane.level = walk.steps;
          ++chunk.cost.meeting_tests;
          lane.pair = Walker::StartPair(walk.terminal, walk.terminal);
          lane.phase = Phase::kMeet;
          [[fallthrough]];
        }
        case Phase::kMeet: {
          bool met = false;
          if (walker_.ResumePair<kYield>(lane.pair, chunk.rng, met) ==
              WalkStep::kPending) {
            return true;
          }
          lane.phase = Phase::kNextSample;
          if (met) continue;
          ++chunk.eta_pi[PackNodeLevel(lane.terminal, lane.level)];
          if (index_->IsHub(lane.terminal)) continue;
          ++chunk.cost.backward_walks;
          chunk.backward.Start(lane.terminal, lane.level,
                               /*variance_bounded=*/true);
          lane.phase = Phase::kBackward;
          [[fallthrough]];
        }
        case Phase::kBackward:
          if (chunk.backward.Resume<kYield>(chunk.rng) == WalkStep::kPending) {
            return true;
          }
          chunk.cost.backward_increments +=
              chunk.backward.Finish([&](NodeId v, double value) {
                chunk.tail[v] += value * tail_scale;
              });
          lane.phase = Phase::kNextSample;
          continue;
      }
    }
  };
  // The same static split of chunks over workers as a ParallelFor over the
  // chunks; each worker interleaves its own range. Inside a pool worker the
  // ranges would run one after another (ParallelFor's nested rule), so one
  // range over all chunks keeps the full lane width busy instead.
  const size_t chunk_count = ws.tasks.size();
  const size_t workers =
      ThreadPool::InWorker()
          ? 1
          : std::min(options_.threads == 0 ? DefaultThreadCount()
                                           : options_.threads,
                     chunk_count);
  const size_t per_worker = (chunk_count + workers - 1) / workers;
  ParallelFor(
      0, workers,
      [&](size_t t) {
        const size_t lo = t * per_worker;
        const size_t hi = std::min(chunk_count, lo + per_worker);
        if (lo >= hi) return;
        if (lane_width == 1) {  // one lane runs each chunk straight through
          for (size_t i = lo; i < hi; ++i) {
            start(ws.lanes[lo], i);
            resume(ws.lanes[lo], std::false_type{});
          }
          return;
        }
        RunInterleaved(
            std::span(ws.lanes).subspan(lo, hi - lo), lo, hi, lane_width,
            start, [&](Lane& lane) { return resume(lane, std::true_type{}); });
      },
      workers);

  // Phase 2: merge chunk partials in grid order, iterating each chunk's
  // maps in insertion order. Tail partials of one (node, round) column
  // arrive in ascending block order — the fixed-order float sums that make
  // the result independent of the worker count — and the integer eta-pi
  // counts and cost counters merge exactly regardless.
  ws.eta_pi.clear();
  ws.tail.Reset(fr_);
  for (size_t i = 0; i < ws.tasks.size(); ++i) {
    const uint32_t round = ws.tasks[i].round;
    const QueryWorkspace::Chunk& chunk = ws.chunks[i];
    cost_.Accumulate(chunk.cost);
    chunk.eta_pi.ForEach(
        [&](uint64_t key, uint64_t count) { ws.eta_pi[key] += count; });
    chunk.tail.ForEach([&](uint64_t v, double partial) {
      ws.tail.Add(v, round, partial);
    });
  }

  // First-touch bookkeeping for the score accumulator (emission follows
  // score_nodes, so result order is history-independent too).
  ws.score_nodes.clear();
  ws.score_values.clear();
  const auto score_slot = [&ws](NodeId v) -> double& {
    uint32_t& slot = ws.score_slot[v];
    if (slot == 0) {
      ws.score_nodes.push_back(v);
      ws.score_values.push_back(0.0);
      slot = static_cast<uint32_t>(ws.score_nodes.size());
    }
    return ws.score_values[slot - 1];
  };

  // Median over rounds for the tail part (Lines 14-15).
  ws.tail.ForEachMedian([&](uint64_t key, double median) {
    if (median > 0) score_slot(static_cast<NodeId>(key)) += median;
  });

  // Index part (Lines 16-18): resolve heavy (w, l) pairs against the hub
  // reserve lists. Reserve lists of distinct (w, l) can hit the same node,
  // so this float-sum order must follow eta_pi's insertion order, not its
  // slot layout.
  const double keep_threshold = options_.eps / c1_;
  ws.eta_pi.ForEach([&](uint64_t key, uint64_t count) {
    const double mass = static_cast<double>(count) * inv_nr;
    if (mass <= keep_threshold) return;
    const auto* reserves = index_->Find(UnpackNode(key), UnpackLevel(key));
    if (reserves == nullptr) return;
    cost_.index_tuples_read += reserves->size();
    const double scale = mass * inv_term_sq_;
    for (const auto& [v, psi] : *reserves) {
      score_slot(v) += scale * static_cast<double>(psi);
    }
  });

  ScoreList result;
  result.reserve(ws.score_nodes.size() + 1);
  for (size_t i = 0; i < ws.score_nodes.size(); ++i) {
    const NodeId v = ws.score_nodes[i];
    ws.score_slot[v] = 0;
    // Any mass accumulated on the source itself is discarded: s(u, u) is
    // exactly 1 and is appended below.
    if (v == u) continue;
    const double score = ws.score_values[i];
    if (score > 0) result.emplace_back(v, score);
  }
  result.emplace_back(u, 1.0);
  return result;
}

PRSim::WorkspaceSnapshot PRSim::SnapshotWorkspace() const {
  WorkspaceSnapshot snapshot;
  if (workspace_ == nullptr) return snapshot;
  const QueryWorkspace& ws = *workspace_;
  snapshot.chunk_count = ws.tasks.size();
  snapshot.lane_count = ws.lanes.size();
  for (const QueryWorkspace::Chunk& chunk : ws.chunks) {
    snapshot.map_capacity += chunk.eta_pi.capacity() + chunk.tail.capacity() +
                             chunk.backward.ScratchCapacity();
  }
  snapshot.map_capacity += ws.eta_pi.capacity() + ws.tail.MapCapacity();
  snapshot.buffer_capacity +=
      ws.tail.BufferCapacity() + ws.score_slot.capacity() +
      ws.score_nodes.capacity() + ws.score_values.capacity() +
      ws.lanes.capacity();
  return snapshot;
}

std::vector<PRSim::ChunkPartial> PRSim::SnapshotChunkPartials() const {
  std::vector<ChunkPartial> partials;
  if (workspace_ == nullptr) return partials;
  for (const QueryWorkspace::Chunk& chunk : workspace_->chunks) {
    ChunkPartial& partial = partials.emplace_back();
    chunk.eta_pi.ForEach([&](uint64_t key, uint64_t count) {
      partial.eta_pi.emplace_back(key, count);
    });
    chunk.tail.ForEach([&](uint64_t v, double value) {
      partial.tail.emplace_back(static_cast<NodeId>(v), value);
    });
    partial.cost = chunk.cost;
  }
  return partials;
}

size_t PRSim::IndexBytes() const {
  return index_ != nullptr ? index_->IndexBytes() : 0;
}

}  // namespace prsim
