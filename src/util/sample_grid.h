// Static chunking of a (round, j) sample grid, shared by every
// median-of-means estimator (PRSim::Query, RpprEstimator).
//
// The chunk layout is a pure function of (rounds, samples_per_round) — never
// of the thread count or of which worker runs a chunk. Combined with one RNG
// substream per chunk (seeded positionally from the chunk's first sample)
// and a merge that visits chunks in grid order, every estimate is
// bit-identical however many threads execute the grid:
//
//  * a chunk never spans a round, so each per-(node, round) tail column is
//    the fixed-order sum of that round's chunk partials;
//  * count-valued accumulators (eta-pi sample counts, cost counters) are
//    integers, so their merges are exact in any order anyway.
//
// The chunk count targets kTargetSampleChunks: enough slack for static
// scheduling to balance load across typical worker counts without the merge
// pass or the pooled per-chunk workspaces growing with the sample count.

#ifndef PRSIM_UTIL_SAMPLE_GRID_H_
#define PRSIM_UTIL_SAMPLE_GRID_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/flat_hash_map2.h"
#include "util/rng.h"

namespace prsim {

/// One static chunk of the sample grid: samples [j_lo, j_hi) of `round`.
struct SampleChunk {
  uint32_t round = 0;
  uint64_t j_lo = 0;
  uint64_t j_hi = 0;
};

/// Upper bound on the chunk count (see header comment). 64 gives 4x
/// oversubscription at 16 workers while keeping the fixed-order merge and
/// the pooled per-chunk workspaces O(64).
inline constexpr uint64_t kTargetSampleChunks = 64;

/// Chunks one worker keeps in flight at once (see RunInterleaved): while one
/// chunk's walk waits for a graph row to arrive in cache, the worker steps
/// the walks of up to seven others. A fixed property of the engine, not an
/// option; results do not depend on it.
inline constexpr size_t kSampleLanes = 8;

/// Graphs whose CSR arrays (Graph::MemoryBytes) are smaller than this stay
/// cache-resident, so a row access rarely stalls and interleaving only adds
/// the cost of switching lanes: on a 4-core Xeon (2 MiB L2 per core) eight
/// lanes made single-thread PRSim queries on a 0.35 MiB Chung-Lu graph
/// 15-40% slower than one lane, and on graphs from 2.7 MiB up faster.
inline constexpr size_t kInterleaveMinGraphBytes = size_t{2} << 20;

/// The lane width PRSim::Query runs on a graph of `graph_bytes`.
inline size_t SampleLaneWidth(size_t graph_bytes) {
  return graph_bytes < kInterleaveMinGraphBytes ? 1 : kSampleLanes;
}

/// Splits `rounds` x `samples_per_round` into round-major chunks that never
/// cross a round boundary. Layout depends only on the two arguments.
inline std::vector<SampleChunk> BuildSampleChunks(uint32_t rounds,
                                                  uint64_t samples_per_round) {
  std::vector<SampleChunk> chunks;
  if (rounds == 0 || samples_per_round == 0) return chunks;
  const uint64_t blocks_per_round =
      std::min(samples_per_round,
               std::max<uint64_t>(1, kTargetSampleChunks / rounds));
  const uint64_t block =
      (samples_per_round + blocks_per_round - 1) / blocks_per_round;
  chunks.reserve(static_cast<size_t>(rounds) * blocks_per_round);
  for (uint32_t round = 0; round < rounds; ++round) {
    for (uint64_t j_lo = 0; j_lo < samples_per_round; j_lo += block) {
      chunks.push_back(
          {round, j_lo, std::min(samples_per_round, j_lo + block)});
    }
  }
  return chunks;
}

/// Runs tasks [lo, hi) as up to `width` interleaved lanes on the calling
/// thread, using lanes[0, min(width, hi - lo)) as the lane slots.
/// start(lane, task) binds a slot to a task; resume(lane) advances the
/// lane's task until it either yields — it prefetched a cache line it needs
/// next, and returns true — or finishes (false). Lanes are resumed
/// round-robin and a finished lane takes the next unstarted task, so up to
/// `width` independent memory accesses are in flight instead of one (the
/// AMAC scheme of Kocberber et al., VLDB 2015). Tasks that share no mutable
/// state produce the same results at every width and interleaving.
template <typename Lane, typename Start, typename Resume>
void RunInterleaved(std::span<Lane> lanes, size_t lo, size_t hi, size_t width,
                    Start&& start, Resume&& resume) {
  size_t active = std::min({width, hi - lo, lanes.size()});
  size_t next = lo;
  for (size_t l = 0; l < active; ++l) start(lanes[l], next++);
  while (active > 0) {
    for (size_t l = 0; l < active;) {
      if (resume(lanes[l])) {
        ++l;
      } else if (next < hi) {
        start(lanes[l], next++);
      } else {
        std::swap(lanes[l], lanes[--active]);
      }
    }
  }
}

/// Stateless positional seed derivation (splitmix over a golden-ratio
/// stream offset): nearby streams yield decorrelated substreams.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  return SplitMix64(state);
}

/// Seed of a chunk's RNG substream: positional in (base seed, query stream,
/// linear index of the chunk's first sample). `stream` distinguishes
/// estimation targets (e.g. the source node), so repeated queries are pure
/// functions of (seed, target) while distinct targets get decorrelated
/// substreams.
inline uint64_t SampleChunkSeed(uint64_t seed, uint64_t stream,
                                const SampleChunk& chunk,
                                uint64_t samples_per_round) {
  return MixSeed(MixSeed(seed, stream),
                 chunk.round * samples_per_round + chunk.j_lo);
}

/// \brief Per-(key, round) column accumulator + median-of-rounds reduce —
/// the merge half of the chunked median-of-means estimators (PRSim's tail
/// part, RpprEstimator), kept in ONE place because it encodes the
/// bit-identity invariant: Add() must be called in fixed grid order (all
/// chunks of round r in ascending block order), and ForEachMedian() visits
/// keys in first-touch order, so neither values nor output order depend on
/// the worker count or on capacity retained from earlier reuse.
///
/// Reset() keeps capacity; all storage is reusable workspace.
class RoundColumns {
 public:
  void Reset(uint32_t rounds) {
    rounds_ = rounds;
    slot_of_.clear();
    keys_.clear();
    columns_.clear();
  }

  /// Adds a chunk partial into `key`'s column for `round`.
  void Add(uint64_t key, uint32_t round, double value) {
    uint32_t& slot = slot_of_[key];
    if (slot == 0) {  // 0 is the sentinel for "new"; slots start at 1
      keys_.push_back(key);
      columns_.resize(columns_.size() + rounds_, 0.0);
      slot = static_cast<uint32_t>(keys_.size());
    }
    columns_[static_cast<size_t>(slot - 1) * rounds_ + round] += value;
  }

  size_t key_count() const { return keys_.size(); }

  /// fn(key, median over the key's per-round sums), in first-touch key
  /// order. Callers filter non-positive medians themselves.
  template <typename Fn>
  void ForEachMedian(Fn&& fn) {
    buffer_.resize(rounds_);
    for (size_t slot = 0; slot < keys_.size(); ++slot) {
      const double* column = &columns_[slot * rounds_];
      std::copy(column, column + rounds_, buffer_.begin());
      const auto mid = buffer_.begin() + rounds_ / 2;
      std::nth_element(buffer_.begin(), mid, buffer_.end());
      fn(keys_[slot], *mid);
    }
  }

  /// Capacity probes for the workspace-reuse tests.
  size_t MapCapacity() const { return slot_of_.capacity(); }
  size_t BufferCapacity() const {
    return keys_.capacity() + columns_.capacity() + buffer_.capacity();
  }

 private:
  uint32_t rounds_ = 0;
  FlatHashMap2<uint32_t> slot_of_{1024};
  std::vector<uint64_t> keys_;
  std::vector<double> columns_;  // slot-major, rounds_ doubles per slot
  std::vector<double> buffer_;
};

}  // namespace prsim

#endif  // PRSIM_UTIL_SAMPLE_GRID_H_
