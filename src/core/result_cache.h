// ResultCache — hot-source score-vector cache with singleflight coalescing.
//
// The serving determinism contract makes caching safe for exactly one
// request shape: a `fresh_seed` query is a pure function of (engine,
// leader seed, source) — the engine reseeds to the leader seed before
// answering, so a cached reply is byte-identical to a recomputed one.
// Positional-seed requests (the default BatchQuery-replay semantics, and
// the shard router's explicit `seed_position`) are position-dependent BY
// DESIGN: the same source answered at stream positions 3 and 7 must
// produce two different sampled score vectors. Those requests MUST bypass
// this cache entirely — QueryService only consults it when
// `request.fresh_seed` is set.
//
// Key: the source alone. A cache belongs to one QueryService, which holds
// exactly one engine with one leader seed for its whole life, so the
// engine and seed are constant across every key and need no place in it.
//
// What is cached: the FULL single-source score vector (k = 0 shape).
// Top-k replies are derived on hit with core/single_source.h's TopK —
// the same selection, with its strict (score desc, id asc) order, that
// every engine's default QueryTopK uses — so one cached entry serves any
// requested k bit-identically. A hit reads the cached vector in place
// through a bounded heap of k; it never copies or sorts the full vector.
// (No engine overrides QueryTopK; result_cache_test locks the equivalence
// down per engine.)
//
// Singleflight: under a Zipfian workload the worst case is N concurrent
// misses on the same hot source. Lookup() atomically resolves each caller
// into one of three roles — kHit (served from cache), kLeader (first
// misser: computes the query and must call Publish exactly once, even on
// failure or rejection), or kWaiter (joined an in-flight leader; receives
// a future fulfilled at Publish with its own k-shaped reply and its own
// queue-to-publish latency). N concurrent identical misses therefore cost
// one engine query.
//
// Thread safe. One internal mutex guards the LRU and the flight table;
// waiter promises are always fulfilled outside the lock.

#ifndef PRSIM_CORE_RESULT_CACHE_H_
#define PRSIM_CORE_RESULT_CACHE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/query_service.h"
#include "core/single_source.h"
#include "util/lru_cache.h"
#include "util/timer.h"

namespace prsim {

/// Point-in-time counters. hits/misses/coalesced partition the fresh_seed
/// lookup stream: every Lookup() is exactly one of the three.
struct ResultCacheStats {
  uint64_t hits = 0;       ///< served directly from a cached vector
  uint64_t misses = 0;     ///< became a leader (one engine query each)
  uint64_t coalesced = 0;  ///< joined an in-flight leader (no engine query)
  uint64_t evictions = 0;  ///< entries dropped by the byte budget
  uint64_t bytes = 0;      ///< current cached payload bytes (gauge)
  uint64_t entries = 0;    ///< current cached entry count (gauge)
};

class ResultCache {
 public:
  explicit ResultCache(size_t byte_budget);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  enum class Role { kHit, kLeader, kWaiter };

  struct Ticket {
    Role role = Role::kLeader;
    /// kHit: the cached full score vector (shape the reply with
    /// CachedResult).
    std::shared_ptr<const ScoreList> hit_scores;
    /// kWaiter: resolves when the leader publishes.
    std::future<QueryResult> waiter_future;
  };

  /// Atomic hit / join / lead decision for one fresh_seed request on
  /// `source`. For a kWaiter ticket, `k` shapes the eventual reply and
  /// `timer` (started at Submit) prices its latency at publish time. A
  /// kLeader caller MUST call Publish(source, ...) exactly once, on every
  /// path — success, engine failure, or queue rejection — or its waiters
  /// hang forever.
  Ticket Lookup(NodeId source, uint32_t k, WallTimer timer);

  /// What Publish did, so the service can fold waiter completions into its
  /// own counters/latency histogram (waiters never touch the queue).
  struct PublishResult {
    size_t ok_waiters = 0;
    size_t failed_waiters = 0;
    std::vector<double> waiter_latencies;  ///< one per ok waiter
  };

  /// Completes the flight for `source`: on OK caches `scores` (subject to
  /// the byte budget) and answers every waiter from it; on failure
  /// propagates `status` to the waiters. Promises are fulfilled outside the lock.
  PublishResult Publish(NodeId source, const Status& status,
                        const std::shared_ptr<const ScoreList>& scores);

  /// Shapes a cached full vector into a QueryResult: k = 0 copies the
  /// vector, k > 0 derives TopK with the engines' exact tie-breaking. The
  /// cost counters stay zero — no engine work happened.
  static QueryResult CachedResult(const std::shared_ptr<const ScoreList>& scores,
                                  uint32_t k, NodeId source,
                                  double latency_seconds);

  ResultCacheStats Stats() const;

  size_t budget() const { return budget_; }

 private:
  struct Waiter {
    std::promise<QueryResult> promise;
    uint32_t k = 0;
    WallTimer timer;
  };

  struct Flight {
    NodeId source = 0;
    std::vector<Waiter> waiters;
  };

  using Lru = LruCache<NodeId, std::shared_ptr<const ScoreList>>;

  const size_t budget_;

  mutable std::mutex mu_;
  Lru lru_;
  /// In-flight leaders. Linear scan: the population is bounded by the
  /// number of concurrently executing distinct misses (<= queue depth).
  std::vector<std::unique_ptr<Flight>> flights_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t coalesced_ = 0;
};

}  // namespace prsim

#endif  // PRSIM_CORE_RESULT_CACHE_H_
