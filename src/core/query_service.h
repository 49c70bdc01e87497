// Async query service: the long-lived serving layer above BatchQuery.
//
// A QueryService owns exactly one engine — a leader cold-started from a
// SaveIndex() artifact via EngineRegistry::CreateFromIndex, or handed in
// preprocessed — plus a dedicated ThreadPool. PRSim answers single-source
// queries against one index, and every serving caller (serve, each shard
// of the router) needs exactly that; a caller serving several engines
// runs several services. Clients call Submit(QueryRequest) and get a
// future; requests flow through a bounded queue with a configurable
// backpressure policy, are answered on pool workers against per-worker
// engine clones (queries are stateful — each clone carries its own pooled
// query workspace, warmed by its first query — so one clone per worker,
// all sharing the leader's immutable index), and every completion records
// its wall time into a latency histogram surfaced through ServiceStats /
// QueryCost. Engines with intra-query parallelism (PRSim's chunked sample
// grid) degrade to serial chunk execution inside service workers (the
// nested-parallelism rule), with bit-identical scores.
//
// Determinism: request `seq` (the submission order) plays the role of the
// batch position — each query is reseeded with the positional BatchQuery
// seed, so a single-threaded service replays a BatchQuery bit for bit.
// `fresh_seed` requests sit outside that stream: they are answered under
// the leader seed, never consume a positional seq (so a positional replay
// interleaved with fresh traffic stays bit-identical regardless of cache
// state), and are the only requests eligible for the hot-source result
// cache (core/result_cache.h) enabled by QueryServiceOptions::cache_bytes.
// With one engine and one leader seed per service, a fresh answer is a
// pure function of the source, which is all the cache keys on.

#ifndef PRSIM_CORE_QUERY_SERVICE_H_
#define PRSIM_CORE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine_config.h"
#include "core/single_source.h"
#include "graph/graph.h"
#include "util/percentiles.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace prsim {

class ResultCache;

struct QueryRequest {
  /// Sentinel for `seed_position`: use the service-local submission order.
  static constexpr uint64_t kServiceOrder = ~uint64_t{0};
  /// Sentinel for `deadline_ms`: the request has no deadline.
  static constexpr uint64_t kNoDeadline = ~uint64_t{0};

  /// Registered algorithm name; empty selects the service's engine, any
  /// other name fails with kNotFound.
  std::string algo;
  NodeId source = 0;
  /// 0 = full single-source result; otherwise top-k (source excluded).
  uint32_t k = 0;
  /// Positional seed control. By default every accepted request is answered
  /// under BatchQuerySeed(leader seed, service submission seq). A caller
  /// that multiplexes one logical request stream over several services —
  /// the shard router — passes the global position here so the sharded
  /// stream replays the unsharded one bit for bit at any shard count.
  uint64_t seed_position = kServiceOrder;
  /// When true the query is answered as a freshly constructed engine with
  /// the leader's seed would answer it (one-shot `query` CLI semantics),
  /// ignoring seed_position.
  bool fresh_seed = false;
  /// Relative deadline budget in milliseconds, measured from Submit().
  /// kNoDeadline (default) = none; 0 = already expired (resolved with
  /// kDeadlineExceeded at admission, consuming no positional seq). Expired
  /// and shed requests never shift the positional seeds of the surviving
  /// stream, so answers stay bit-identical whenever no deadline fires.
  uint64_t deadline_ms = kNoDeadline;
  /// Absolute steady-clock deadline; takes precedence over deadline_ms
  /// when set (time_point::max() = unset). The shape tests use to hand in
  /// an already-expired deadline without sleeping.
  std::chrono::steady_clock::time_point deadline_at =
      std::chrono::steady_clock::time_point::max();
};

struct QueryResult {
  /// kNotFound for a foreign algo, kInvalidArgument for an out-of-range
  /// source or a service without an engine,
  /// kResourceExhausted when rejected by backpressure, kDeadlineExceeded
  /// when the deadline expired (at admission, waiting for queue capacity,
  /// at worker pickup, or via predictive shedding),
  /// kInternal when the engine threw; scores are only meaningful when ok().
  Status status;
  ScoreList scores;
  /// Wall time from Submit() to completion (queue wait + execution); 0 for
  /// requests rejected before entering the queue.
  double latency_seconds = 0;
  /// The answering engine's per-query cost counters.
  QueryCost cost;
};

struct QueryServiceOptions {
  /// Worker threads owned by the service (0 = DefaultThreadCount()).
  size_t threads = 0;
  /// Maximum in-flight (queued + executing) requests before backpressure.
  size_t max_queue = 1024;
  enum class Backpressure {
    kBlock,   ///< Submit() blocks until a slot frees up
    /// Submit() resolves immediately with kResourceExhausted. Cache hits
    /// resolve before the queue, so they keep answering meanwhile.
    kReject,
  };
  Backpressure backpressure = Backpressure::kBlock;
  /// Byte budget for the hot-source result cache (0 = cache disabled, the
  /// default). Only `fresh_seed` requests are cached — see
  /// core/result_cache.h for the determinism argument. Cache hits resolve
  /// before the bounded queue and cannot be backpressured.
  size_t cache_bytes = 0;
};

/// Snapshot of the service's lifetime counters and latency percentiles.
struct ServiceStats {
  uint64_t submitted = 0;  ///< accepted (queued, cache hits, coalesced)
  uint64_t completed = 0;  ///< answered successfully
  uint64_t failed = 0;     ///< invalid requests or engine failures
  uint64_t rejected = 0;   ///< refused by the kReject backpressure policy
  /// Requests resolved with kDeadlineExceeded: expired at admission, timed
  /// out waiting for queue capacity, or expired in the queue (found at
  /// worker pickup). Disjoint from `shed`. Shard aggregations sum.
  uint64_t deadline_exceeded = 0;
  /// Requests refused at admission by predictive shedding (the queue wait
  /// forecasts a deadline miss). Disjoint from `rejected` and
  /// `deadline_exceeded`. Shard aggregations sum.
  uint64_t shed = 0;
  /// Peak in-flight (queued + executing) requests — how close the bounded
  /// queue came to its cap. Shard aggregations take the per-shard max.
  uint64_t queue_high_water = 0;
  double p50_seconds = 0;
  double p95_seconds = 0;
  double p99_seconds = 0;
  /// Result-cache counters (all zero when cache_bytes = 0). hits, misses
  /// and coalesced partition the fresh_seed lookup stream; bytes is a
  /// point-in-time gauge. Shard aggregations sum all of them — ownership
  /// routing means no key ever lives in two shard caches.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_coalesced = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_bytes = 0;
  /// Summed QueryCost counters over completed queries (its latency_p*
  /// fields stay 0; the percentiles are the p*_seconds above). Cache hits
  /// and coalesced waiters contribute latency but no cost — no engine ran.
  QueryCost aggregate_cost;
};

/// Resolves a request's deadline fields to one absolute time point
/// (time_point::max() = none): deadline_at wins over the relative
/// deadline_ms budget, which counts from now. A request is already expired
/// when the result is not max() and now() has reached it; deadline_ms = 0
/// always is.
std::chrono::steady_clock::time_point ResolveDeadline(
    const QueryRequest& request);

/// Renders the stats as one self-describing JSON line (no trailing
/// newline): {"event":"serve_stats","transport":"...",...}. Every serve
/// transport emits this on stderr at exit so load runs explain themselves.
std::string ServiceStatsJson(const ServiceStats& stats,
                             const std::string& transport);

class QueryService {
 public:
  explicit QueryService(const QueryServiceOptions& options = {});

  /// Drains every accepted request, then joins the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Installs `leader` as the service's engine under `algo`. The leader
  /// must already answer queries (preprocessed or index-loaded). A service
  /// holds one engine: any second AddEngine*() fails with kAlreadyExists,
  /// so the engine never changes once requests can reach it.
  Status AddEngine(const std::string& algo,
                   std::unique_ptr<SingleSourceSimRank> leader);

  /// Creates the engine through the registry and runs Preprocess().
  Status AddEngine(const std::string& algo, const Graph& graph,
                   const EngineConfig& config);

  /// Cold start: creates the engine through the registry and installs the
  /// index from a SaveIndex() artifact (EngineRegistry::CreateFromIndex).
  Status AddEngineFromIndex(const std::string& algo, const Graph& graph,
                            const EngineConfig& config,
                            const std::string& index_path);

  /// Enqueues one query. The future resolves with the scores (full or
  /// top-k) or with the error status; engine exceptions surface as
  /// kInternal results, never as broken futures or dead workers. Safe to
  /// call from any thread except the service's own workers (debug-asserted
  /// via the pool's worker-thread registry; see OwnsCurrentThread). With
  /// the result cache enabled, fresh_seed hits resolve immediately —
  /// before the bounded queue — and concurrent identical misses coalesce
  /// into one engine query.
  std::future<QueryResult> Submit(QueryRequest request);

  /// True iff the calling thread is one of this service's own workers.
  /// Submitting from such a thread can deadlock the bounded queue; the
  /// shard router debug-asserts against it across all its shards.
  bool OwnsCurrentThread() const { return pool_.OwnsCurrentThread(); }

  /// Current lifetime counters and latency percentiles.
  ServiceStats Stats() const;

  /// Snapshot of the latency histogram. Aggregators merging several
  /// services (the shard router) add the histograms, so merged percentiles
  /// weight every request equally instead of averaging per-service
  /// quantiles.
  LatencyHistogram Latencies() const;

  /// Requests accepted but not yet completed (queued + executing).
  size_t pending() const;

  size_t threads() const { return pool_.size(); }

 private:
  QueryResult RunQuery(const QueryRequest& request, uint64_t seq,
                       WallTimer submit_timer, bool publish_to_cache,
                       std::chrono::steady_clock::time_point deadline);
  static std::future<QueryResult> ReadyResult(QueryResult result);

  QueryServiceOptions options_;
  /// The engine: registered name and leader, written once under mu_ by
  /// the first successful AddEngine*() and never again, so workers read
  /// them without the lock.
  std::string algo_;
  std::unique_ptr<SingleSourceSimRank> leader_;
  /// One lazily minted clone per pool worker; slot w is touched only by
  /// worker w, so no lock is needed.
  std::vector<std::unique_ptr<SingleSourceSimRank>> clones_;

  /// The result cache (null when cache_bytes = 0). Owns its own mutex;
  /// never acquired while mu_ is held (and vice versa), so there is no
  /// lock-order edge between the two.
  std::unique_ptr<ResultCache> cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_has_room_;
  uint64_t submitted_ = 0;
  /// Positional-seed allocator for queue-entering non-fresh requests.
  /// Distinct from submitted_ (which also counts cache hits and coalesced
  /// waiters) so positional seeds are a pure function of the non-fresh
  /// request stream, independent of cache state.
  uint64_t next_seq_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t deadline_exceeded_ = 0;
  uint64_t shed_ = 0;
  /// Exponentially weighted moving average of engine execution time, the
  /// input to predictive shedding: a deadline that the expected queue wait
  /// alone would blow is refused at admission instead of wasting a slot.
  double ewma_exec_seconds_ = 0;
  size_t inflight_ = 0;
  size_t inflight_high_water_ = 0;
  QueryCost aggregate_cost_;
  LatencyHistogram latencies_;

  /// Declared last: destroyed first, so the pool drains (tasks touch the
  /// members above) before anything else dies.
  ThreadPool pool_;
};

}  // namespace prsim

#endif  // PRSIM_CORE_QUERY_SERVICE_H_
