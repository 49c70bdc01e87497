#include "core/query_service.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/batch_query.h"
#include "core/engine_registry.h"
#include "core/result_cache.h"
#include "util/fault_injection.h"

namespace prsim {

std::string ServiceStatsJson(const ServiceStats& stats,
                             const std::string& transport) {
  char buffer[768];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"event\":\"serve_stats\",\"transport\":\"%s\","
      "\"accepted\":%llu,\"completed\":%llu,\"failed\":%llu,"
      "\"rejected\":%llu,\"deadline_exceeded\":%llu,\"shed\":%llu,"
      "\"queue_high_water\":%llu,"
      "\"p50_ms\":%.6g,\"p95_ms\":%.6g,\"p99_ms\":%.6g,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,"
      "\"cache_coalesced\":%llu,\"cache_evictions\":%llu,"
      "\"cache_bytes\":%llu}",
      transport.c_str(), static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.queue_high_water),
      stats.p50_seconds * 1e3, stats.p95_seconds * 1e3,
      stats.p99_seconds * 1e3,
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.cache_coalesced),
      static_cast<unsigned long long>(stats.cache_evictions),
      static_cast<unsigned long long>(stats.cache_bytes));
  return buffer;
}

namespace {

using ServiceClock = std::chrono::steady_clock;

/// Relative deadlines at or beyond ~1 year are treated as "no deadline":
/// now + milliseconds(huge) would overflow the steady_clock rep, and no
/// real client budgets a query in years.
constexpr uint64_t kMaxDeadlineMs = 365ull * 24 * 3600 * 1000;

}  // namespace

ServiceClock::time_point ResolveDeadline(const QueryRequest& request) {
  if (request.deadline_at != ServiceClock::time_point::max()) {
    return request.deadline_at;
  }
  if (request.deadline_ms != QueryRequest::kNoDeadline &&
      request.deadline_ms < kMaxDeadlineMs) {
    return ServiceClock::now() +
           std::chrono::milliseconds(request.deadline_ms);
  }
  return ServiceClock::time_point::max();
}

QueryService::QueryService(const QueryServiceOptions& options)
    : options_(options),
      pool_(options.threads) {
  PRSIM_CHECK(options_.max_queue > 0) << "max_queue must be positive";
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_bytes);
  }
}

QueryService::~QueryService() = default;

Status QueryService::AddEngine(const std::string& algo,
                               std::unique_ptr<SingleSourceSimRank> leader) {
  if (algo.empty()) {
    return Status::InvalidArgument("engine key must be non-empty");
  }
  if (leader == nullptr) {
    return Status::InvalidArgument("null leader engine for '" + algo + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (leader_ != nullptr) {
    return Status::AlreadyExists("this service already holds engine '" +
                                 algo_ + "'");
  }
  algo_ = algo;
  leader_ = std::move(leader);
  clones_.resize(pool_.size());
  return Status::OK();
}

Status QueryService::AddEngine(const std::string& algo, const Graph& graph,
                               const EngineConfig& config) {
  const EngineInfo* info = EngineRegistry::Global().Find(algo);
  if (info == nullptr) return Status::NotFound("unknown engine: " + algo);
  PRSIM_ASSIGN_OR_RETURN(auto leader,
                         EngineRegistry::Global().Create(algo, graph, config));
  PRSIM_RETURN_NOT_OK(leader->Preprocess());
  return AddEngine(info->name, std::move(leader));
}

Status QueryService::AddEngineFromIndex(const std::string& algo,
                                        const Graph& graph,
                                        const EngineConfig& config,
                                        const std::string& index_path) {
  const EngineInfo* info = EngineRegistry::Global().Find(algo);
  if (info == nullptr) return Status::NotFound("unknown engine: " + algo);
  PRSIM_ASSIGN_OR_RETURN(auto leader,
                         EngineRegistry::Global().CreateFromIndex(
                             algo, graph, config, index_path));
  return AddEngine(info->name, std::move(leader));
}

std::future<QueryResult> QueryService::ReadyResult(QueryResult result) {
  std::promise<QueryResult> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

std::future<QueryResult> QueryService::Submit(QueryRequest request) {
  // Submitting from one of *this service's* workers could deadlock: the
  // blocking backpressure path waits for capacity only those workers can
  // free. Workers of other pools (e.g. a ParallelFor chunk on the shared
  // pool) are fine — this service drains independently of them. Asserted
  // against the pool's thread-local worker registry; debug-only so the
  // release hot path pays nothing.
  PRSIM_DCHECK(!pool_.OwnsCurrentThread())
      << "Submit() from this service's own worker would deadlock the "
         "bounded queue";
  WallTimer submit_timer;
  const ServiceClock::time_point deadline = ResolveDeadline(request);
  const bool has_deadline = deadline != ServiceClock::time_point::max();
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Prechecks happen before a seq is consumed, so invalid requests never
    // shift the positional seeds (or the `submitted` count) of the valid
    // stream.
    Status precheck;
    if (leader_ == nullptr) {
      precheck = Status::InvalidArgument("no engine registered");
    } else if (!request.algo.empty() && request.algo != algo_) {
      precheck = Status::NotFound("this service serves '" + algo_ +
                                  "', not '" + request.algo + "'");
    } else if (request.source >= leader_->node_count()) {
      precheck = Status::InvalidArgument(
          "source " + std::to_string(request.source) + " out of range (n = " +
          std::to_string(leader_->node_count()) + ")");
    }
    if (!precheck.ok()) {
      ++failed_;
      return ReadyResult({std::move(precheck), {}, 0, {}});
    }
  }

  // Admission deadline gate, BEFORE the cache: an expired request gets no
  // answer at all — not even a free cache hit — so deadline semantics do
  // not depend on cache state. Like prechecked requests it consumes no
  // positional seq and no `submitted` slot.
  if (has_deadline && ServiceClock::now() >= deadline) {
    std::lock_guard<std::mutex> lock(mu_);
    ++deadline_exceeded_;
    return ReadyResult(
        {Status::DeadlineExceeded("deadline expired before admission"),
         {},
         0,
         {}});
  }

  // Cache path: only fresh_seed requests — a fresh answer is a pure
  // function of the source, a positional answer is not (see
  // core/result_cache.h). Hits resolve here, BEFORE the bounded queue, so
  // a saturated queue cannot backpressure them.
  bool lead = false;
  if (cache_ != nullptr && request.fresh_seed) {
    ResultCache::Ticket ticket =
        cache_->Lookup(request.source, request.k, submit_timer);
    switch (ticket.role) {
      case ResultCache::Role::kHit: {
        QueryResult result = ResultCache::CachedResult(
            ticket.hit_scores, request.k, request.source,
            submit_timer.Seconds());
        std::lock_guard<std::mutex> lock(mu_);
        ++submitted_;
        ++completed_;
        latencies_.Add(result.latency_seconds);
        return ReadyResult(std::move(result));
      }
      case ResultCache::Role::kWaiter: {
        // Counted as accepted now; completion/failure is folded in when
        // the leader publishes.
        std::lock_guard<std::mutex> lock(mu_);
        ++submitted_;
        return std::move(ticket.waiter_future);
      }
      case ResultCache::Role::kLeader:
        // Falls through to queue admission; RunQuery publishes.
        lead = true;
        break;
    }
  }

  uint64_t seq = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Admission refusals share one resolution path: `refusal` carries the
    // status and `waiter_counter` names the stat that, besides `failed`,
    // absorbs any coalesced waiters sharing the leader's fate.
    Status refusal;
    uint64_t* waiter_counter = nullptr;
    if (inflight_ >= options_.max_queue) {
      if (options_.backpressure ==
          QueryServiceOptions::Backpressure::kReject) {
        ++rejected_;
        waiter_counter = &rejected_;
        refusal = Status::ResourceExhausted(
            "query queue full (" + std::to_string(options_.max_queue) + ")");
      } else if (!has_deadline) {
        queue_has_room_.wait(
            lock, [this] { return inflight_ < options_.max_queue; });
      } else if (!queue_has_room_.wait_until(lock, deadline, [this] {
                   return inflight_ < options_.max_queue;
                 })) {
        // Blocking backpressure vs deadline: the wait itself is bounded by
        // the remaining budget, so a deadlined caller can never block past
        // its own deadline.
        ++deadline_exceeded_;
        waiter_counter = &deadline_exceeded_;
        refusal = Status::DeadlineExceeded(
            "deadline expired waiting for queue capacity");
      }
    }
    if (refusal.ok() && has_deadline && ewma_exec_seconds_ > 0) {
      // Predictive shed: estimate this request's completion time as (queue
      // depth per worker + itself) executions at the observed EWMA rate.
      // If the remaining budget cannot cover that, admitting it only burns
      // a queue slot to compute an answer nobody will wait for.
      const double predicted =
          ewma_exec_seconds_ * (static_cast<double>(inflight_) /
                                    static_cast<double>(pool_.size()) +
                                1.0);
      const double remaining =
          std::chrono::duration<double>(deadline - ServiceClock::now())
              .count();
      if (remaining < predicted) {
        ++shed_;
        waiter_counter = &shed_;
        refusal = Status::DeadlineExceeded(
            "shed: queue wait predicts deadline miss");
      }
    }
    if (!refusal.ok()) {
      if (lead) {
        // The flight must be resolved even though the leader never ran, or
        // coalesced waiters would hang forever. They share the leader's
        // refusal and its counter; unlike the leader they were accepted
        // (counted in `submitted`), so they also count as failed, keeping
        // submitted == completed + failed.
        lock.unlock();
        ResultCache::PublishResult published =
            cache_->Publish(request.source, refusal, nullptr);
        if (published.failed_waiters > 0) {
          std::lock_guard<std::mutex> relock(mu_);
          failed_ += published.failed_waiters;
          *waiter_counter += published.failed_waiters;
        }
      }
      return ReadyResult({std::move(refusal), {}, 0, {}});
    }
    // fresh_seed requests never consume a positional seq: the positional
    // stream replays BatchQuery bit for bit no matter how much fresh
    // traffic (cached or not) is interleaved.
    ++submitted_;
    if (!request.fresh_seed) seq = next_seq_++;
    ++inflight_;
    if (inflight_ > inflight_high_water_) inflight_high_water_ = inflight_;
  }

  return pool_.Submit([this, request = std::move(request), seq,
                       submit_timer, lead, deadline] {
    return RunQuery(request, seq, submit_timer, lead, deadline);
  });
}

QueryResult QueryService::RunQuery(
    const QueryRequest& request, uint64_t seq, WallTimer submit_timer,
    bool publish_to_cache, std::chrono::steady_clock::time_point deadline) {
  const size_t worker = ThreadPool::WorkerIndex();
  PRSIM_CHECK(worker != ThreadPool::kNotAWorker && worker < pool_.size());
  uint64_t stall_ms = 0;
  if (PRSIM_FAULT_POINT("worker.pickup.stall", &stall_ms) && stall_ms > 0) {
    // Injected scheduling hiccup: the worker picked this request up late.
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }
  // Pickup check: a request whose deadline expired while queued is resolved
  // kDeadlineExceeded without touching an engine — the client has given
  // up, so the cheapest correct answer is no work at all. It consumed its
  // positional seq at admission, so the surviving stream's seeds are
  // unchanged (bit-identity is scoped to "no deadline fired").
  if (deadline != ServiceClock::time_point::max() &&
      ServiceClock::now() >= deadline) {
    QueryResult result;
    result.status = Status::DeadlineExceeded("deadline expired in queue");
    result.latency_seconds = submit_timer.Seconds();
    ResultCache::PublishResult published;
    if (publish_to_cache) {
      published = cache_->Publish(request.source, result.status, nullptr);
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Accepted-then-expired counts as a failure too, so the accounting
    // identity (submitted == completed + failed over accepted requests)
    // survives deadline sweeps.
    ++failed_;
    ++deadline_exceeded_;
    failed_ += published.failed_waiters;
    deadline_exceeded_ += published.failed_waiters;
    for (double latency : published.waiter_latencies) latencies_.Add(latency);
    --inflight_;
    queue_has_room_.notify_one();
    return result;
  }
  std::unique_ptr<SingleSourceSimRank>& clone = clones_[worker];
  QueryResult result;
  std::shared_ptr<const ScoreList> full_scores;
  WallTimer exec_timer;
  try {
    if (clone == nullptr) {
      clone = leader_->CloneWithSeed(leader_->seed());
      PRSIM_CHECK(clone != nullptr)
          << algo_ << " returned a null CloneWithSeed()";
    }
    // Positional reseed: a single-worker service answers the request
    // stream exactly like BatchQuery over the same sources. Callers can
    // override the position (shard routing passes the global stream order)
    // or ask for fresh-engine semantics (the one-shot query path).
    if (request.fresh_seed) {
      clone->Reseed(leader_->seed());
    } else {
      const uint64_t position = request.seed_position ==
                                        QueryRequest::kServiceOrder
                                    ? seq
                                    : request.seed_position;
      clone->Reseed(internal::BatchQuerySeed(leader_->seed(),
                                             static_cast<size_t>(position)));
    }
    if (PRSIM_FAULT_POINT("engine.query.throw", &stall_ms)) {
      // Injected engine failure: exercises the same catch path as a real
      // engine exception (kInternal result, clone dropped and re-minted).
      throw std::runtime_error("injected fault: engine.query.throw");
    }
    if (publish_to_cache) {
      // Cache leader: compute the FULL vector (one entry serves any k) and
      // derive this caller's own reply from it. Bit-identical to the
      // uncached path: no engine overrides QueryTopK, so QueryTopK(u, k)
      // IS TopK(Query(u), k, u).
      full_scores =
          std::make_shared<const ScoreList>(clone->Query(request.source));
      result.scores = request.k > 0
                          ? TopK(*full_scores, request.k, request.source)
                          : *full_scores;
    } else {
      result.scores = request.k > 0
                          ? clone->QueryTopK(request.source, request.k)
                          : clone->Query(request.source);
    }
    result.cost = clone->last_query_cost();
  } catch (const std::exception& e) {
    result.status = Status::Internal(algo_ + " query threw: " + e.what());
    // The clone may hold partially mutated scratch; drop it so the next
    // query on this worker starts from a fresh clone.
    clone.reset();
    full_scores = nullptr;
  } catch (...) {
    result.status = Status::Internal(algo_ + " query threw");
    clone.reset();
    full_scores = nullptr;
  }
  result.latency_seconds = submit_timer.Seconds();

  ResultCache::PublishResult published;
  if (publish_to_cache) {
    // Publish on EVERY leader path — success or failure — so coalesced
    // waiters always resolve.
    published = cache_->Publish(request.source, result.status, full_scores);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (result.status.ok()) {
    ++completed_;
    aggregate_cost_.Accumulate(result.cost);
    latencies_.Add(result.latency_seconds);
    // Feed the predictive shedder. Worker-side wall time (clone warmup
    // included) is the right unit: it is what a queued request will cost.
    const double exec = exec_timer.Seconds();
    ewma_exec_seconds_ = ewma_exec_seconds_ == 0
                             ? exec
                             : 0.8 * ewma_exec_seconds_ + 0.2 * exec;
  } else {
    ++failed_;
  }
  // Coalesced waiters resolved by this publish: they completed (or
  // failed) without ever entering the queue, but they are real answered
  // requests — fold them into the service counters and the latency
  // histogram.
  completed_ += published.ok_waiters;
  failed_ += published.failed_waiters;
  for (double latency : published.waiter_latencies) latencies_.Add(latency);
  --inflight_;
  queue_has_room_.notify_one();
  return result;
}

ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.submitted = submitted_;
    stats.completed = completed_;
    stats.failed = failed_;
    stats.rejected = rejected_;
    stats.deadline_exceeded = deadline_exceeded_;
    stats.shed = shed_;
    stats.queue_high_water = inflight_high_water_;
    stats.p50_seconds = latencies_.Quantile(0.50);
    stats.p95_seconds = latencies_.Quantile(0.95);
    stats.p99_seconds = latencies_.Quantile(0.99);
    stats.aggregate_cost = aggregate_cost_;
  }
  if (cache_ != nullptr) {
    // Outside mu_: the cache has its own mutex and the two are never
    // nested.
    const ResultCacheStats cache = cache_->Stats();
    stats.cache_hits = cache.hits;
    stats.cache_misses = cache.misses;
    stats.cache_coalesced = cache.coalesced;
    stats.cache_evictions = cache.evictions;
    stats.cache_bytes = cache.bytes;
  }
  return stats;
}

LatencyHistogram QueryService::Latencies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latencies_;
}

size_t QueryService::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

}  // namespace prsim
