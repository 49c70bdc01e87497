#include "core/shard_router.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "util/logging.h"
#include "util/percentiles.h"

namespace prsim {

namespace {

std::future<QueryResult> ReadyError(Status status) {
  std::promise<QueryResult> promise;
  QueryResult result;
  result.status = std::move(status);
  promise.set_value(std::move(result));
  return promise.get_future();
}

}  // namespace

Result<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    const std::string& manifest_path, const ShardRouterOptions& options) {
  PRSIM_ASSIGN_OR_RETURN(ShardManifest manifest,
                         ShardManifest::Load(manifest_path));
  PRSIM_ASSIGN_OR_RETURN(EngineConfig config, manifest.Config());

  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->manifest_ = std::move(manifest);
  const ShardManifest& m = router->manifest_;

  // Shard entries routinely alias one graph artifact; load each distinct
  // path once and hand every service a reference to the shared instance.
  std::map<std::string, const Graph*> loaded;
  for (uint32_t s = 0; s < m.partition.shards; ++s) {
    const ShardArtifacts& shard = m.shards[s];
    const std::string graph_path =
        ResolveManifestPath(manifest_path, shard.graph_path);
    const Graph*& graph = loaded[graph_path];
    if (graph == nullptr) {
      PRSIM_ASSIGN_OR_RETURN(Graph g, LoadBundleGraph(m, graph_path));
      router->graphs_.push_back(std::make_unique<Graph>(std::move(g)));
      graph = router->graphs_.back().get();
    }

    QueryServiceOptions service_options;
    service_options.threads = options.threads_per_shard;
    service_options.max_queue = options.max_queue;
    service_options.backpressure = options.backpressure;
    service_options.cache_bytes = options.cache_bytes;
    auto service = std::make_unique<QueryService>(service_options);
    if (!shard.index_path.empty()) {
      PRSIM_RETURN_NOT_OK(service->AddEngineFromIndex(
          m.algo, *graph, config,
          ResolveManifestPath(manifest_path, shard.index_path)));
    } else {
      PRSIM_RETURN_NOT_OK(service->AddEngine(m.algo, *graph, config));
    }
    router->services_.push_back(std::move(service));
  }
  return router;
}

std::future<QueryResult> ShardRouter::SubmitRequest(QueryRequest request) {
#ifndef NDEBUG
  // Worker-thread registry: submitting from ANY shard's worker is a
  // deadlock risk (the owner shard's bounded queue may be waiting on
  // capacity only that worker can free), not just the owner's.
  // QueryService::Submit re-asserts the owner-shard case.
  for (const auto& service : services_) {
    PRSIM_DCHECK(!service->OwnsCurrentThread())
        << "SubmitRequest() from a shard service worker would deadlock the "
           "bounded queue";
  }
#endif
  // Validate before consuming a stream position, so invalid requests never
  // shift the positional seeds of the valid stream (mirrors QueryService).
  if (!request.algo.empty() && request.algo != manifest_.algo) {
    return ReadyError(Status::NotFound("this bundle serves '" +
                                       manifest_.algo + "', not '" +
                                       request.algo + "'"));
  }
  if (request.source >= manifest_.n) {
    return ReadyError(Status::InvalidArgument(
        "source " + std::to_string(request.source) + " out of range (n = " +
        std::to_string(manifest_.n) + ")"));
  }
  // Router-level deadline gate: a request that is already expired (or
  // carries a zero budget) is refused BEFORE consuming a global stream
  // position, like invalid requests — so deadline refusals on one shard
  // never shift the positional seeds any other shard sees. Live deadlines
  // flow through to the owner shard as the absolute time resolved here,
  // and it enforces them at admission, waiting for capacity, and at worker
  // pickup.
  const auto deadline = ResolveDeadline(request);
  if (deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= deadline) {
    expired_at_router_.fetch_add(1, std::memory_order_relaxed);
    return ReadyError(
        Status::DeadlineExceeded("deadline expired before routing"));
  }
  request.deadline_at = deadline;
  // Each shard service has exactly one engine; the empty key selects it
  // regardless of how the manifest spells the registry name.
  request.algo.clear();
  if (!request.fresh_seed &&
      request.seed_position == QueryRequest::kServiceOrder) {
    request.seed_position =
        next_position_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint32_t shard = ShardOf(request.source);
  return services_[shard]->Submit(std::move(request));
}

ServiceStats ShardRouter::Stats() const {
  ServiceStats total;
  LatencyHistogram latencies;
  for (const auto& service : services_) {
    const ServiceStats stats = service->Stats();
    total.submitted += stats.submitted;
    total.completed += stats.completed;
    total.failed += stats.failed;
    total.rejected += stats.rejected;
    total.deadline_exceeded += stats.deadline_exceeded;
    total.shed += stats.shed;
    total.queue_high_water =
        std::max(total.queue_high_water, stats.queue_high_water);
    total.cache_hits += stats.cache_hits;
    total.cache_misses += stats.cache_misses;
    total.cache_coalesced += stats.cache_coalesced;
    total.cache_evictions += stats.cache_evictions;
    total.cache_bytes += stats.cache_bytes;
    total.aggregate_cost.Accumulate(stats.aggregate_cost);
    latencies.Merge(service->Latencies());
  }
  total.deadline_exceeded +=
      expired_at_router_.load(std::memory_order_relaxed);
  total.p50_seconds = latencies.Quantile(0.50);
  total.p95_seconds = latencies.Quantile(0.95);
  total.p99_seconds = latencies.Quantile(0.99);
  return total;
}

}  // namespace prsim
