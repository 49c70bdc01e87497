// Shard router: one-process serving frontend over a shard bundle.
//
// Open() reconstructs the serving topology a `shard-build` bundle
// describes: per shard, the graph and index artifacts are loaded (aliased
// artifacts are opened once and shared — with mmap, shards share page-cache
// pages too) and wrapped in a dedicated QueryService. Queries route by
// source-node ownership under the manifest's partition spec, so the same
// request stream always lands on the same shards in any process serving
// the bundle.
//
// Determinism contract (the point of the whole layer): a sharded router
// answers every request stream bit-identically to an unsharded service.
// The router stamps each positional submission with a process-global
// stream position and passes it as QueryRequest::seed_position, so the
// positional reseed matches what a single service would have used at any
// shard count; fresh-seed requests answer like a freshly loaded engine and
// consume no position.

#ifndef PRSIM_CORE_SHARD_ROUTER_H_
#define PRSIM_CORE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/query_service.h"
#include "core/shard_manifest.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "util/status.h"

namespace prsim {

struct ShardRouterOptions {
  /// Worker threads per shard service (0 = DefaultThreadCount()).
  size_t threads_per_shard = 0;
  /// Per-shard bounded queue depth (QueryServiceOptions::max_queue).
  size_t max_queue = 1024;
  /// Per-shard backpressure policy under a full queue.
  QueryServiceOptions::Backpressure backpressure =
      QueryServiceOptions::Backpressure::kBlock;
  /// Per-shard result-cache byte budget (QueryServiceOptions::cache_bytes;
  /// 0 = off). Ownership routing means no key ever lives in two shard
  /// caches, so per-shard budgets compose: total cache memory is
  /// shards * cache_bytes and the aggregated Stats() hit counters read
  /// like one cache's.
  size_t cache_bytes = 0;
};

class ShardRouter {
 public:
  /// Loads the manifest, validates its graph fingerprint against the
  /// artifacts on disk, and spins up one QueryService per shard. Manifest
  /// and artifact corruption surface as kInvalidArgument, missing files as
  /// kIOError, unknown engines as kNotFound.
  static Result<std::unique_ptr<ShardRouter>> Open(
      const std::string& manifest_path, const ShardRouterOptions& options = {});

  ~ShardRouter() = default;
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  const ShardManifest& manifest() const { return manifest_; }
  uint32_t shard_count() const { return manifest_.partition.shards; }
  NodeId node_count() const { return manifest_.n; }

  /// The shard owning `source` (requires source < node_count()).
  uint32_t ShardOf(NodeId source) const {
    return ShardOfNode(source, manifest_.n, manifest_.partition);
  }

  /// Enqueues one request on the owner shard — the hook the serve
  /// transports bind. `algo` must be empty or the manifest's engine
  /// (anything else resolves with kNotFound). Invalid sources resolve
  /// immediately with kInvalidArgument and consume no stream position,
  /// mirroring QueryService's precheck semantics. fresh_seed requests
  /// answer like a freshly loaded engine and consume no position; others
  /// are stamped with the next global position unless the caller already
  /// set an explicit one.
  std::future<QueryResult> SubmitRequest(QueryRequest request);

  /// Aggregated view over all shard services: counters summed, cost
  /// counters accumulated, and percentiles read from the sum of the
  /// shards' latency histograms, so every request weighs the same
  /// whichever shard served it.
  ServiceStats Stats() const;

 private:
  ShardRouter() = default;

  ShardManifest manifest_;
  /// Loaded graphs, deduplicated by resolved artifact path. Declared
  /// before services_: engines hold const Graph&, so the graphs must be
  /// destroyed after every service has drained.
  std::vector<std::unique_ptr<Graph>> graphs_;
  std::vector<std::unique_ptr<QueryService>> services_;  ///< one per shard
  std::atomic<uint64_t> next_position_{0};
  /// Requests that arrived at the router already expired: refused before
  /// consuming a global stream position (so one shard shedding never
  /// shifts another shard's positional seeds), folded into
  /// Stats().deadline_exceeded alongside the per-shard counters.
  std::atomic<uint64_t> expired_at_router_{0};
};

}  // namespace prsim

#endif  // PRSIM_CORE_SHARD_ROUTER_H_
