// Tests for the hot-source result cache (core/result_cache.h) and its
// integration into QueryService:
//  * cached vs uncached fresh_seed replies are bit-identical for every
//    persistent engine, at k = 0 and k > 0
//  * positional (non-fresh) requests bypass the cache entirely — a
//    BatchQuery replay is unaffected by cache state or interleaved fresh
//    traffic
//  * singleflight collapses K concurrent identical misses into one engine
//    query (run under TSan via the concurrency label)
//  * the byte budget evicts in LRU order
//  * a rejected or failed leader still resolves its waiters, and they are
//    counted as failed

#include "core/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_query.h"
#include "core/engine_registry.h"
#include "core/query_service.h"
#include "test_util.h"

namespace prsim {
namespace {

using ::prsim::testing::MakeRandomDigraph;

std::unique_ptr<SingleSourceSimRank> MakeReadyEngine(
    const Graph& graph, const std::string& algo, const std::string& params) {
  auto engine = EngineRegistry::Global().Create(algo, graph, params);
  engine.status().Abort();
  auto ready = std::move(engine).ValueOrDie();
  ready->Preprocess().Abort();
  return ready;
}

QueryRequest FreshRequest(const std::string& algo, NodeId source, uint32_t k) {
  QueryRequest request;
  request.algo = algo;
  request.source = source;
  request.k = k;
  request.fresh_seed = true;
  return request;
}

ScoreList MakeScores(std::initializer_list<ScoreEntry> entries) {
  ScoreList scores;
  scores.reserve(entries.size());  // pin capacity so entry costs are equal
  for (const auto& entry : entries) scores.push_back(entry);
  return scores;
}

// ---------------------------------------------------------------------------
// Direct ResultCache API.
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, LeaderPublishesThenIdenticalLookupHits) {
  ResultCache cache(1 << 20);
  const NodeId source = 3;

  auto first = cache.Lookup(source, /*k=*/0, WallTimer());
  ASSERT_EQ(first.role, ResultCache::Role::kLeader);
  const auto scores = std::make_shared<const ScoreList>(
      MakeScores({{3, 1.0}, {4, 0.5}, {5, 0.25}}));
  const auto published = cache.Publish(source, Status::OK(), scores);
  EXPECT_EQ(published.ok_waiters, 0u);
  EXPECT_EQ(published.failed_waiters, 0u);

  auto hit = cache.Lookup(source, /*k=*/0, WallTimer());
  ASSERT_EQ(hit.role, ResultCache::Role::kHit);
  ASSERT_NE(hit.hit_scores, nullptr);
  EXPECT_EQ(*hit.hit_scores, *scores);

  // A different source is a distinct entry: new leader. Publish to keep the
  // leader contract (and so the flight table drains).
  const NodeId other = 4;
  EXPECT_EQ(cache.Lookup(other, 0, WallTimer()).role,
            ResultCache::Role::kLeader);
  cache.Publish(other, Status::OK(), scores);

  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ResultCacheTest, CachedResultDerivesTopKWithEngineTieBreaking) {
  const auto scores = std::make_shared<const ScoreList>(
      MakeScores({{0, 0.5}, {1, 0.25}, {2, 1.0}, {3, 0.25}, {4, 0.1}}));
  // k = 0 returns the full vector verbatim.
  const QueryResult full = ResultCache::CachedResult(scores, 0, /*source=*/2,
                                                     /*latency_seconds=*/0.5);
  ASSERT_TRUE(full.status.ok());
  EXPECT_EQ(full.scores, *scores);
  EXPECT_DOUBLE_EQ(full.latency_seconds, 0.5);
  EXPECT_EQ(full.cost.walks, 0u) << "a cache hit does no engine work";
  // k > 0 must match core/single_source.h's TopK exactly (ties broken by
  // ascending id: node 1 beats node 3 at 0.25).
  const QueryResult top = ResultCache::CachedResult(scores, 2, 2, 0.0);
  EXPECT_EQ(top.scores, TopK(*scores, 2, 2));
  ASSERT_EQ(top.scores.size(), 2u);
  EXPECT_EQ(top.scores[0].first, 0u);
  EXPECT_EQ(top.scores[1].first, 1u);
}

TEST(ResultCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Each published vector has exactly 2 reserved entries, so all entries
  // cost the same; a budget of 2.5x that cost holds two of them.
  const auto scores_a =
      std::make_shared<const ScoreList>(MakeScores({{1, 1.0}, {2, 0.5}}));
  const size_t entry_cost =
      sizeof(ScoreList) + scores_a->capacity() * sizeof(ScoreEntry) + 64;
  ResultCache cache(entry_cost * 5 / 2);
  const NodeId a = 1;
  const NodeId b = 2;
  const NodeId c = 3;
  for (const NodeId source : {a, b}) {
    ASSERT_EQ(cache.Lookup(source, 0, WallTimer()).role,
              ResultCache::Role::kLeader);
    cache.Publish(source, Status::OK(), scores_a);
  }
  // Touch A so B is the LRU victim when C arrives.
  ASSERT_EQ(cache.Lookup(a, 0, WallTimer()).role, ResultCache::Role::kHit);
  ASSERT_EQ(cache.Lookup(c, 0, WallTimer()).role, ResultCache::Role::kLeader);
  cache.Publish(c, Status::OK(), scores_a);

  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, entry_cost * 5 / 2);
  EXPECT_EQ(cache.Lookup(a, 0, WallTimer()).role, ResultCache::Role::kHit);
  EXPECT_EQ(cache.Lookup(b, 0, WallTimer()).role, ResultCache::Role::kLeader)
      << "B was the least recently used entry and must be gone";
  cache.Publish(b, Status::OK(), scores_a);
}

TEST(ResultCacheTest, FailedPublishResolvesWaitersWithTheStatus) {
  ResultCache cache(1 << 20);
  const NodeId source = 5;
  ASSERT_EQ(cache.Lookup(source, 0, WallTimer()).role,
            ResultCache::Role::kLeader);
  auto waiter_a = cache.Lookup(source, /*k=*/3, WallTimer());
  auto waiter_b = cache.Lookup(source, /*k=*/0, WallTimer());
  ASSERT_EQ(waiter_a.role, ResultCache::Role::kWaiter);
  ASSERT_EQ(waiter_b.role, ResultCache::Role::kWaiter);

  const auto published =
      cache.Publish(source, Status::ResourceExhausted("queue full"), nullptr);
  EXPECT_EQ(published.ok_waiters, 0u);
  EXPECT_EQ(published.failed_waiters, 2u);
  for (auto* waiter : {&waiter_a, &waiter_b}) {
    const QueryResult result = waiter->waiter_future.get();
    EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(result.scores.empty());
  }
  // Nothing was cached; the next lookup leads again.
  EXPECT_EQ(cache.Lookup(source, 0, WallTimer()).role,
            ResultCache::Role::kLeader);
  cache.Publish(source, Status::OK(),
                std::make_shared<const ScoreList>(MakeScores({{5, 1.0}})));
}

TEST(ResultCacheTest, ConcurrentLookupsProduceOneLeaderAndManyWaiters) {
  // K threads race Lookup on one cold key. Exactly one must become the
  // leader; everyone else is a waiter whose future resolves with the
  // leader's published vector shaped to its own k. TSan-covered.
  ResultCache cache(1 << 20);
  const NodeId source = 9;
  const auto scores = std::make_shared<const ScoreList>(
      MakeScores({{9, 1.0}, {1, 0.5}, {2, 0.25}}));

  constexpr int kThreads = 16;
  std::atomic<int> leaders{0};
  std::atomic<int> ok_waiters{0};
  // Counts Lookup calls that have returned. The leader publishes only once
  // every thread has looked up, so no thread can arrive late and see a hit
  // however the scheduler (or TSan's slowdown) orders them. The wait is
  // bounded so a broken cache fails the assertions below instead of
  // hanging.
  std::mutex lookups_mu;
  std::condition_variable lookups_cv;
  int lookups_done = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint32_t k = (t % 2 == 0) ? 0u : 2u;
      auto ticket = cache.Lookup(source, k, WallTimer());
      {
        std::lock_guard<std::mutex> lock(lookups_mu);
        ++lookups_done;
      }
      lookups_cv.notify_all();
      if (ticket.role == ResultCache::Role::kLeader) {
        leaders.fetch_add(1);
        {
          std::unique_lock<std::mutex> lock(lookups_mu);
          lookups_cv.wait_for(lock, std::chrono::seconds(30),
                              [&] { return lookups_done == kThreads; });
        }
        cache.Publish(source, Status::OK(), scores);
      } else {
        ASSERT_EQ(ticket.role, ResultCache::Role::kWaiter);
        const QueryResult result = ticket.waiter_future.get();
        ASSERT_TRUE(result.status.ok());
        EXPECT_EQ(result.scores, k == 0 ? *scores : TopK(*scores, k, 9));
        EXPECT_GE(result.latency_seconds, 0.0);
        ok_waiters.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(ok_waiters.load(), kThreads - 1);
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

// ---------------------------------------------------------------------------
// Service integration: a controllable engine for singleflight timing.
// ---------------------------------------------------------------------------

/// Deterministic engine whose Query can be gated: it signals arrival and
/// blocks until released, so tests can pile waiters onto an in-flight
/// leader with no sleeps-as-synchronization.
class GatedEngine : public SingleSourceSimRank {
 public:
  struct Control {
    std::mutex mu;
    std::condition_variable cv;
    bool gate_open = true;
    int in_query = 0;
    std::atomic<int> queries{0};

    void CloseGate() {
      std::lock_guard<std::mutex> lock(mu);
      gate_open = false;
    }
    void OpenGate() {
      {
        std::lock_guard<std::mutex> lock(mu);
        gate_open = true;
      }
      cv.notify_all();
    }
    void AwaitQueryEntered() {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return in_query > 0; });
    }
  };

  GatedEngine(NodeId n, uint64_t seed, std::shared_ptr<Control> control)
      : n_(n), seed_(seed), control_(std::move(control)) {}

  std::string name() const override { return "Gated"; }
  NodeId node_count() const override { return n_; }

  ScoreList Query(NodeId u) override {
    {
      std::unique_lock<std::mutex> lock(control_->mu);
      ++control_->in_query;
      control_->cv.notify_all();
      control_->cv.wait(lock, [this] { return control_->gate_open; });
      --control_->in_query;
    }
    control_->queries.fetch_add(1);
    cost_ = {};
    cost_.walks = 1;
    // Seed-dependent so a wrong-seed answer is visible in the scores.
    return {{u, 1.0},
            {(u + 1) % n_, static_cast<double>(seed_ % 97) / 100.0}};
  }

  std::unique_ptr<SingleSourceSimRank> CloneWithSeed(
      uint64_t seed) const override {
    return std::make_unique<GatedEngine>(n_, seed, control_);
  }
  uint64_t seed() const override { return seed_; }
  void Reseed(uint64_t seed) override { seed_ = seed; }

 private:
  NodeId n_;
  uint64_t seed_;
  std::shared_ptr<Control> control_;
};

TEST(ResultCacheServiceTest, SingleflightCollapsesConcurrentIdenticalMisses) {
  auto control = std::make_shared<GatedEngine::Control>();
  QueryServiceOptions options;
  options.threads = 2;
  options.cache_bytes = 1 << 20;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("gated", std::make_unique<GatedEngine>(50, 7, control))
          .ok());

  control->CloseGate();
  constexpr int kWaiters = 8;
  std::vector<std::future<QueryResult>> futures;
  futures.push_back(service.Submit(FreshRequest("gated", 5, 0)));  // leader
  control->AwaitQueryEntered();  // the flight is now provably in progress
  for (int i = 0; i < kWaiters; ++i) {
    futures.push_back(service.Submit(FreshRequest("gated", 5, 0)));
  }
  control->OpenGate();

  const QueryResult first = futures[0].get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  for (size_t i = 1; i < futures.size(); ++i) {
    const QueryResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.scores, first.scores) << "waiter " << i;
  }
  EXPECT_EQ(control->queries.load(), 1)
      << "N identical concurrent misses must cost exactly one engine query";

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_coalesced, static_cast<uint64_t>(kWaiters));
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kWaiters + 1));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kWaiters + 1));

  // After the flight lands, the same request is a pure hit.
  const QueryResult hit = service.Submit(FreshRequest("gated", 5, 0)).get();
  ASSERT_TRUE(hit.status.ok());
  EXPECT_EQ(hit.scores, first.scores);
  EXPECT_EQ(control->queries.load(), 1);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
}

TEST(ResultCacheServiceTest, RejectedLeaderFailsWaiterlessAndRecovers) {
  // Fill the tiny queue with positional traffic, then submit a fresh
  // request: its leader is shed by the kReject policy and must still
  // publish (otherwise the key's flight would wedge forever — verified by
  // the successful retry after drain).
  auto control = std::make_shared<GatedEngine::Control>();
  QueryServiceOptions options;
  options.threads = 1;
  options.max_queue = 1;
  options.backpressure = QueryServiceOptions::Backpressure::kReject;
  options.cache_bytes = 1 << 20;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("gated", std::make_unique<GatedEngine>(50, 7, control))
          .ok());

  control->CloseGate();
  QueryRequest positional;
  positional.algo = "gated";
  positional.source = 1;
  auto occupant = service.Submit(positional);
  control->AwaitQueryEntered();  // queue slot is now held by the occupant

  auto shed = service.Submit(FreshRequest("gated", 9, 0));
  const QueryResult shed_result = shed.get();
  EXPECT_EQ(shed_result.status.code(), StatusCode::kResourceExhausted);

  control->OpenGate();
  ASSERT_TRUE(occupant.get().status.ok());

  // The flight for source 9 was published (as a failure), so a retry leads
  // afresh and succeeds.
  const QueryResult retry = service.Submit(FreshRequest("gated", 9, 0)).get();
  ASSERT_TRUE(retry.status.ok()) << retry.status.ToString();
  const ServiceStats stats = service.Stats();
  EXPECT_GE(stats.rejected, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);  // the shed leader and the retry
}

TEST(ResultCacheServiceTest, WaitersOfARefusedLeaderCountAsFailed) {
  // A coalesced waiter is accepted (counted in `submitted`) the moment it
  // joins a flight. When that flight's leader is then refused at
  // admission — here its deadline expires while it blocks for queue
  // capacity — every waiter shares the refusal and must also count as
  // failed, or the drained service breaks submitted == completed + failed.
  auto control = std::make_shared<GatedEngine::Control>();
  QueryServiceOptions options;
  options.threads = 1;
  options.max_queue = 1;
  options.backpressure = QueryServiceOptions::Backpressure::kBlock;
  options.cache_bytes = 1 << 20;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("gated", std::make_unique<GatedEngine>(50, 7, control))
          .ok());

  control->CloseGate();
  QueryRequest positional;
  positional.source = 1;
  auto occupant = service.Submit(positional);
  control->AwaitQueryEntered();  // the only queue slot is now held

  // The leader: a fresh miss with a deadline. It blocks in Submit waiting
  // for capacity, so it runs on a helper thread.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  std::future<QueryResult> leader_future;
  std::thread leader([&] {
    QueryRequest request = FreshRequest("gated", 9, 0);
    request.deadline_at = deadline;
    leader_future = service.Submit(std::move(request));
  });
  // Once the leader has looked up (one miss), fresh requests for the same
  // source join its flight as waiters. The deadline leaves ample time for
  // that; should the leader not get there in time, release everything
  // before failing so the test cannot hang.
  while (service.Stats().cache_misses == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (service.Stats().cache_misses == 0) {
    control->OpenGate();
    leader.join();
    FAIL() << "the leader never reached the cache before its deadline";
  }
  constexpr int kWaiters = 4;
  std::vector<std::future<QueryResult>> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(service.Submit(FreshRequest("gated", 9, 0)));
  }
  EXPECT_EQ(service.Stats().cache_coalesced,
            static_cast<uint64_t>(kWaiters));

  // Let the deadline expire while the slot is still held, then free it.
  std::this_thread::sleep_until(deadline + std::chrono::milliseconds(50));
  leader.join();
  control->OpenGate();
  ASSERT_TRUE(occupant.get().status.ok());
  EXPECT_EQ(leader_future.get().status.code(),
            StatusCode::kDeadlineExceeded);
  for (auto& waiter : waiters) {
    EXPECT_EQ(waiter.get().status.code(), StatusCode::kDeadlineExceeded);
  }

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed)
      << "submitted " << stats.submitted << ", completed " << stats.completed
      << ", failed " << stats.failed;
  EXPECT_EQ(stats.failed, static_cast<uint64_t>(kWaiters));
  EXPECT_EQ(stats.deadline_exceeded, static_cast<uint64_t>(kWaiters + 1));
  EXPECT_EQ(control->queries.load(), 1) << "only the occupant ran";
}

TEST(ResultCacheServiceTest, WorkerThreadRegistryIdentifiesServiceWorkers) {
  // The DCHECK against Submit-from-worker rests on OwnsCurrentThread();
  // prove it is true exactly on the service's own workers.
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(options);
  EXPECT_FALSE(service.OwnsCurrentThread());

  std::atomic<bool> owns_inside{false};
  class Probe : public SingleSourceSimRank {
   public:
    Probe(QueryService* service, std::atomic<bool>* owns)
        : service_(service), owns_(owns) {}
    std::string name() const override { return "Probe"; }
    NodeId node_count() const override { return 8; }
    ScoreList Query(NodeId u) override {
      owns_->store(service_->OwnsCurrentThread());
      return {{u, 1.0}};
    }
    std::unique_ptr<SingleSourceSimRank> CloneWithSeed(uint64_t) const override {
      return std::make_unique<Probe>(service_, owns_);
    }
    uint64_t seed() const override { return 0; }
    void Reseed(uint64_t) override {}

   private:
    QueryService* service_;
    std::atomic<bool>* owns_;
  };
  ASSERT_TRUE(
      service.AddEngine("probe", std::make_unique<Probe>(&service, &owns_inside))
          .ok());
  ASSERT_TRUE(service.Submit({"probe", 1, 0}).get().status.ok());
  EXPECT_TRUE(owns_inside.load())
      << "engine code runs on a service worker; the registry must say so";
}

// ---------------------------------------------------------------------------
// Bit-identity across the real persistent engines.
// ---------------------------------------------------------------------------

TEST(ResultCacheServiceTest, CachedFreshSeedIsBitIdenticalForAllEngines) {
  const Graph g = MakeRandomDigraph(120, 500, /*seed=*/11);
  const struct {
    const char* algo;
    const char* params;
  } kConfigs[] = {
      {"prsim", "eps=0.4,seed=7,threads=1"},
      {"sling", "eps=0.4,seed=7,threads=1"},
      {"reads", "r=10,t=3,seed=7"},
      {"tsf", "rg=10,rq=3,seed=7"},
  };
  const std::vector<NodeId> hot_sources = {3, 10, 17, 24, 31};
  for (const auto& config : kConfigs) {
    SCOPED_TRACE(config.algo);
    const auto leader = MakeReadyEngine(g, config.algo, config.params);

    QueryServiceOptions cold_options;
    cold_options.threads = 1;
    QueryService uncached(cold_options);
    ASSERT_TRUE(uncached
                    .AddEngine(config.algo,
                               leader->CloneWithSeed(leader->seed()))
                    .ok());
    QueryServiceOptions hot_options;
    hot_options.threads = 1;
    hot_options.cache_bytes = 8u << 20;
    QueryService cached(hot_options);
    ASSERT_TRUE(cached
                    .AddEngine(config.algo,
                               leader->CloneWithSeed(leader->seed()))
                    .ok());

    // Three passes over the hot set: pass 0 misses, passes 1-2 hit. Every
    // reply — full vector and top-k — must match the cache-off service bit
    // for bit.
    for (int pass = 0; pass < 3; ++pass) {
      for (const NodeId source : hot_sources) {
        for (const uint32_t k : {0u, 7u}) {
          const QueryResult expect =
              uncached.Submit(FreshRequest(config.algo, source, k)).get();
          const QueryResult got =
              cached.Submit(FreshRequest(config.algo, source, k)).get();
          ASSERT_TRUE(expect.status.ok()) << expect.status.ToString();
          ASSERT_TRUE(got.status.ok()) << got.status.ToString();
          ASSERT_EQ(got.scores, expect.scores)
              << "pass " << pass << " source " << source << " k " << k;
        }
      }
    }
    const ServiceStats cold = uncached.Stats();
    EXPECT_EQ(cold.cache_hits + cold.cache_misses + cold.cache_coalesced, 0u)
        << "cache-off service must not touch cache counters";
    const ServiceStats hot = cached.Stats();
    // Pass 0 k=0 misses and fills; the same pass's k=7 lookup already hits
    // (one entry serves every k). Passes 1-2 hit throughout.
    EXPECT_EQ(hot.cache_misses, hot_sources.size());
    EXPECT_EQ(hot.cache_hits, hot_sources.size() * 5u);
    EXPECT_EQ(hot.cache_coalesced, 0u);
    EXPECT_GT(hot.cache_bytes, 0u);
  }
}

TEST(ResultCacheServiceTest, PositionalRequestsBypassTheCacheEntirely) {
  // A positional replay through a cache-enabled service must (a) never
  // touch the cache and (b) stay bit-identical to BatchQuery even with
  // fresh traffic interleaved — fresh requests don't consume positions.
  const Graph g = MakeRandomDigraph(90, 350, /*seed=*/2);
  const auto leader = MakeReadyEngine(g, "prsim", "eps=0.4,seed=9,threads=1");
  std::vector<NodeId> sources(25);
  for (size_t i = 0; i < sources.size(); ++i) {
    sources[i] = static_cast<NodeId>((i * 7 + 3) % g.n());
  }
  const auto expected = BatchQuery(*leader, sources, /*threads=*/1);

  QueryServiceOptions options;
  options.threads = 1;
  options.cache_bytes = 8u << 20;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("prsim", leader->CloneWithSeed(leader->seed())).ok());
  for (size_t i = 0; i < sources.size(); ++i) {
    if (i % 5 == 0) {
      // Interleaved fresh traffic (including repeats that hit the cache).
      ASSERT_TRUE(
          service.Submit(FreshRequest("prsim", 42, 0)).get().status.ok());
    }
    const QueryResult result =
        service.Submit({"prsim", sources[i], /*k=*/0}).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_EQ(result.scores, expected[i]) << "position " << i;
  }
  const ServiceStats stats = service.Stats();
  // Only the interleaved fresh requests touched the cache: 1 miss + hits.
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 4u);
}

}  // namespace
}  // namespace prsim
