// QueryService + pool-backed BatchQuery: deterministic batch results at any
// thread count and positional seeds, engine exceptions rethrown after every
// chunk finishes, bounded-queue backpressure, failure isolation, latency
// percentile monotonicity, and cold start from index artifacts.

#include "core/query_service.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_query.h"
#include "core/engine_config.h"
#include "core/engine_registry.h"
#include "core/prsim.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace prsim {
namespace {

using ::prsim::testing::MakeRandomDigraph;

EngineConfig ParseConfig(const std::string& params) {
  auto parsed = EngineConfig::Parse(params);
  parsed.status().Abort();
  return std::move(parsed).ValueOrDie();
}

std::unique_ptr<SingleSourceSimRank> MakeReadyEngine(
    const Graph& graph, const std::string& algo, const std::string& params) {
  auto engine = EngineRegistry::Global().Create(algo, graph, params);
  engine.status().Abort();
  auto ready = std::move(engine).ValueOrDie();
  ready->Preprocess().Abort();
  return ready;
}

std::vector<NodeId> CyclingSources(NodeId n, size_t count) {
  std::vector<NodeId> sources(count);
  for (size_t i = 0; i < count; ++i) {
    sources[i] = static_cast<NodeId>((i * 7 + 3) % n);
  }
  return sources;
}

// ---------------------------------------------------------------------------
// Pool-backed BatchQuery determinism (the PR's bit-identity contract).
// ---------------------------------------------------------------------------

TEST(BatchQueryPoolTest, PersistentEnginesAreThreadCountInvariant) {
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
  const auto sources = CyclingSources(g.n(), 40);
  for (const auto& config : kConfigs) {
    SCOPED_TRACE(config.algo);
    const auto leader = MakeReadyEngine(g, config.algo, config.params);
    const auto baseline = BatchQuery(*leader, sources, /*threads=*/1);
    for (size_t threads : {2u, 7u, static_cast<unsigned>(DefaultThreadCount())}) {
      const auto scores = BatchQuery(*leader, sources, threads);
      ASSERT_EQ(scores.size(), baseline.size());
      for (size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(scores[i], baseline[i])
            << config.algo << " diverged at position " << i << " with "
            << threads << " threads";
      }
    }
  }
}

TEST(BatchQueryPoolTest, ThousandQueryBatchReportsLatencyPercentiles) {
  const Graph g = MakeRandomDigraph(100, 400, /*seed=*/5);
  const auto leader = MakeReadyEngine(g, "prsim", "eps=0.5,seed=3,threads=1");
  const auto sources = CyclingSources(g.n(), 1000);
  const auto serial = BatchQueryWithStats(*leader, sources, /*threads=*/1);
  const auto pooled = BatchQueryWithStats(*leader, sources, /*threads=*/4);
  ASSERT_EQ(serial.scores.size(), 1000u);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(pooled.scores[i], serial.scores[i]) << "position " << i;
  }
  for (const QueryCost& cost : {serial.cost, pooled.cost}) {
    EXPECT_GT(cost.walks, 0u);
    EXPECT_GT(cost.latency_p50_seconds, 0.0);
    EXPECT_LE(cost.latency_p50_seconds, cost.latency_p95_seconds);
    EXPECT_LE(cost.latency_p95_seconds, cost.latency_p99_seconds);
  }
}

// ---------------------------------------------------------------------------
// QueryService behavior over real engines.
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, SingleWorkerServiceReplaysBatchQueryBitForBit) {
  const Graph g = MakeRandomDigraph(90, 350, /*seed=*/2);
  const auto leader = MakeReadyEngine(g, "prsim", "eps=0.4,seed=9,threads=1");
  const auto sources = CyclingSources(g.n(), 25);
  const auto expected = BatchQuery(*leader, sources, /*threads=*/1);

  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("prsim", leader->CloneWithSeed(leader->seed())).ok());
  for (size_t i = 0; i < sources.size(); ++i) {
    if (i == 5) {
      // An invalid request interleaved into the stream must not consume a
      // positional seed — the valid queries after it still replay the
      // batch bit for bit.
      EXPECT_FALSE(service.Submit({"prsim", 100000, 0}).get().status.ok());
    }
    const QueryResult result =
        service.Submit({"prsim", sources[i], /*k=*/0}).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.scores, expected[i]) << "request " << i;
    EXPECT_GT(result.latency_seconds, 0.0);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, sources.size());  // prechecked failures excluded
  EXPECT_EQ(stats.completed, sources.size());
  EXPECT_EQ(stats.failed, 1u);
}

// Submitting from a worker of a *different* pool (here: the shared pool,
// as a ParallelFor callback would) is allowed — only the service's own
// workers are forbidden, since only they can deadlock its queue.
TEST(QueryServiceTest, SubmitFromForeignPoolWorkerIsAllowed) {
  const Graph g = MakeRandomDigraph(60, 200, /*seed=*/8);
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  ASSERT_TRUE(service.AddEngine("prsim", g, ParseConfig("eps=0.4")).ok());
  auto outer = ThreadPool::Shared().Submit(
      [&service] { return service.Submit({"prsim", 1, 5}).get(); });
  EXPECT_TRUE(outer.get().status.ok());
}

TEST(QueryServiceTest, TopKRequestsReturnTopK) {
  const Graph g = MakeRandomDigraph(80, 300, /*seed=*/4);
  const auto leader = MakeReadyEngine(g, "prsim", "eps=0.4,seed=1,threads=1");
  const auto expected = BatchQuery(*leader, {5}, /*threads=*/1);

  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("prsim", leader->CloneWithSeed(leader->seed())).ok());
  const QueryResult result = service.Submit({"prsim", 5, /*k=*/4}).get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.scores, TopK(expected[0], 4, 5));
}

TEST(QueryServiceTest, EmptyAlgoSelectsTheServicesEngine) {
  const Graph g = MakeRandomDigraph(60, 200, /*seed=*/8);
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  ASSERT_TRUE(service.AddEngine("probesim", g, ParseConfig("eps=0.4")).ok());
  const QueryResult result = service.Submit({"", 3, 5}).get();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  const QueryResult named = service.Submit({"probesim", 3, 5}).get();
  EXPECT_TRUE(named.status.ok()) << named.status.ToString();
}

TEST(QueryServiceTest, InvalidRequestsFailWithoutPoisoningTheService) {
  const Graph g = MakeRandomDigraph(60, 200, /*seed=*/8);
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  ASSERT_TRUE(service.AddEngine("prsim", g, ParseConfig("eps=0.4")).ok());

  const QueryResult unknown = service.Submit({"nonesuch", 0, 0}).get();
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound);
  const QueryResult out_of_range = service.Submit({"prsim", 10000, 0}).get();
  EXPECT_EQ(out_of_range.status.code(), StatusCode::kInvalidArgument);

  const QueryResult good = service.Submit({"prsim", 1, 5}).get();
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(service.pending(), 0u);
}

TEST(QueryServiceTest, SecondEngineIsAlreadyExistsBeforeAndAfterSubmit) {
  // A service holds one engine: a second one of any name is refused,
  // whether requests have been served yet or not, and the first keeps
  // answering.
  const Graph g = MakeRandomDigraph(60, 200, /*seed=*/8);
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  ASSERT_TRUE(service.AddEngine("prsim", g, ParseConfig("eps=0.4")).ok());
  EXPECT_EQ(service.AddEngine("prsim", g, ParseConfig("eps=0.4")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(service.AddEngine("probesim", g, ParseConfig("eps=0.4")).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(service.Submit({"prsim", 1, 3}).get().status.ok());
  EXPECT_EQ(service.AddEngine("prsim", g, ParseConfig("eps=0.4")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(service.AddEngine("probesim", g, ParseConfig("eps=0.4")).code(),
            StatusCode::kAlreadyExists);
  const QueryResult foreign = service.Submit({"probesim", 1, 3}).get();
  EXPECT_EQ(foreign.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(service.Submit({"prsim", 2, 3}).get().status.ok());
}

TEST(QueryServiceTest, ColdStartFromIndexMatchesFreshEngine) {
  const Graph g = MakeRandomDigraph(90, 350, /*seed=*/2);
  const std::string params = "eps=0.4,seed=9,threads=1";
  const auto leader = MakeReadyEngine(g, "prsim", params);
  const auto artifact =
      std::filesystem::temp_directory_path() /
      ("query_service_test_" + std::to_string(::getpid()) + ".idx");
  ASSERT_TRUE(leader->SaveIndex(artifact.string()).ok());

  const auto sources = CyclingSources(g.n(), 10);
  const auto expected = BatchQuery(*leader, sources, /*threads=*/1);
  {
    QueryServiceOptions options;
    options.threads = 1;
    QueryService service(options);
    ASSERT_TRUE(service
                    .AddEngineFromIndex("prsim", g, ParseConfig(params),
                                        artifact.string())
                    .ok());
    for (size_t i = 0; i < sources.size(); ++i) {
      const QueryResult result = service.Submit({"prsim", sources[i], 0}).get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(result.scores, expected[i]) << "request " << i;
    }
  }
  std::filesystem::remove(artifact);
}

// ---------------------------------------------------------------------------
// Failure isolation and backpressure, driven by a controllable fake engine.
// ---------------------------------------------------------------------------

/// Deterministic engine with a configurable per-query delay and a poison
/// source that throws, shared across all clones.
class FakeEngine : public SingleSourceSimRank {
 public:
  struct Control {
    std::atomic<int> queries{0};
    std::atomic<int> clones{0};
    NodeId poison_source = static_cast<NodeId>(-1);
    std::chrono::milliseconds delay{0};
  };

  FakeEngine(NodeId n, uint64_t seed, std::shared_ptr<Control> control)
      : n_(n), seed_(seed), control_(std::move(control)) {}

  std::string name() const override { return "Fake"; }
  NodeId node_count() const override { return n_; }

  ScoreList Query(NodeId u) override {
    if (control_->delay.count() > 0) {
      std::this_thread::sleep_for(control_->delay);
    }
    control_->queries.fetch_add(1);
    if (u == control_->poison_source) {
      throw std::runtime_error("poisoned source");
    }
    cost_ = {};
    cost_.walks = 1;
    return {{u, 1.0},
            {(u + 1) % n_, static_cast<double>(seed_ % 97) / 100.0}};
  }

  std::unique_ptr<SingleSourceSimRank> CloneWithSeed(
      uint64_t seed) const override {
    control_->clones.fetch_add(1);
    return std::make_unique<FakeEngine>(n_, seed, control_);
  }
  uint64_t seed() const override { return seed_; }
  void Reseed(uint64_t seed) override { seed_ = seed; }

 private:
  NodeId n_;
  uint64_t seed_;
  std::shared_ptr<Control> control_;
};

TEST(BatchQueryPoolTest, EngineExceptionRethrowsAfterEveryChunkFinishes) {
  // Nine sources in three static chunks of three, one poisoned source per
  // run. Its chunk stops there; the other two chunks answer all three of
  // their sources, and only then does the call rethrow on the caller.
  for (size_t poisoned_chunk : {0u, 1u, 2u}) {
    SCOPED_TRACE(poisoned_chunk);
    auto control = std::make_shared<FakeEngine::Control>();
    control->poison_source = 40;
    control->delay = std::chrono::milliseconds(10);
    const FakeEngine leader(50, 1, control);
    std::vector<NodeId> sources = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    sources[poisoned_chunk * 3 + 1] = 40;
    try {
      BatchQueryWithStats(leader, sources, /*threads=*/3);
      ADD_FAILURE() << "the poisoned source did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "poisoned source");
    }
    // 2 queries in the poisoned chunk (the second one threw) + 3 + 3.
    EXPECT_EQ(control->queries.load(), 8);
  }
}

TEST(BatchQueryPoolTest, MintsOneClonePerStaticChunk) {
  // `threads` static chunks of ceil(n / threads) sources, capped at one
  // source per chunk; each chunk mints one clone.
  const struct {
    size_t sources;
    size_t threads;
    int chunks;
  } kCases[] = {{9, 1, 1}, {9, 3, 3}, {10, 4, 4}, {5, 4, 3}, {5, 8, 5}};
  for (const auto& c : kCases) {
    SCOPED_TRACE(std::to_string(c.sources) + " sources, " +
                 std::to_string(c.threads) + " threads");
    auto control = std::make_shared<FakeEngine::Control>();
    const FakeEngine leader(50, 1, control);
    BatchQuery(leader, CyclingSources(50, c.sources), c.threads);
    EXPECT_EQ(control->clones.load(), c.chunks);
    EXPECT_EQ(control->queries.load(), static_cast<int>(c.sources));
  }
}

TEST(BatchQueryPoolTest, EachPositionAnswersLikeAPRSimSeededForIt) {
  // The positional-seed scheme, pinned: position i of a batch answers
  // exactly as a PRSim seeded BatchQuerySeed(leader seed, i) that shares
  // the leader's index, whichever chunk runs it.
  const Graph g = MakeRandomDigraph(300, 1500, /*seed=*/21);
  PRSimOptions options;
  options.eps = 0.2;
  options.seed = 77;
  PRSim leader(g, options);
  ASSERT_TRUE(leader.Preprocess().ok());
  const std::vector<NodeId> sources = {3, 50, 3, 120, 299};
  const auto batch = BatchQuery(leader, sources, /*threads=*/3);
  ASSERT_EQ(batch.size(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    PRSimOptions per_position = options;
    per_position.seed = internal::BatchQuerySeed(options.seed, i);
    PRSim engine(g, per_position);
    engine.ShareIndexFrom(leader);
    EXPECT_EQ(engine.Query(sources[i]), batch[i]) << "position " << i;
  }
  // A duplicated source is a fresh estimate at its own position, and the
  // whole batch repeats exactly.
  EXPECT_NE(batch[0], batch[2]);
  EXPECT_EQ(BatchQuery(leader, sources, /*threads=*/1), batch);
}

TEST(BatchQueryPoolTest, IndexFreeEnginesAreThreadCountInvariant) {
  const Graph g = MakeRandomDigraph(40, 160, /*seed=*/13);
  const struct {
    const char* algo;
    const char* params;
  } kConfigs[] = {
      {"probesim", "eps=0.4,seed=7"},
      {"montecarlo", "samples=500,seed=7"},
  };
  const std::vector<NodeId> sources = {0, 4, 7};
  for (const auto& config : kConfigs) {
    SCOPED_TRACE(config.algo);
    const auto leader = MakeReadyEngine(g, config.algo, config.params);
    const auto serial = BatchQuery(*leader, sources, /*threads=*/1);
    const auto parallel = BatchQuery(*leader, sources, /*threads=*/3);
    ASSERT_EQ(serial.size(), sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i]) << "position " << i;
      EXPECT_DOUBLE_EQ(ScoreOf(serial[i], sources[i]), 1.0);
    }
  }
}

TEST(QueryServiceTest, EngineExceptionDoesNotPoisonThePool) {
  auto control = std::make_shared<FakeEngine::Control>();
  control->poison_source = 3;
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());

  const QueryResult poisoned = service.Submit({"fake", 3, 0}).get();
  EXPECT_EQ(poisoned.status.code(), StatusCode::kInternal);
  EXPECT_NE(poisoned.status.message().find("poisoned source"),
            std::string::npos);
  for (NodeId u : {1u, 2u, 4u, 5u}) {
    const QueryResult result = service.Submit({"fake", u, 0}).get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_EQ(result.scores.size(), 2u);
    EXPECT_EQ(result.scores[0].first, u);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(QueryServiceTest, RejectPolicyShedsLoadWhenQueueIsFull) {
  auto control = std::make_shared<FakeEngine::Control>();
  control->delay = std::chrono::milliseconds(25);
  QueryServiceOptions options;
  options.threads = 1;
  options.max_queue = 2;
  options.backpressure = QueryServiceOptions::Backpressure::kReject;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(service.Submit({"fake", 1, 0}));
  }
  size_t rejected = 0;
  size_t completed = 0;
  for (auto& future : futures) {
    const QueryResult result = future.get();
    if (result.status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
    } else if (result.status.ok()) {
      ++completed;
    }
  }
  EXPECT_EQ(rejected + completed, 10u);
  // One 25 ms query per worker slot: ten instant submits against a queue of
  // two must shed at least one request and serve at least the first.
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(completed, 1u);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, completed);
}

TEST(QueryServiceTest, RejectPolicyAnswersCacheHitsWhileRefusingMisses) {
  auto control = std::make_shared<FakeEngine::Control>();
  QueryServiceOptions options;
  options.threads = 1;
  // max_queue bounds queued + executing: busy + queued fill it below.
  options.max_queue = 2;
  options.cache_bytes = 1 << 20;
  options.backpressure = QueryServiceOptions::Backpressure::kReject;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());

  // Warm the cache with a fresh-seed answer for source 5.
  QueryRequest warm;
  warm.algo = "fake";
  warm.source = 5;
  warm.fresh_seed = true;
  ASSERT_TRUE(service.Submit(std::move(warm)).get().status.ok());

  // Saturate the service: one request executing (~150 ms), one queued.
  control->delay = std::chrono::milliseconds(150);
  auto busy = service.Submit({"fake", 1, 0});
  auto queued = service.Submit({"fake", 2, 0});

  // A cache hit still answers instantly — no queue involved...
  QueryRequest hit;
  hit.algo = "fake";
  hit.source = 5;
  hit.fresh_seed = true;
  const QueryResult hit_result = service.Submit(std::move(hit)).get();
  EXPECT_TRUE(hit_result.status.ok()) << hit_result.status.ToString();

  // ...while a cache miss finds the queue full and is refused at once.
  QueryRequest miss;
  miss.algo = "fake";
  miss.source = 7;
  miss.fresh_seed = true;
  const QueryResult refused = service.Submit(std::move(miss)).get();
  EXPECT_EQ(refused.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status.message().find("query queue full (2)"),
            std::string::npos)
      << refused.status.ToString();

  EXPECT_TRUE(busy.get().status.ok());
  EXPECT_TRUE(queued.get().status.ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(QueryServiceTest, BlockPolicyCompletesEverythingWithTinyQueue) {
  auto control = std::make_shared<FakeEngine::Control>();
  control->delay = std::chrono::milliseconds(2);
  QueryServiceOptions options;
  options.threads = 2;
  options.max_queue = 1;
  options.backpressure = QueryServiceOptions::Backpressure::kBlock;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service.Submit({"fake", 2, 0}));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(QueryServiceTest, LatencyPercentilesAreMonotoneAndCostsSum) {
  auto control = std::make_shared<FakeEngine::Control>();
  control->delay = std::chrono::milliseconds(1);
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(service.Submit({"fake", static_cast<NodeId>(i % 50), 0}));
  }
  for (auto& future : futures) future.get();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 40u);
  EXPECT_GT(stats.p50_seconds, 0.0);
  EXPECT_LE(stats.p50_seconds, stats.p95_seconds);
  EXPECT_LE(stats.p95_seconds, stats.p99_seconds);
  EXPECT_EQ(stats.aggregate_cost.walks, 40u);
}

// ---------------------------------------------------------------------------
// Deadlines, shedding and fault points.
// ---------------------------------------------------------------------------

TEST(QueryServiceDeadlineTest, ZeroBudgetIsRefusedWithoutConsumingASeed) {
  auto control = std::make_shared<FakeEngine::Control>();
  QueryServiceOptions options;
  options.threads = 1;

  // Service A sees an expired request interleaved into its positional
  // stream; service B never does. Their positional answers must match
  // element for element — the expired request consumed no seq.
  QueryService with_expired(options);
  QueryService reference(options);
  ASSERT_TRUE(with_expired
                  .AddEngine("fake", std::make_unique<FakeEngine>(50, 1,
                                                                  control))
                  .ok());
  ASSERT_TRUE(
      reference
          .AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());

  QueryRequest expired;
  expired.algo = "fake";
  expired.source = 2;
  expired.deadline_ms = 0;
  const QueryResult refused = with_expired.Submit(std::move(expired)).get();
  EXPECT_EQ(refused.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(refused.status.message().find("deadline expired before admission"),
            std::string::npos)
      << refused.status.ToString();

  for (NodeId u : {4u, 9u, 14u}) {
    const QueryResult a = with_expired.Submit({"fake", u, 0}).get();
    const QueryResult b = reference.Submit({"fake", u, 0}).get();
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_EQ(a.scores, b.scores) << "seq shifted by the expired request";
  }

  const ServiceStats stats = with_expired.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.shed, 0u);
  // Admission refusals are not accepted requests: the accounting identity
  // submitted == completed + failed holds over the accepted stream.
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(QueryServiceDeadlineTest, AbsoluteDeadlineInThePastIsRefused) {
  auto control = std::make_shared<FakeEngine::Control>();
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());
  QueryRequest request;
  request.algo = "fake";
  request.source = 1;
  request.deadline_at =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const QueryResult result = service.Submit(std::move(request)).get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryServiceDeadlineTest, DeadlineBoundsTheBlockingCapacityWait) {
  // kBlock backpressure normally parks Submit() until a slot frees; a
  // deadline turns that into a bounded wait that fails fast.
  auto control = std::make_shared<FakeEngine::Control>();
  control->delay = std::chrono::milliseconds(150);
  QueryServiceOptions options;
  options.threads = 1;
  options.max_queue = 1;
  options.backpressure = QueryServiceOptions::Backpressure::kBlock;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());

  auto busy = service.Submit({"fake", 1, 0});  // occupies the single slot
  QueryRequest bounded;
  bounded.algo = "fake";
  bounded.source = 2;
  bounded.deadline_ms = 30;
  const auto wait_started = std::chrono::steady_clock::now();
  const QueryResult timed_out = service.Submit(std::move(bounded)).get();
  const auto waited = std::chrono::steady_clock::now() - wait_started;
  EXPECT_EQ(timed_out.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(timed_out.status.message().find(
                "deadline expired waiting for queue capacity"),
            std::string::npos)
      << timed_out.status.ToString();
  // It waited about the budget, not the full 150 ms the slot stays busy.
  EXPECT_LT(waited, std::chrono::milliseconds(140));
  EXPECT_TRUE(busy.get().status.ok());
  EXPECT_EQ(service.Stats().deadline_exceeded, 1u);
}

TEST(QueryServiceDeadlineTest, QueuedRequestsAreSweptOnceExpired) {
  auto control = std::make_shared<FakeEngine::Control>();
  control->delay = std::chrono::milliseconds(120);
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());

  auto busy = service.Submit({"fake", 1, 0});  // executing ~120 ms
  QueryRequest doomed;
  doomed.algo = "fake";
  doomed.source = 2;
  doomed.deadline_ms = 20;  // expires while queued behind `busy`
  auto doomed_future = service.Submit(std::move(doomed));
  auto after = service.Submit({"fake", 3, 0});

  const QueryResult swept = doomed_future.get();
  EXPECT_EQ(swept.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(swept.status.message().find("deadline expired in queue"),
            std::string::npos)
      << swept.status.ToString();
  EXPECT_GT(swept.latency_seconds, 0.0);
  EXPECT_TRUE(busy.get().status.ok());
  EXPECT_TRUE(after.get().status.ok());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  // A swept request was accepted, so it counts as submitted AND failed —
  // the identity over accepted requests still holds.
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(QueryServiceDeadlineTest, PredictiveShedRefusesDoomedRequests) {
  auto control = std::make_shared<FakeEngine::Control>();
  control->delay = std::chrono::milliseconds(40);
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());

  // Establish the execution-time EWMA (~40 ms per query).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit({"fake", 1, 0}).get().status.ok());
  }

  // A 5 ms budget cannot survive a ~40 ms expected service time: shed at
  // admission, before consuming a queue slot or a seq.
  QueryRequest tight;
  tight.algo = "fake";
  tight.source = 2;
  tight.deadline_ms = 5;
  const QueryResult shed = service.Submit(std::move(tight)).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(
      shed.status.message().find("shed: queue wait predicts deadline miss"),
      std::string::npos)
      << shed.status.ToString();

  // A generous budget sails through under the same EWMA.
  QueryRequest roomy;
  roomy.algo = "fake";
  roomy.source = 2;
  roomy.deadline_ms = 10000;
  EXPECT_TRUE(service.Submit(std::move(roomy)).get().status.ok());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(QueryServiceFaultTest, InjectedEngineThrowsReplayDeterministically) {
  // engine.query.throw is evaluated once per executed request, so with a
  // sequential single-worker service the set of failing request indices is
  // a pure function of (spec, seed) — the chaos CI determinism contract.
  auto run = [] {
    auto control = std::make_shared<FakeEngine::Control>();
    QueryServiceOptions options;
    options.threads = 1;
    QueryService service(options);
    service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
        .Abort();
    std::vector<int> failed_indices;
    for (int i = 0; i < 24; ++i) {
      const QueryResult result =
          service.Submit({"fake", static_cast<NodeId>(i % 50), 0}).get();
      if (!result.status.ok()) {
        EXPECT_EQ(result.status.code(), StatusCode::kInternal);
        EXPECT_NE(result.status.message().find(
                      "injected fault: engine.query.throw"),
                  std::string::npos)
            << result.status.ToString();
        failed_indices.push_back(i);
      }
    }
    return failed_indices;
  };

  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("engine.query.throw=1/3", /*seed=*/11)
                  .ok());
  const std::vector<int> first = run();
  EXPECT_FALSE(first.empty()) << "1/3 over 24 requests must fire";
  EXPECT_LT(first.size(), 24u) << "some requests must survive";

  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("engine.query.throw=1/3", /*seed=*/11)
                  .ok());
  EXPECT_EQ(run(), first);
  FaultInjector::Global().Disable();
}

TEST(QueryServiceFaultTest, InjectedPickupStallDelaysButAnswers) {
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("worker.pickup.stall=1/1:30", /*seed=*/3)
                  .ok());
  auto control = std::make_shared<FakeEngine::Control>();
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  ASSERT_TRUE(
      service.AddEngine("fake", std::make_unique<FakeEngine>(50, 1, control))
          .ok());
  const QueryResult result = service.Submit({"fake", 1, 0}).get();
  FaultInjector::Global().Disable();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  // The stall is charged to the request's wall time.
  EXPECT_GE(result.latency_seconds, 0.025);
}

// ---------------------------------------------------------------------------
// ServiceStatsJson golden round trip.
// ---------------------------------------------------------------------------

// Pulls `"field":value` out of a JSON line built by ServiceStatsJson. The
// line is flat (no nesting), so a string scan is an exact parser for it.
std::string JsonField(const std::string& json, const std::string& field) {
  const std::string needle = "\"" + field + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing field " << field << ": " << json;
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  size_t end = json.find_first_of(",}", begin);
  EXPECT_NE(end, std::string::npos) << json;
  return json.substr(begin, end - begin);
}

TEST(ServiceStatsJsonTest, EveryFieldRoundTripsThroughTheJsonLine) {
  // Distinct values per field so a swapped format argument cannot pass.
  ServiceStats stats;
  stats.submitted = 101;
  stats.completed = 89;
  stats.failed = 7;
  stats.rejected = 5;
  stats.deadline_exceeded = 11;
  stats.shed = 13;
  stats.queue_high_water = 64;
  stats.p50_seconds = 0.0015;   // 1.5 ms
  stats.p95_seconds = 0.0625;   // 62.5 ms
  stats.p99_seconds = 0.25;     // 250 ms
  stats.cache_hits = 4242;
  stats.cache_misses = 17;
  stats.cache_coalesced = 9;
  stats.cache_evictions = 3;
  stats.cache_bytes = 123456;

  const std::string json = ServiceStatsJson(stats, "tcp");
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must be a single line";
  EXPECT_EQ(JsonField(json, "event"), "\"serve_stats\"");
  EXPECT_EQ(JsonField(json, "transport"), "\"tcp\"");
  EXPECT_EQ(JsonField(json, "accepted"), "101");
  EXPECT_EQ(JsonField(json, "completed"), "89");
  EXPECT_EQ(JsonField(json, "failed"), "7");
  EXPECT_EQ(JsonField(json, "rejected"), "5");
  EXPECT_EQ(JsonField(json, "deadline_exceeded"), "11");
  EXPECT_EQ(JsonField(json, "shed"), "13");
  EXPECT_EQ(JsonField(json, "queue_high_water"), "64");
  EXPECT_DOUBLE_EQ(std::stod(JsonField(json, "p50_ms")), 1.5);
  EXPECT_DOUBLE_EQ(std::stod(JsonField(json, "p95_ms")), 62.5);
  EXPECT_DOUBLE_EQ(std::stod(JsonField(json, "p99_ms")), 250.0);
  EXPECT_EQ(JsonField(json, "cache_hits"), "4242");
  EXPECT_EQ(JsonField(json, "cache_misses"), "17");
  EXPECT_EQ(JsonField(json, "cache_coalesced"), "9");
  EXPECT_EQ(JsonField(json, "cache_evictions"), "3");
  EXPECT_EQ(JsonField(json, "cache_bytes"), "123456");

  // All-zero stats still produce every field (schema stability for the
  // log scrapers in CI).
  const std::string zero = ServiceStatsJson(ServiceStats{}, "stdio");
  for (const char* field :
       {"accepted", "completed", "failed", "rejected", "deadline_exceeded",
        "shed", "queue_high_water", "p50_ms", "p95_ms", "p99_ms",
        "cache_hits", "cache_misses", "cache_coalesced", "cache_evictions",
        "cache_bytes"}) {
    EXPECT_EQ(std::stod(JsonField(zero, field)), 0.0) << field;
  }
}

TEST(QueryServiceTest, SubmitWithoutEnginesFails) {
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  const QueryResult result = service.Submit({"prsim", 0, 0}).get();
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace prsim
