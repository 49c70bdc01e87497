// serve: the server under test, in a process of its own.
//
// It loads the prep artifacts through the entry points `prsim_cli serve`
// uses — GraphIO + QueryService::AddEngineFromIndex for a graph and index,
// ShardRouter::Open for a bundle — and starts net::TcpServer on an
// ephemeral port. Its first stdout line is READY plus a JSON object (port,
// load timings, `ready_ns`). After that it obeys one command per stdin
// line and answers each with one stdout line:
//   stats       lifetime ServiceStats, TcpServerStats and peak RSS
//   trace on    start recording spans (only with --trace 1)
//   trace off   stop recording spans
//   spans PATH  write the recorded spans to PATH and forget them
//   probe PATH  time an offline Query() per recorded engine-run source
//   quit        (or EOF) drain every session and exit
//
// With --trace 1 the engine is wrapped in TimedEngine before it is handed
// to QueryService::AddEngine, and the submit hook is wrapped so each
// request's Submit() call and its resolution are timed. ShardRouter::Open
// builds its engines itself, so on a bundle only the submit hook is
// wrapped and engine time comes from `probe`. Without --trace 1 neither
// wrapper exists: the untraced server is exactly the library's.

#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "core/engine_registry.h"
#include "core/query_service.h"
#include "core/shard_manifest.h"
#include "core/shard_router.h"
#include "graph/io.h"
#include "net/tcp_server.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {

namespace {

/// One request as the wrapped submit hook saw it: Submit() ran over
/// [submit_start_ns, submit_end_ns]. `id` is the request id the load
/// generator carries in seed_position (ignored by fresh_seed requests).
struct SubmitRecord {
  uint64_t id = 0;
  NodeId source = 0;
  int64_t submit_start_ns = 0;
  int64_t submit_end_ns = 0;
  double latency_s = 0;
  /// Walks the answering engine sampled; 0 when no engine ran (cache hit).
  uint64_t walks = 0;
};

class SubmitRecorder {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Add(const SubmitRecord& record) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(record);
  }
  std::vector<SubmitRecord> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(records_, {});
  }
  /// Engine-run sources recorded so far (kept across Take()).
  std::vector<NodeId> engine_sources() {
    std::lock_guard<std::mutex> lock(mu_);
    return engine_sources_;
  }
  void NoteEngineSource(NodeId source) {
    std::lock_guard<std::mutex> lock(mu_);
    engine_sources_.push_back(source);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<SubmitRecord> records_;
  std::vector<NodeId> engine_sources_;
};

prsim::net::SubmitFn Recorded(prsim::net::SubmitFn inner,
                              std::shared_ptr<SubmitRecorder> recorder) {
  return [inner = std::move(inner),
          recorder](prsim::QueryRequest request)
             -> std::future<prsim::QueryResult> {
    if (!recorder->enabled()) return inner(std::move(request));
    const uint64_t id = request.seed_position;
    const NodeId source = request.source;
    const int64_t start = NowNs();
    std::future<prsim::QueryResult> future = inner(std::move(request));
    const int64_t end = NowNs();
    // The session's responder collects futures in request order; a
    // deferred wrapper runs there and records the result.
    return std::async(
        std::launch::deferred,
        [future = std::move(future), recorder, id, source, start,
         end]() mutable {
          prsim::QueryResult result = future.get();
          recorder->Add({id, source, start, end, result.latency_seconds,
                         result.cost.walks});
          if (result.cost.walks > 0) recorder->NoteEngineSource(source);
          return result;
        });
  };
}

std::string CostJson(const QueryCost& cost) {
  return Json()
      .Int("walks", cost.walks)
      .Int("meeting_tests", cost.meeting_tests)
      .Int("backward_walks", cost.backward_walks)
      .Int("backward_increments", cost.backward_increments)
      .Int("index_tuples_read", cost.index_tuples_read)
      .Done();
}

std::string StatsJson(const prsim::ServiceStats& s,
                      const prsim::net::TcpServerStats& t, size_t workers) {
  return Json()
      .Int("submitted", s.submitted)
      .Int("completed", s.completed)
      .Int("failed", s.failed)
      .Int("rejected", s.rejected)
      .Int("deadline_exceeded", s.deadline_exceeded)
      .Int("shed", s.shed)
      .Int("queue_high_water", s.queue_high_water)
      .Int("cache_hits", s.cache_hits)
      .Int("cache_misses", s.cache_misses)
      .Int("cache_coalesced", s.cache_coalesced)
      .Int("cache_evictions", s.cache_evictions)
      .Int("cache_bytes", s.cache_bytes)
      .Raw("cost", CostJson(s.aggregate_cost))
      .Int("net_connections", t.connections)
      .Int("net_requests", t.requests)
      .Int("net_protocol_errors", t.protocol_errors)
      .Int("workers", workers)
      .Num("peak_rss_mb", PeakRssMb())
      .Int("now_ns", static_cast<uint64_t>(NowNs()))
      .Done();
}

prsim::Status WriteSpans(const std::string& path,
                         const std::vector<SubmitRecord>& records,
                         const std::vector<EngineSpan>& engine_spans,
                         const prsim::ShardRouter* router) {
  std::ofstream out(path);
  // One line per record: "S id source shard submit_start submit_end
  // latency_ns walks" and "E source start end".
  for (const SubmitRecord& r : records) {
    const long long shard =
        router != nullptr ? static_cast<long long>(router->ShardOf(r.source))
                          : 0;
    out << "S " << r.id << ' ' << r.source << ' ' << shard << ' '
        << r.submit_start_ns << ' ' << r.submit_end_ns << ' '
        << static_cast<long long>(r.latency_s * 1e9) << ' ' << r.walks
        << '\n';
  }
  for (const EngineSpan& e : engine_spans) {
    out << "E " << e.source << ' ' << e.start_ns << ' ' << e.end_ns << '\n';
  }
  if (!out) return prsim::Status::IOError("cannot write " + path);
  return prsim::Status::OK();
}

int Fail(const prsim::Status& status) {
  std::fprintf(stderr, "serve: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int RunServe(const Flags& flags) {
  const std::string dir = flags.Str("dir", ".");
  const bool trace = flags.Int("trace", 0) != 0;
  const uint32_t shards = static_cast<uint32_t>(flags.Int("shards", 0));
  const size_t threads = flags.Int("threads", 0);
  const size_t cache_bytes = flags.Int("cache-mb", 0) << 20;
  const prsim::EngineConfig config = EngineConfigFromFlags(flags);
  const prsim::EngineRegistry& registry = prsim::EngineRegistry::Global();

  // Owner order: the graph outlives the service, the service outlives the
  // server whose sessions submit into it.
  std::unique_ptr<prsim::Graph> graph;
  std::unique_ptr<prsim::QueryService> service;
  std::unique_ptr<prsim::ShardRouter> router;
  auto engine_log = std::make_shared<EngineSpanLog>();
  auto recorder = std::make_shared<SubmitRecorder>();
  prsim::net::SubmitFn submit;
  Json ready;

  prsim::WallTimer timer;
  if (shards == 0) {
    auto loaded = prsim::GraphIO::LoadBinary(dir + "/graph.bin");
    if (!loaded.ok()) return Fail(loaded.status());
    graph = std::make_unique<prsim::Graph>(std::move(loaded).ValueOrDie());
    ready.Num("graph_load_s", timer.Seconds());
    prsim::QueryServiceOptions options;
    options.threads = threads;
    options.cache_bytes = cache_bytes;
    service = std::make_unique<prsim::QueryService>(options);
    timer.Restart();
    prsim::Status added;
    if (trace) {
      auto engine =
          registry.CreateFromIndex("prsim", *graph, config, dir + "/index.bin");
      if (!engine.ok()) return Fail(engine.status());
      added = service->AddEngine(
          "prsim", std::make_unique<TimedEngine>(
                       std::move(engine).ValueOrDie(), engine_log));
    } else {
      added = service->AddEngineFromIndex("prsim", *graph, config,
                                          dir + "/index.bin");
    }
    if (!added.ok()) return Fail(added);
    ready.Num("load_s", timer.Seconds());
    prsim::QueryService* raw = service.get();
    submit = [raw](prsim::QueryRequest request) {
      return raw->Submit(std::move(request));
    };
  } else {
    prsim::ShardRouterOptions options;
    options.threads_per_shard = threads;
    options.cache_bytes = cache_bytes;
    auto opened = prsim::ShardRouter::Open(dir + "/bundle/manifest.bin",
                                           options);
    if (!opened.ok()) return Fail(opened.status());
    router = std::move(opened).ValueOrDie();
    ready.Num("graph_load_s", 0.0).Num("load_s", timer.Seconds());
    prsim::ShardRouter* raw = router.get();
    submit = [raw](prsim::QueryRequest request) {
      return raw->SubmitRequest(std::move(request));
    };
  }
  const NodeId n = router != nullptr ? router->node_count() : graph->n();
  const size_t workers = (threads == 0 ? prsim::DefaultThreadCount() : threads) *
                         (shards == 0 ? 1 : shards);
  const auto stats = [&] {
    return router != nullptr ? router->Stats() : service->Stats();
  };
  if (trace) submit = Recorded(std::move(submit), recorder);

  prsim::net::TcpServerOptions server_options;
  server_options.node_count = n;
  server_options.default_k = static_cast<uint32_t>(flags.Int("k", 10));
  timer.Restart();
  auto started = prsim::net::TcpServer::Start(server_options, submit);
  if (!started.ok()) return Fail(started.status());
  std::unique_ptr<prsim::net::TcpServer> server =
      std::move(started).ValueOrDie();
  ready.Num("start_s", timer.Seconds())
      .Int("port", server->port())
      .Int("n", n)
      .Int("workers", workers)
      .Int("ready_ns", static_cast<uint64_t>(NowNs()));
  EmitLine("READY " + ready.Done());

  std::string line;
  while (std::getline(std::cin, line) && line != "quit") {
    if (line == "stats") {
      EmitLine(StatsJson(stats(), server->Stats(), workers));
    } else if (line == "trace on" || line == "trace off") {
      const bool on = trace && line == "trace on";
      engine_log->set_enabled(on);
      recorder->set_enabled(on);
      EmitLine(Json().Int("trace", on ? 1 : 0).Done());
    } else if (line.rfind("spans ", 0) == 0) {
      const prsim::Status wrote = WriteSpans(
          line.substr(6), recorder->Take(), engine_log->Take(), router.get());
      EmitLine(Json().Int("ok", wrote.ok() ? 1 : 0).Done());
    } else if (line.rfind("probe ", 0) == 0 && router != nullptr) {
      // Engine time behind the router: one engine over the bundle's
      // artifacts answers each recorded engine-run source, serially.
      const prsim::ShardManifest& manifest = router->manifest();
      const std::string manifest_path = dir + "/bundle/manifest.bin";
      auto probe_graph = prsim::GraphIO::LoadBinary(prsim::ResolveManifestPath(
          manifest_path, manifest.shards[0].graph_path));
      if (!probe_graph.ok()) return Fail(probe_graph.status());
      const prsim::Graph& g = probe_graph.ValueOrDie();
      // Service workers run each query's sample grid serially; so does
      // the probe.
      prsim::EngineConfig probe_config = config;
      probe_config.SetOrReplace("threads", "1");
      auto engine = registry.CreateFromIndex(
          "prsim", g, probe_config,
          prsim::ResolveManifestPath(manifest_path,
                                     manifest.shards[0].index_path));
      if (!engine.ok()) return Fail(engine.status());
      std::ofstream out(line.substr(6));
      const uint64_t seed = engine.ValueOrDie()->seed();
      for (const NodeId source : recorder->engine_sources()) {
        engine.ValueOrDie()->Reseed(seed);
        const int64_t start = NowNs();
        engine.ValueOrDie()->QueryTopK(source,
                                       server_options.default_k);
        out << "P " << source << ' ' << start << ' ' << NowNs() << '\n';
      }
      EmitLine(Json().Int("ok", out ? 1 : 0).Done());
    } else {
      EmitLine(Json().Str("error", "unknown command: " + line).Done());
    }
  }
  server->Shutdown();
  EmitLine(StatsJson(stats(), server->Stats(), workers));
  return 0;
}

}  // namespace perfbench
