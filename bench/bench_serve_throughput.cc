// Open-loop TCP serving throughput: the service-level companion to
// bench_query_latency's engine-level numbers.
//
// The bench stands up the real network stack — TcpServer over a
// QueryService (unsharded) and over a ShardRouter on a freshly built
// 3-shard bundle — and drives it with an open-loop load generator:
// requests fire on a fixed arrival schedule t_i = i / target_qps across
// `--connections` persistent binary-framing connections, regardless of how
// fast responses come back, so a saturated server shows up as queueing
// latency instead of a silently slowed request rate (the classic
// closed-loop coordinated-omission trap). Sources are drawn from a
// deterministic Zipf(s) distribution (util/zipf.h) — skewed traffic, like
// real workloads on power-law graphs — and latency is measured from each
// request's *scheduled* send time, on the wire, through the full
// frame-encode / dispatch / positional-reseed / frame-decode path.
//
// For every (backend, zipf_s, cache_mb, target_qps) cell the JSON records
// the sustained completion rate, the achieved fraction of the target,
// scheduled-time p50/p95/p99, and the result-cache hit/miss/coalesced
// deltas for the run. Results land in BENCH_serve_throughput.json
// (committed at the repo root; CI regenerates a small variant per commit
// and checks the schema).
//
// Cache rows: with --cache-mb M > 0, every (backend, zipf_s) combination
// runs twice — once with the result cache off and once with an M-MB
// budget — producing paired rows that isolate the hot-source-cache win
// under each skew. Cache rows require --fresh (fresh_seed requests are
// the only cacheable shape; see core/result_cache.h). Within one
// (backend, zipf_s, cache) pass the qps list shares a server, so the
// cache warms across the qps sequence — the first cell shows cold-start
// hit rates, later cells steady state.
//
// Usage: bench_serve_throughput
//   [--n N] [--degree D] [--eps E] [--k K] [--zipf-s S]
//   [--zipf-s-list 0.8,1.0,1.2] [--cache-mb M] [--fresh]
//   [--connections C] [--seconds SEC] [--qps-list 50,100,200]
//   [--workdir DIR] [--out PATH] [--port P]
//   [--faults SPEC] [--fault-seed S]
// Defaults: n=4000, degree=8, eps=0.2, k=10, zipf-s=1.0, cache-mb=0,
//           positional seeding (no --fresh), connections=4, seconds=5,
//           qps-list=50,100,200, workdir=bench_serve_work,
//           out=BENCH_serve_throughput.json.
// With --port the generator drives an already-running `serve --listen`
// process on 127.0.0.1:P instead of the self-contained backends (backend
// "external"; --n then only sizes the Zipf source domain, and the cache
// columns read zero — the server's stats are not reachable from here).
//
// Fault rows: with --faults SPEC (see util/fault_injection.h; --fault-seed
// picks the schedule), the bench appends one extra unsharded cache-off
// pass with the fault injector armed, producing rows tagged with the spec
// — the tail-latency cost of injected engine throws and worker-pickup
// stalls under otherwise identical load. Because the injector is
// process-global and the load generator shares the process with the
// in-process servers, use request-granular server-side points here
// (engine.query.throw, worker.pickup.stall); a net.* spec would also fail
// the generator's own sockets and abort the run. Injected failures come
// back as well-formed error responses and land in the row's `errors`
// column. Not available with --port (the injector can't reach an external
// process).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_registry.h"
#include "core/query_service.h"
#include "core/shard_manifest.h"
#include "core/shard_router.h"
#include "gen/chung_lu.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "net/frame.h"
#include "net/tcp_server.h"
#include "util/fault_injection.h"
#include "util/percentiles.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/zipf.h"

namespace {

using namespace prsim;

struct Args {
  uint32_t n = 4000;
  double degree = 8;
  double eps = 0.2;
  uint32_t k = 10;
  std::vector<double> zipf_s_list = {1.0};
  /// Result-cache budget for the cache-on pass; 0 = cache-off rows only.
  uint64_t cache_mb = 0;
  /// Send fresh_seed requests (the cacheable shape) instead of positional.
  bool fresh = false;
  uint32_t connections = 4;
  double seconds = 5;
  std::vector<double> qps_list = {50, 100, 200};
  std::string workdir = "bench_serve_work";
  std::string out = "BENCH_serve_throughput.json";
  /// When set, drive an external server instead of the in-process ones.
  uint32_t port = 0;
  /// Fault spec for the extra fault-injected pass (empty = none).
  std::string faults;
  uint64_t fault_seed = 42;
};

bool ParseQpsList(const std::string& value, std::vector<double>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < value.size()) {
    size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    const double qps = std::strtod(value.substr(pos, comma - pos).c_str(),
                                   nullptr);
    if (qps <= 0) return false;
    out->push_back(qps);
    pos = comma + 1;
  }
  return !out->empty();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--fresh") {  // value-less flag
      args->fresh = true;
      --i;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s expects a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[i + 1];
    if (flag == "--n") {
      args->n = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--degree") {
      args->degree = std::strtod(value, nullptr);
    } else if (flag == "--eps") {
      args->eps = std::strtod(value, nullptr);
    } else if (flag == "--k") {
      args->k = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--zipf-s") {
      args->zipf_s_list = {std::strtod(value, nullptr)};
    } else if (flag == "--zipf-s-list") {
      if (!ParseQpsList(value, &args->zipf_s_list)) {
        std::fprintf(stderr,
                     "--zipf-s-list wants comma-separated positives\n");
        return false;
      }
    } else if (flag == "--cache-mb") {
      args->cache_mb = std::strtoull(value, nullptr, 10);
    } else if (flag == "--connections") {
      args->connections =
          static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--qps-list") {
      if (!ParseQpsList(value, &args->qps_list)) {
        std::fprintf(stderr, "--qps-list wants comma-separated positives\n");
        return false;
      }
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--port") {
      args->port = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--faults") {
      args->faults = value;
    } else if (flag == "--fault-seed") {
      args->fault_seed = std::strtoull(value, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->n < 100 || args->connections == 0 || args->seconds <= 0) {
    std::fprintf(stderr,
                 "--n must be >= 100, --connections >= 1, --seconds > 0\n");
    return false;
  }
  if (args->cache_mb > (SIZE_MAX >> 20)) {
    // The byte budget is cache_mb << 20; a larger value would wrap it.
    std::fprintf(stderr, "--cache-mb overflows the byte budget\n");
    return false;
  }
  if (args->cache_mb > 0 && !args->fresh) {
    // Positional requests bypass the cache by design; a cache pass without
    // --fresh would measure nothing but the budget allocation.
    std::fprintf(stderr, "--cache-mb requires --fresh\n");
    return false;
  }
  if (!args->faults.empty() && args->port != 0) {
    std::fprintf(stderr, "--faults cannot reach an external --port server\n");
    return false;
  }
  return true;
}

struct LoadRow {
  std::string backend;  ///< "unsharded", "sharded", or "external"
  uint32_t shards = 1;
  double zipf_s = 1.0;
  uint64_t cache_mb = 0;  ///< result-cache budget for this row (0 = off)
  bool fresh = false;
  double target_qps = 0;
  uint64_t requests = 0;
  uint64_t errors = 0;
  double sustained_qps = 0;
  double achieved_of_target = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  /// Result-cache deltas over this run (zero for cache-off and external
  /// rows). hit_rate = hits / (hits + misses + coalesced).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_coalesced = 0;
  double hit_rate = 0;
  /// Fault spec active during this row (empty = fault-free run).
  std::string faults;
};

/// One open-loop run against 127.0.0.1:port. Request i is scheduled at
/// start + i/target_qps and routed round-robin to one of `connections`
/// persistent binary-framing connections; a per-connection writer paces
/// the sends while a reader matches responses (in submission order — the
/// protocol's guarantee) against scheduled times. Deterministic request
/// stream: sources come from ZipfSampler(n, s) under a fixed seed.
LoadRow RunLoad(uint16_t port, const Args& args, double zipf_s,
                double target_qps) {
  LoadRow row;
  row.zipf_s = zipf_s;
  row.fresh = args.fresh;
  row.target_qps = target_qps;
  const auto total =
      static_cast<uint64_t>(std::max(1.0, target_qps * args.seconds));
  row.requests = total;

  // Pre-draw the whole request stream so the hot loop only paces + writes.
  ZipfSampler zipf(args.n, zipf_s);
  Rng rng(20250808);
  std::vector<NodeId> sources(total);
  for (auto& source : sources) source = zipf.Sample(rng);

  const uint32_t connections =
      static_cast<uint32_t>(std::min<uint64_t>(args.connections, total));
  struct Connection {
    UniqueFd fd;
    std::vector<uint64_t> request_indices;
    std::vector<double> latencies;
    uint64_t errors = 0;
    bool transport_failed = false;
    std::thread writer, reader;
  };
  std::vector<Connection> conns(connections);
  for (uint64_t i = 0; i < total; ++i) {
    conns[i % connections].request_indices.push_back(i);
  }
  for (auto& conn : conns) {
    auto fd = ConnectTcp(port);
    fd.status().Abort();
    conn.fd = std::move(fd).ValueOrDie();
  }

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto scheduled_at = [&](uint64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / target_qps));
  };

  for (auto& conn : conns) {
    conn.writer = std::thread([&conn, &args, &sources, &scheduled_at] {
      std::vector<char> payload;
      if (!WriteAll(conn.fd.get(), net::kBinaryMagic,
                    sizeof(net::kBinaryMagic))
               .ok()) {
        conn.transport_failed = true;
        return;
      }
      for (const uint64_t i : conn.request_indices) {
        std::this_thread::sleep_until(scheduled_at(i));
        net::WireRequest request;
        request.source = sources[i];
        request.k = args.k;
        request.fresh_seed = args.fresh;
        net::EncodeRequest(request, &payload);
        if (!net::WriteFrame(conn.fd.get(), payload).ok()) {
          conn.transport_failed = true;
          return;
        }
      }
    });
    conn.reader = std::thread([&conn, &scheduled_at] {
      std::vector<char> payload;
      conn.latencies.reserve(conn.request_indices.size());
      for (const uint64_t i : conn.request_indices) {
        bool eof = false;
        if (!net::ReadFrame(conn.fd.get(), &payload, &eof).ok() || eof) {
          conn.transport_failed = true;
          return;
        }
        auto response = net::DecodeResponse(payload);
        if (!response.ok()) {
          conn.transport_failed = true;
          return;
        }
        if (response.ValueOrDie().status_code != 0) ++conn.errors;
        // Open-loop latency: from the request's *scheduled* send time, so
        // server-side queueing under overload is charged to the latency
        // distribution instead of silently stretching the run.
        const std::chrono::duration<double> waited =
            Clock::now() - scheduled_at(i);
        conn.latencies.push_back(waited.count());
      }
    });
  }

  std::vector<double> latencies;
  latencies.reserve(total);
  for (auto& conn : conns) {
    conn.writer.join();
    conn.reader.join();
    row.errors += conn.errors;
    if (conn.transport_failed) {
      std::fprintf(stderr, "load connection failed mid-run\n");
      std::exit(1);
    }
    latencies.insert(latencies.end(), conn.latencies.begin(),
                     conn.latencies.end());
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  row.sustained_qps = static_cast<double>(total) / elapsed.count();
  row.achieved_of_target = row.sustained_qps / target_qps;
  std::sort(latencies.begin(), latencies.end());
  row.p50_ms = SortedQuantile(latencies, 0.50) * 1e3;
  row.p95_ms = SortedQuantile(latencies, 0.95) * 1e3;
  row.p99_ms = SortedQuantile(latencies, 0.99) * 1e3;
  return row;
}

net::TcpServerOptions ServerOptions(const Args& args, NodeId n) {
  net::TcpServerOptions options;
  options.port = 0;  // ephemeral
  options.node_count = n;
  options.default_k = args.k;
  options.max_connections = args.connections + 4;
  return options;
}

void WriteJson(const Args& args, const Graph* graph,
               const std::vector<LoadRow>& rows) {
  FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"serve_throughput\",\n");
  std::fprintf(out, "  \"schema_version\": 2,\n");
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"config\": {\"n\": %u, \"degree\": %g, \"eps\": %g, "
               "\"k\": %u, \"zipf_s_list\": [",
               args.n, args.degree, args.eps, args.k);
  for (size_t i = 0; i < args.zipf_s_list.size(); ++i) {
    std::fprintf(out, "%s%g", i == 0 ? "" : ", ", args.zipf_s_list[i]);
  }
  std::fprintf(out,
               "], \"cache_mb\": %llu, \"fresh\": %s, "
               "\"connections\": %u, \"seconds\": %g",
               static_cast<unsigned long long>(args.cache_mb),
               args.fresh ? "true" : "false", args.connections,
               args.seconds);
  if (!args.faults.empty()) {
    std::fprintf(out, ", \"faults\": \"%s\", \"fault_seed\": %llu",
                 args.faults.c_str(),
                 static_cast<unsigned long long>(args.fault_seed));
  }
  std::fprintf(out, "},\n");
  if (graph != nullptr) {
    std::fprintf(out, "  \"graph\": {\"n\": %u, \"m\": %llu},\n", graph->n(),
                 static_cast<unsigned long long>(graph->m()));
  }
  std::fprintf(out, "  \"runs\": [");
  for (size_t i = 0; i < rows.size(); ++i) {
    const LoadRow& r = rows[i];
    std::fprintf(out,
                 "%s\n    {\"backend\": \"%s\", \"shards\": %u, "
                 "\"zipf_s\": %g, \"cache_mb\": %llu, \"fresh\": %s,\n"
                 "     \"target_qps\": %g, \"requests\": %llu, "
                 "\"errors\": %llu,\n"
                 "     \"sustained_qps\": %.6g, "
                 "\"achieved_of_target\": %.4g,\n"
                 "     \"latency_ms\": {\"p50\": %.6g, \"p95\": %.6g, "
                 "\"p99\": %.6g},\n"
                 "     \"cache\": {\"hits\": %llu, \"misses\": %llu, "
                 "\"coalesced\": %llu, \"hit_rate\": %.4g}",
                 i == 0 ? "" : ",", r.backend.c_str(), r.shards, r.zipf_s,
                 static_cast<unsigned long long>(r.cache_mb),
                 r.fresh ? "true" : "false", r.target_qps,
                 static_cast<unsigned long long>(r.requests),
                 static_cast<unsigned long long>(r.errors), r.sustained_qps,
                 r.achieved_of_target, r.p50_ms, r.p95_ms, r.p99_ms,
                 static_cast<unsigned long long>(r.cache_hits),
                 static_cast<unsigned long long>(r.cache_misses),
                 static_cast<unsigned long long>(r.cache_coalesced),
                 r.hit_rate);
    if (!r.faults.empty()) {
      std::fprintf(out, ",\n     \"faults\": \"%s\"", r.faults.c_str());
    }
    std::fprintf(out, "}");
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
}

/// Runs the qps list against one standing server, attaching per-run
/// result-cache deltas read through `stats` (null for external servers).
void RunQpsSweep(uint16_t port, const Args& args, double zipf_s,
                 uint64_t cache_mb, const char* backend, uint32_t shards,
                 const std::function<ServiceStats()>& stats,
                 std::vector<LoadRow>* rows) {
  for (const double qps : args.qps_list) {
    const ServiceStats before = stats ? stats() : ServiceStats{};
    LoadRow row = RunLoad(port, args, zipf_s, qps);
    const ServiceStats after = stats ? stats() : ServiceStats{};
    row.backend = backend;
    row.shards = shards;
    row.cache_mb = cache_mb;
    row.cache_hits = after.cache_hits - before.cache_hits;
    row.cache_misses = after.cache_misses - before.cache_misses;
    row.cache_coalesced = after.cache_coalesced - before.cache_coalesced;
    const uint64_t lookups =
        row.cache_hits + row.cache_misses + row.cache_coalesced;
    row.hit_rate =
        lookups > 0 ? static_cast<double>(row.cache_hits) / lookups : 0;
    std::fprintf(stderr,
                 "%s zipf=%g cache=%lluMB target=%g qps: sustained=%.1f "
                 "p99=%.2fms hit_rate=%.2f\n",
                 backend, zipf_s, static_cast<unsigned long long>(cache_mb),
                 qps, row.sustained_qps, row.p99_ms, row.hit_rate);
    rows->push_back(row);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::vector<LoadRow> rows;

  if (args.port != 0) {
    // External mode: the server under test is someone else's process; its
    // cache stats (if any) are not reachable from here.
    for (const double zipf_s : args.zipf_s_list) {
      RunQpsSweep(static_cast<uint16_t>(args.port), args, zipf_s,
                  /*cache_mb=*/0, "external", /*shards=*/0, nullptr, &rows);
    }
    WriteJson(args, nullptr, rows);
    std::printf("wrote %s (%zu rows)\n", args.out.c_str(), rows.size());
    return 0;
  }

  ChungLuOptions gen;
  gen.n = args.n;
  gen.avg_degree = args.degree;
  gen.gamma_out = 2.0;
  gen.seed = 1;
  auto graph_result = GenerateChungLu(gen);
  graph_result.status().Abort();
  const Graph graph = std::move(graph_result).ValueOrDie();

  char params[64];
  std::snprintf(params, sizeof(params), "eps=%g,seed=5", args.eps);
  auto config_result = EngineConfig::Parse(params);
  config_result.status().Abort();
  const EngineConfig config = std::move(config_result).ValueOrDie();

  // One cache-off pass always; a second cache-on pass when --cache-mb is
  // set, so every (backend, zipf_s, qps) cell gets a paired row.
  std::vector<uint64_t> cache_passes = {0};
  if (args.cache_mb > 0) cache_passes.push_back(args.cache_mb);

  // Preprocess the engine once and hand each service a same-seed clone
  // (clones share the immutable index), so the pass matrix pays one index
  // build no matter how many server instances it stands up.
  auto leader_result = EngineRegistry::Global().Create("prsim", graph, config);
  leader_result.status().Abort();
  std::unique_ptr<SingleSourceSimRank> leader =
      std::move(leader_result).ValueOrDie();
  leader->Preprocess().Abort();

  for (const double zipf_s : args.zipf_s_list) {
    for (const uint64_t cache_mb : cache_passes) {
      QueryServiceOptions service_options;
      service_options.cache_bytes = cache_mb << 20;
      QueryService service(service_options);
      service.AddEngine("prsim", leader->CloneWithSeed(leader->seed()))
          .Abort();
      auto server = net::TcpServer::Start(
          ServerOptions(args, graph.n()),
          [&](QueryRequest request) {
            return service.Submit(std::move(request));
          });
      server.status().Abort();
      RunQpsSweep(server.ValueOrDie()->port(), args, zipf_s, cache_mb,
                  "unsharded", 1, [&] { return service.Stats(); }, &rows);
    }
  }

  {
    // 3-shard backend: real bundle on disk, real router — the cost of the
    // global-position stamp and cross-shard routing is part of the number.
    // The bundle is built once; each pass reopens it (mmap'd loads).
    std::filesystem::create_directories(args.workdir);
    PartitionSpec spec;
    spec.shards = 3;
    auto manifest_path =
        BuildShardBundle(graph, "prsim", config, spec, args.workdir);
    manifest_path.status().Abort();
    for (const double zipf_s : args.zipf_s_list) {
      for (const uint64_t cache_mb : cache_passes) {
        ShardRouterOptions router_options;
        router_options.cache_bytes = cache_mb << 20;
        auto router =
            ShardRouter::Open(manifest_path.ValueOrDie(), router_options);
        router.status().Abort();
        auto server = net::TcpServer::Start(
            ServerOptions(args, graph.n()),
            [&](QueryRequest request) {
              return router.ValueOrDie()->SubmitRequest(std::move(request));
            });
        server.status().Abort();
        RunQpsSweep(server.ValueOrDie()->port(), args, zipf_s, cache_mb,
                    "sharded", spec.shards,
                    [&] { return router.ValueOrDie()->Stats(); }, &rows);
      }
    }
  }

  if (!args.faults.empty()) {
    // Fault-injected tail-latency rows: same unsharded backend, cache off,
    // first zipf_s — the only variable against the matching fault-free
    // rows above is the armed injector, so the p99 delta is the injected
    // throws/stalls and nothing else.
    FaultInjector::Global().Configure(args.faults, args.fault_seed).Abort();
    QueryServiceOptions service_options;
    QueryService service(service_options);
    service.AddEngine("prsim", leader->CloneWithSeed(leader->seed()))
        .Abort();
    auto server = net::TcpServer::Start(
        ServerOptions(args, graph.n()),
        [&](QueryRequest request) {
          return service.Submit(std::move(request));
        });
    server.status().Abort();
    const size_t first_fault_row = rows.size();
    RunQpsSweep(server.ValueOrDie()->port(), args, args.zipf_s_list.front(),
                /*cache_mb=*/0, "unsharded", 1,
                [&] { return service.Stats(); }, &rows);
    // Quiesce before touching the injector: Disable() is not safe against
    // in-flight evaluations, and it resets the counters we want to print.
    server.ValueOrDie()->Shutdown();
    std::fprintf(stderr, "%s\n",
                 FaultInjector::Global().StatsJson().c_str());
    FaultInjector::Global().Disable();
    for (size_t i = first_fault_row; i < rows.size(); ++i) {
      rows[i].faults = args.faults;
    }
  }

  WriteJson(args, &graph, rows);
  std::printf("wrote %s (%zu rows)\n", args.out.c_str(), rows.size());
  return 0;
}
