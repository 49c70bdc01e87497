// prsim_cli — command-line front end for the library.
//
// Subcommands:
//   prsim_cli stats     --graph g.txt
//       Prints n, m, degree extremes and fitted power-law exponents.
//   prsim_cli algos
//       Lists every engine in the registry with its metadata and the
//       config keys it accepts via --params.
//   prsim_cli index     --graph g.txt --out g.idx [--algo prsim]
//                       [--params k=v,k=v] [--eps 0.1] [--c 0.6] [--j0 N]
//                       [--seed S] [--threads T]
//       Builds the index of any persistent engine (prsim, sling, reads,
//       tsf) and serializes it as a fingerprinted artifact.
//   prsim_cli shard-build --graph g.txt --out-dir DIR [--shards N]
//                       [--strategy hash|range] [--algo prsim]
//                       [--params k=v,k=v] [--eps 0.1] [--c 0.6] [--j0 N]
//                       [--seed S] [--threads T]
//       Builds a self-contained shard bundle: graph artifact, engine index
//       (for persistent engines), and a manifest recording the engine,
//       its params, and the deterministic partition spec. `query
//       --manifest` and `serve --manifest` take everything they need from
//       the manifest alone.
//   prsim_cli query     --graph g.txt --source U [--algo prsim]
//                       [--params k=v,k=v] [--index g.idx] [--eps 0.1]
//                       [--c 0.6] [--k 20] [--seed S] [--j0 N] [--alpha A]
//                       [--rounds R] [--threads T] [--paper-constants]
//                       [--format text|tsv|json] [--sources-file f.txt]
//       Alternatively: prsim_cli query --manifest DIR/manifest.bin
//                       --source U [--k 20] [--threads T] [--format ...]
//                       [--sources-file f.txt]
//       takes the engine, its params, the graph and the index from a shard
//       bundle. Every shard of a bundle aliases the same graph and index
//       artifacts, so this is the same engine query as the flag form, over
//       a graph checked against the manifest's fingerprint (exit 1 on a
//       mismatch). --manifest is mutually exclusive with --graph, --index,
//       --algo, --params and every engine flag but --threads: the manifest
//       records them.
//       Answers a single-source query with any registry engine (loading a
//       saved index if given — the artifact must match the graph and the
//       index-shaping options — otherwise preprocessing in-process) and
//       prints the top-k. Engine-specific knobs go through --params; the
//       dedicated flags override keys of the same name. --format tsv/json
//       emit machine-readable scores, QueryCost counters, and timings on
//       stdout (progress goes to stderr). --threads T parallelizes the
//       single query itself (PRSim's sample grid runs as static chunks on
//       the shared pool; scores are bit-identical for every T) as well as
//       index construction; it must be >= 1 (exit 2 otherwise), and when
//       omitted the default is PRSIM_THREADS if set, else hardware
//       concurrency. --sources-file switches to batch mode: one node id
//       per line ('#' comments allowed), answered through the shared
//       thread pool with p50/p95/p99 latency reported; invalid lines get a
//       per-line error and exit code 3 without aborting the rest of the
//       batch.
//   prsim_cli serve     --graph g.txt (--stdin | --listen PORT)
//                       [--algo prsim] [--index g.idx] [--params k=v,k=v]
//                       [--k 20] [--threads T] [--queue N] [--reject]
//                       [--max-connections N]
//                       [--idle-timeout-ms MS] [--io-timeout-ms MS]
//                       [--faults SPEC] [--fault-seed S]
//       Alternatively: prsim_cli serve --manifest DIR/manifest.bin ...
//       serves the shard bundle through the ShardRouter: one QueryService
//       per shard, requests routed by source ownership, global positional
//       seeds — the sharded topology answers every request stream
//       bit-identically to the unsharded one. Same mutual exclusion as
//       `query --manifest`.
//       Long-lived query service behind one of two transports (exactly one
//       must be given):
//         --stdin: reads newline-delimited requests "<source> [k]",
//           pipelines them through the service's bounded queue (--queue,
//           --reject), and prints "result <source> <node>:<score>,..."
//           lines in submission order on stdout. Per-line errors go to
//           stderr without stopping the loop; exit 3 if any line failed.
//         --listen PORT: TCP front end on 127.0.0.1:PORT (0 picks an
//           ephemeral port; the chosen one is announced on stderr as
//           "listening on 127.0.0.1:<port>"). Each connection speaks either
//           the same text line protocol or the length-prefixed binary
//           framing (net/frame.h; opened by the "PRSB" magic) and gets its
//           responses in submission order. --max-connections caps
//           concurrent connections.
//       --threads sizes the service's worker pool (>= 1, exit 2 on 0;
//       default PRSIM_THREADS, else hardware concurrency); each worker
//       answers with its own engine clone, and the intra-query sample grid
//       runs serially inside those workers, so results never depend on the
//       thread count. SIGINT/SIGTERM trigger a graceful shutdown on both
//       transports: stop accepting, drain in-flight requests, flush
//       responses, exit 0. Every serve exit prints final ServiceStats as
//       one JSON line on stderr ({"event":"serve_stats",...}).
//       Robustness knobs: text requests may carry "deadline_ms=N" (binary
//       frames a deadline field); expired requests resolve with
//       kDeadlineExceeded and never shift the positional seeds of the
//       surviving stream. --reject refuses queue-full requests at once
//       while cache hits keep answering. --idle-timeout-ms reaps
//       connections that stop talking; --io-timeout-ms bounds each
//       response write. --faults "name=num/den[:stall_ms],..." (or
//       PRSIM_FAULTS; seed via --fault-seed / PRSIM_FAULT_SEED) arms the
//       deterministic fault-injection harness (util/fault_injection.h) and
//       prints a {"event":"fault_stats",...} line at exit.
//   prsim_cli client    --port P [--source U] [--k 20] [--fresh]
//                       [--algo NAME] [--format text|tsv]
//                       [--deadline-ms N] [--timeout-ms MS] [--retries R]
//       One-shot TCP client for the binary framing: sends a single query
//       to a `serve --listen` process on 127.0.0.1:P and prints the
//       response; --format tsv prints the same "score\t<node>\t<%.17g>"
//       rows as `query --format tsv`, and --fresh asks for fresh-engine
//       seeding, so the output diffs bit-for-bit against the offline query
//       path (the CI end-to-end smoke). --deadline-ms attaches a server-
//       side deadline budget; --timeout-ms bounds the connect and each
//       response wait client-side; --retries R re-attempts with jittered
//       exponential backoff, but only when the server provably did not
//       start answering (connect failure, timeout/clean EOF before the
//       first response frame) — never after a partial reply.
//   prsim_cli generate  --out g.txt [--model chunglu|er|ba] [--n N]
//                       [--degree D] [--gamma G] [--seed S] [--undirected]
//       Writes a synthetic edge list.
//
// Graphs are SNAP-style edge-list text ('#' comments) or the binary format
// produced by this tool when the path ends in ".bin".

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_query.h"
#include "core/engine_config.h"
#include "core/engine_registry.h"
#include "core/prsim.h"
#include "core/query_service.h"
#include "core/shard_manifest.h"
#include "core/shard_router.h"
#include "graph/partition.h"
#include "eval/datasets.h"
#include "gen/barabasi_albert.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "net/frame.h"
#include "net/serve_loop.h"
#include "net/tcp_server.h"
#include "util/fault_injection.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/timer.h"

namespace {

using namespace prsim;

/// Minimal flag parser: --name value pairs after the subcommand, plus
/// boolean flags that take no value. Each subcommand declares which flags
/// it accepts; anything else (unknown flags, bare positional arguments, a
/// valued flag at the end of the line with no value) is a parse error
/// surfaced through ok()/error() rather than being silently dropped.
class Flags {
 public:
  Flags(int argc, char** argv, int first,
        std::initializer_list<const char*> valued,
        std::initializer_list<const char*> booleans = {}) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.compare(0, 2, "--") != 0) {
        error_ = "unexpected argument: " + arg;
        return;
      }
      const std::string name = arg.substr(2);
      if (Contains(booleans, name)) {
        if (!Has(name)) booleans_.push_back(name);
        continue;
      }
      if (!Contains(valued, name)) {
        error_ = "unknown flag: " + arg;
        return;
      }
      if (Find(name) != nullptr) {
        error_ = "duplicate flag: " + arg;
        return;
      }
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        error_ = arg + " expects a value";
        return;
      }
      values_.emplace_back(name, argv[++i]);
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  std::string Get(const std::string& name, const std::string& fallback) const {
    const std::string* raw = Find(name);
    return raw == nullptr ? fallback : *raw;
  }
  double GetDouble(const std::string& name, double fallback) const {
    const std::string* raw = Find(name);
    if (raw == nullptr) return fallback;
    char* end = nullptr;
    const double value = std::strtod(raw->c_str(), &end);
    if (end == raw->c_str() || *end != '\0') InvalidValue(name, *raw);
    return value;
  }
  uint64_t GetInt(const std::string& name, uint64_t fallback) const {
    const std::string* raw = Find(name);
    if (raw == nullptr) return fallback;
    uint64_t value = 0;
    if (!ParseUint64(*raw, &value)) InvalidValue(name, *raw);
    return value;
  }
  /// GetInt with a range check against the 32-bit node/count call sites so
  /// oversized values error instead of silently truncating in a cast.
  uint32_t GetUint32(const std::string& name, uint32_t fallback) const {
    const uint64_t value = GetInt(name, fallback);
    if (value > UINT32_MAX) InvalidValue(name, Get(name, ""));
    return static_cast<uint32_t>(value);
  }
  bool Has(const std::string& name) const {
    for (const auto& b : booleans_) {
      if (b == name) return true;
    }
    return false;
  }
  /// True when a valued flag was given, even with an empty value (so callers
  /// can route "" into validation instead of mistaking it for "absent").
  bool HasValue(const std::string& name) const { return Find(name) != nullptr; }
  bool undirected() const { return Has("undirected"); }

 private:
  const std::string* Find(const std::string& name) const {
    for (const auto& [k, v] : values_) {
      if (k == name) return &v;
    }
    return nullptr;
  }

  static bool Contains(std::initializer_list<const char*> names,
                       const std::string& name) {
    for (const char* candidate : names) {
      if (name == candidate) return true;
    }
    return false;
  }

  [[noreturn]] static void InvalidValue(const std::string& name,
                                        const std::string& raw) {
    std::fprintf(stderr, "invalid value for --%s: '%s'\n", name.c_str(),
                 raw.c_str());
    std::exit(2);
  }

  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> booleans_;
  std::string error_;
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Result<Graph> LoadAnyGraph(const std::string& path) {
  if (EndsWith(path, ".bin")) return GraphIO::LoadBinary(path);
  return LoadGraphText(path);
}

int CmdStats(const Flags& flags) {
  const std::string path = flags.Get("graph", "");
  if (path.empty()) {
    std::fprintf(stderr, "stats: --graph is required\n");
    return 2;
  }
  auto graph = LoadAnyGraph(path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const GraphSummary s = Summarize(graph.ValueOrDie());
  std::printf("n            %u\n", s.n);
  std::printf("m            %llu\n", static_cast<unsigned long long>(s.m));
  std::printf("avg degree   %.2f\n", s.avg_degree);
  std::printf("max out/in   %u / %u\n", s.max_out_degree, s.max_in_degree);
  std::printf("dangling     %u\n", s.dangling_nodes);
  std::printf("gamma out/in %.2f / %.2f (cumulative power-law fits)\n",
              s.out_gamma, s.in_gamma);
  return 0;
}

/// True when `info` lists `key` among its supported config keys.
bool EngineTakesKey(const EngineInfo& info, std::string_view key) {
  std::string_view keys = info.config_keys;
  for (;;) {
    const size_t comma = keys.find(',');
    if (keys.substr(0, comma) == key) return true;
    if (comma == std::string_view::npos) return false;
    keys.remove_prefix(comma + 1);
  }
}

/// Builds `info`'s EngineConfig from --params plus the dedicated engine
/// flags (which override keys of the same name). --threads also sizes the
/// worker pool of `query` and `serve`, so it reaches the config only of
/// engines that take a `threads` key. Returns exit code 0 on success, 2 on
/// a malformed --params string or an explicit --threads 0.
int BuildEngineConfig(const Flags& flags, const EngineInfo& info,
                      EngineConfig* out) {
  // "0 threads" has no meaning on any path (engines treat an *absent*
  // thread count as "use the default"); an explicit --threads 0 is a typo'd
  // request and is rejected like every other out-of-range flag value.
  if (flags.HasValue("threads") && flags.GetInt("threads", 1) == 0) {
    std::fprintf(stderr,
                 "--threads must be >= 1 (omit the flag for the default: "
                 "PRSIM_THREADS when set, else hardware concurrency)\n");
    return 2;
  }
  auto parsed = EngineConfig::Parse(flags.Get("params", ""));
  if (!parsed.ok()) {
    std::fprintf(stderr, "--params: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  *out = parsed.MoveValueUnsafe();
  // Dedicated flags share their config key's name (--paper-constants is the
  // one spelling difference); values stay raw strings so the engine factory
  // is the single place numbers are parsed and range-checked.
  for (const char* key : {"c", "eps", "seed", "j0", "alpha", "rounds"}) {
    if (flags.HasValue(key)) out->SetOrReplace(key, flags.Get(key, ""));
  }
  if (flags.HasValue("threads") && EngineTakesKey(info, "threads")) {
    out->SetOrReplace("threads", flags.Get("threads", ""));
  }
  if (flags.Has("paper-constants")) {
    out->SetOrReplace("paper_constants", "true");
  }
  return 0;
}

/// Where the engine of `query` and `serve` comes from: the --graph,
/// --index, --algo and --params flags, or a shard bundle's --manifest,
/// which records all four.
struct EngineSource {
  const EngineInfo* info = nullptr;
  EngineConfig config;
  std::string graph_path;
  std::string index_path;     ///< empty: preprocess in-process
  std::string manifest_path;  ///< empty unless the source is a bundle
  ShardManifest manifest;
};

/// Resolves the EngineSource of `cmd` ("query" or "serve") and runs every
/// engine check once, before any graph is loaded. Returns 0, 2 on bad
/// flags, or 1 on an unreadable manifest.
int ResolveEngineSource(const Flags& flags, const char* cmd,
                        EngineSource* out) {
  out->manifest_path = flags.Get("manifest", "");
  const bool bundle = !out->manifest_path.empty();
  if (bundle) {
    // The manifest already records the graph, index, engine, and params; a
    // conflicting flag is a confused invocation, not an override request.
    for (const char* conflicting : {"graph", "index", "algo", "params"}) {
      if (flags.HasValue(conflicting)) {
        std::fprintf(stderr, "%s: --manifest is mutually exclusive with --%s\n",
                     cmd, conflicting);
        return 2;
      }
    }
    auto manifest = ShardManifest::Load(out->manifest_path);
    if (!manifest.ok()) {
      std::fprintf(stderr, "%s\n", manifest.status().ToString().c_str());
      return 1;
    }
    out->manifest = std::move(manifest).ValueOrDie();
    // Every shard entry aliases the same artifacts (core/shard_manifest.h),
    // so shard 0's artifacts serve the whole bundle.
    const ShardArtifacts& shard = out->manifest.shards[0];
    out->graph_path = ResolveManifestPath(out->manifest_path, shard.graph_path);
    if (!shard.index_path.empty()) {
      out->index_path =
          ResolveManifestPath(out->manifest_path, shard.index_path);
    }
  } else {
    out->graph_path = flags.Get("graph", "");
    out->index_path = flags.Get("index", "");
    if (out->graph_path.empty()) {
      std::fprintf(stderr, "%s: --graph or --manifest is required\n", cmd);
      return 2;
    }
  }
  const std::string algo =
      bundle ? out->manifest.algo : flags.Get("algo", "prsim");
  out->info = EngineRegistry::Global().Find(algo);
  if (out->info == nullptr) {
    std::fprintf(stderr, "%s: unknown --algo '%s' (run `prsim_cli algos`)\n",
                 cmd, algo.c_str());
    return 2;
  }
  if (!out->index_path.empty() && !out->info->has_persistent_index) {
    std::fprintf(stderr,
                 "%s: --algo %s has no persistent index, so --index is not "
                 "supported\n",
                 cmd, out->info->name.c_str());
    return 2;
  }
  if (const int rc = BuildEngineConfig(flags, *out->info, &out->config);
      rc != 0) {
    return rc;
  }
  if (bundle) {
    // The engine runs exactly as the bundle was built: an engine flag would
    // be silently dropped, so it is refused. --threads, the one engine flag
    // a bundle accepts, only sizes the worker pools.
    for (const std::string& key : out->config.Keys()) {
      if (key != "threads") {
        std::fprintf(stderr,
                     "%s: --manifest records the engine params, so '%s' "
                     "cannot be set\n",
                     cmd, key.c_str());
        return 2;
      }
    }
    auto config = out->manifest.Config();
    if (!config.ok()) {
      std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
      return 1;
    }
    out->config = std::move(config).ValueOrDie();
  }
  if (Status st = EngineRegistry::Global().Validate(out->info->name,
                                                    out->config);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  return 0;
}

int CmdAlgos(const Flags&) {
  const EngineRegistry& registry = EngineRegistry::Global();
  std::printf("%-12s %-6s %-5s %-8s %-28s %s\n", "name", "index", "pair",
              "persist", "reference", "config keys");
  for (const std::string& name : registry.Names()) {
    const EngineInfo* info = registry.Find(name);
    std::printf("%-12s %-6s %-5s %-8s %-28s %s\n", info->name.c_str(),
                info->index_based ? "yes" : "no",
                info->supports_pair_query ? "yes" : "no",
                info->has_persistent_index ? "yes" : "no",
                info->paper_ref.c_str(), info->config_keys.c_str());
  }
  std::printf(
      "\nusage: prsim_cli query --graph g.txt --source U --algo <name> "
      "[--params k=v,k=v]\n");
  return 0;
}

int CmdIndex(const Flags& flags) {
  const std::string graph_path = flags.Get("graph", "");
  const std::string out_path = flags.Get("out", "");
  if (graph_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "index: --graph and --out are required\n");
    return 2;
  }
  const std::string algo = flags.Get("algo", "prsim");
  const EngineInfo* info = EngineRegistry::Global().Find(algo);
  if (info == nullptr) {
    std::fprintf(stderr,
                 "index: unknown --algo '%s' (run `prsim_cli algos`)\n",
                 algo.c_str());
    return 2;
  }
  if (!info->has_persistent_index) {
    std::fprintf(stderr, "index: --algo %s has no persistent index\n",
                 info->name.c_str());
    return 2;
  }
  // Validate the engine config through the registry before touching the
  // graph file, so bad flag values fail fast with exit 2.
  EngineConfig config;
  if (const int rc = BuildEngineConfig(flags, *info, &config); rc != 0) {
    return rc;
  }
  if (Status st = EngineRegistry::Global().Validate(info->name, config);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  auto graph = LoadAnyGraph(graph_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto engine = EngineRegistry::Global().Create(info->name,
                                                graph.ValueOrDie(), config);
  engine.status().Abort();  // config already validated above
  WallTimer timer;
  Status st = engine.ValueOrDie()->Preprocess();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  st = engine.ValueOrDie()->SaveIndex(out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("built index: algo=%s %.2f MB in %.2fs -> %s\n",
              engine.ValueOrDie()->name().c_str(),
              engine.ValueOrDie()->IndexBytes() / 1e6, timer.Seconds(),
              out_path.c_str());
  if (const auto* prsim =
          dynamic_cast<const PRSim*>(engine.ValueOrDie().get())) {
    std::printf("  %u hubs, %llu tuples\n", prsim->index().hub_count(),
                static_cast<unsigned long long>(
                    prsim->index().total_tuples()));
  }
  return 0;
}

int CmdShardBuild(const Flags& flags) {
  const std::string graph_path = flags.Get("graph", "");
  const std::string out_dir = flags.Get("out-dir", "");
  if (graph_path.empty() || out_dir.empty()) {
    std::fprintf(stderr, "shard-build: --graph and --out-dir are required\n");
    return 2;
  }
  const std::string algo = flags.Get("algo", "prsim");
  const EngineInfo* info = EngineRegistry::Global().Find(algo);
  if (info == nullptr) {
    std::fprintf(stderr,
                 "shard-build: unknown --algo '%s' (run `prsim_cli algos`)\n",
                 algo.c_str());
    return 2;
  }
  PartitionSpec spec;
  spec.shards = flags.GetUint32("shards", 1);
  auto strategy = ParsePartitionStrategy(flags.Get("strategy", "hash"));
  if (!strategy.ok()) {
    std::fprintf(stderr, "shard-build: %s\n",
                 strategy.status().ToString().c_str());
    return 2;
  }
  spec.strategy = strategy.ValueOrDie();
  if (Status st = ValidatePartitionSpec(spec); !st.ok()) {
    std::fprintf(stderr, "shard-build: %s\n", st.ToString().c_str());
    return 2;
  }
  EngineConfig config;
  if (const int rc = BuildEngineConfig(flags, *info, &config); rc != 0) {
    return rc;
  }
  if (Status st = EngineRegistry::Global().Validate(info->name, config);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  auto graph = LoadAnyGraph(graph_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  WallTimer timer;
  auto manifest = BuildShardBundle(graph.ValueOrDie(), info->name, config,
                                   spec, out_dir);
  if (!manifest.ok()) {
    std::fprintf(stderr, "%s\n", manifest.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "built shard bundle: algo=%s shards=%u strategy=%s in %.2fs -> %s\n",
      info->name.c_str(), spec.shards, PartitionStrategyName(spec.strategy),
      timer.Seconds(), manifest.ValueOrDie().c_str());
  return 0;
}

/// Output format of `query`: human text (default) or machine-readable
/// tsv/json carrying the scores, QueryCost counters, and timings.
enum class QueryFormat { kText, kTsv, kJson };

/// The QueryCost counters as (name, value) pairs — the single field list
/// every output format renders, so a new counter cannot be dropped from
/// one format silently.
std::vector<std::pair<const char*, unsigned long long>> CostFields(
    const QueryCost& cost) {
  return {{"walks", cost.walks},
          {"meeting_tests", cost.meeting_tests},
          {"backward_walks", cost.backward_walks},
          {"backward_increments", cost.backward_increments},
          {"index_tuples_read", cost.index_tuples_read}};
}

void PrintQueryTsv(const std::string& algo, const QueryCost& cost,
                   NodeId source, uint32_t k, double preprocess_seconds,
                   double query_seconds, size_t nonzero,
                   const ScoreList& topk) {
  std::printf("meta\talgo\t%s\n", algo.c_str());
  std::printf("meta\tsource\t%u\n", source);
  std::printf("meta\tk\t%u\n", k);
  std::printf("meta\tpreprocess_s\t%.6f\n", preprocess_seconds);
  std::printf("meta\tquery_s\t%.6f\n", query_seconds);
  std::printf("meta\tnonzero_scores\t%zu\n", nonzero);
  for (const auto& [name, value] : CostFields(cost)) {
    std::printf("meta\t%s\t%llu\n", name, value);
  }
  for (const auto& [v, s] : topk) {
    std::printf("score\t%u\t%.17g\n", v, s);
  }
}

void PrintQueryJson(const std::string& algo, const QueryCost& cost,
                    NodeId source, uint32_t k, double preprocess_seconds,
                    double query_seconds, size_t nonzero,
                    const ScoreList& topk) {
  std::printf("{\"algo\":\"%s\",\"source\":%u,\"k\":%u,", algo.c_str(),
              source, k);
  std::printf("\"preprocess_seconds\":%.6f,\"query_seconds\":%.6f,",
              preprocess_seconds, query_seconds);
  std::printf("\"nonzero_scores\":%zu,", nonzero);
  std::printf("\"cost\":{");
  bool first = true;
  for (const auto& [name, value] : CostFields(cost)) {
    std::printf("%s\"%s\":%llu", first ? "" : ",", name, value);
    first = false;
  }
  std::printf("},\"scores\":[");
  for (size_t i = 0; i < topk.size(); ++i) {
    std::printf("%s[%u,%.17g]", i == 0 ? "" : ",", topk[i].first,
                topk[i].second);
  }
  std::printf("]}\n");
}

/// Batch mode of `query`: answers every valid node id in `sources_path`
/// (one per line, '#' comments) through the shared thread pool and reports
/// latency percentiles. Malformed or out-of-range lines are reported
/// individually on stderr and skipped; any such line turns the exit code
/// into 3 (0 = clean batch, 1 = unreadable file or no valid sources).
int RunBatchQuery(SingleSourceSimRank& engine, const std::string& sources_path,
                  QueryFormat format, uint32_t k, size_t threads) {
  std::ifstream in(sources_path);
  if (!in) {
    std::fprintf(stderr, "query: cannot open --sources-file %s\n",
                 sources_path.c_str());
    return 1;
  }
  const NodeId n = engine.node_count();
  std::vector<NodeId> sources;
  size_t invalid = 0;
  size_t line_no = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string token = net::TrimRequestLine(line);
    if (token.empty()) continue;
    uint64_t id = 0;
    if (!ParseUint64(token, &id) || id >= n) {
      std::fprintf(stderr, "%s:%zu: invalid node id '%s' (n = %u)\n",
                   sources_path.c_str(), line_no, token.c_str(), n);
      ++invalid;
      continue;
    }
    sources.push_back(static_cast<NodeId>(id));
  }
  if (sources.empty()) {
    std::fprintf(stderr, "query: no valid sources in %s\n",
                 sources_path.c_str());
    return invalid > 0 ? 3 : 1;
  }

  WallTimer timer;
  const BatchQueryResult batch = BatchQueryWithStats(engine, sources, threads);
  const double total_seconds = timer.Seconds();
  const QueryCost& cost = batch.cost;
  if (format == QueryFormat::kTsv) {
    std::printf("meta\talgo\t%s\n", engine.name().c_str());
    std::printf("meta\tqueries\t%zu\n", sources.size());
    std::printf("meta\tinvalid\t%zu\n", invalid);
    std::printf("meta\tbatch_s\t%.6f\n", total_seconds);
    std::printf("meta\tp50_ms\t%.6f\n", cost.latency_p50_seconds * 1e3);
    std::printf("meta\tp95_ms\t%.6f\n", cost.latency_p95_seconds * 1e3);
    std::printf("meta\tp99_ms\t%.6f\n", cost.latency_p99_seconds * 1e3);
    for (size_t i = 0; i < sources.size(); ++i) {
      for (const auto& [v, s] : TopK(batch.scores[i], k, sources[i])) {
        std::printf("score\t%u\t%u\t%.17g\n", sources[i], v, s);
      }
    }
  } else {
    for (size_t i = 0; i < sources.size(); ++i) {
      std::printf("source %u:\n", sources[i]);
      for (const auto& [v, s] : TopK(batch.scores[i], k, sources[i])) {
        std::printf("  %-10u %.6f\n", v, s);
      }
    }
    std::printf(
        "batch: queries=%zu invalid=%zu total_s=%.3f p50_ms=%.3f "
        "p95_ms=%.3f p99_ms=%.3f\n",
        sources.size(), invalid, total_seconds,
        cost.latency_p50_seconds * 1e3, cost.latency_p95_seconds * 1e3,
        cost.latency_p99_seconds * 1e3);
  }
  return invalid > 0 ? 3 : 0;
}

int CmdQuery(const Flags& flags) {
  // Validate the cheap inputs — --format, --source/--sources-file, and the
  // engine flags — before graph loading / index loading / preprocessing,
  // so a bad flag fails fast with exit 2 instead of after minutes of work.
  const std::string format_name = flags.Get("format", "text");
  QueryFormat format = QueryFormat::kText;
  if (format_name == "tsv") {
    format = QueryFormat::kTsv;
  } else if (format_name == "json") {
    format = QueryFormat::kJson;
  } else if (format_name != "text") {
    std::fprintf(stderr,
                 "query: unknown --format '%s' (text, tsv, or json)\n",
                 format_name.c_str());
    return 2;
  }
  const std::string sources_path = flags.Get("sources-file", "");
  if (!sources_path.empty() && flags.HasValue("source")) {
    std::fprintf(stderr,
                 "query: --source and --sources-file are mutually "
                 "exclusive\n");
    return 2;
  }
  if (!sources_path.empty() && format == QueryFormat::kJson) {
    std::fprintf(stderr,
                 "query: --sources-file supports --format text or tsv\n");
    return 2;
  }
  EngineSource spec;
  if (const int rc = ResolveEngineSource(flags, "query", &spec); rc != 0) {
    return rc;
  }
  const auto source = static_cast<NodeId>(flags.GetUint32("source", 0));
  const uint32_t k = flags.GetUint32("k", 20);

  // A bundle's graph must match the fingerprint its manifest recorded.
  auto graph_result = spec.manifest_path.empty()
                          ? LoadAnyGraph(spec.graph_path)
                          : LoadBundleGraph(spec.manifest, spec.graph_path);
  if (!graph_result.ok()) {
    std::fprintf(stderr, "%s\n", graph_result.status().ToString().c_str());
    return 1;
  }
  Graph graph = std::move(graph_result).ValueOrDie();
  if (sources_path.empty() && source >= graph.n()) {
    std::fprintf(stderr, "query: --source %u out of range (n = %u)\n", source,
                 graph.n());
    return 2;
  }

  auto engine_result = EngineRegistry::Global().Create(spec.info->name, graph,
                                                       spec.config);
  engine_result.status().Abort();  // config already validated above
  std::unique_ptr<SingleSourceSimRank> engine =
      std::move(engine_result).ValueOrDie();

  // In machine-readable modes the progress lines move to stderr so stdout
  // carries nothing but the tsv/json payload.
  FILE* progress = format == QueryFormat::kText ? stdout : stderr;
  WallTimer prep_timer;
  if (!spec.index_path.empty()) {
    Status st = engine->LoadIndex(spec.index_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(progress, "loaded index from %s in %.2fs\n",
                 spec.index_path.c_str(), prep_timer.Seconds());
  } else {
    Status st = engine->Preprocess();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(progress, "preprocessed in %.2fs (no --index given)\n",
                 prep_timer.Seconds());
  }
  const double preprocess_seconds = prep_timer.Seconds();

  if (!sources_path.empty()) {
    return RunBatchQuery(*engine, sources_path, format, k,
                         static_cast<size_t>(flags.GetInt("threads", 0)));
  }

  WallTimer query_timer;
  ScoreList scores = engine->Query(source);
  const double query_seconds = query_timer.Seconds();
  const ScoreList topk = TopK(scores, k, source);
  if (format == QueryFormat::kTsv) {
    PrintQueryTsv(engine->name(), engine->last_query_cost(), source, k,
                  preprocess_seconds, query_seconds, scores.size(), topk);
    return 0;
  }
  if (format == QueryFormat::kJson) {
    PrintQueryJson(engine->name(), engine->last_query_cost(), source, k,
                   preprocess_seconds, query_seconds, scores.size(), topk);
    return 0;
  }
  std::printf("query answered in %.4fs (%zu non-zero scores)\n",
              query_seconds, scores.size());
  std::printf("cost: algo=%s", engine->name().c_str());
  for (const auto& [name, value] : CostFields(engine->last_query_cost())) {
    std::printf(" %s=%llu", name, value);
  }
  std::printf("\n");
  for (const auto& [v, s] : topk) {
    std::printf("%-10u %.6f\n", v, s);
  }
  return 0;
}

void PrintServedStats(const ServiceStats& stats) {
  std::printf(
      "served queries=%llu failed=%llu rejected=%llu p50_ms=%.3f "
      "p95_ms=%.3f p99_ms=%.3f\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.rejected), stats.p50_seconds * 1e3,
      stats.p95_seconds * 1e3, stats.p99_seconds * 1e3);
}

/// Arms the global fault injector for `serve` from --faults/--fault-seed,
/// falling back to PRSIM_FAULTS/PRSIM_FAULT_SEED (flags win). Returns 0
/// (with *armed saying whether any fault points are live) or exit code 2
/// on a malformed spec. Only the CLI consults the environment — library
/// code and test binaries never read it, so a stray variable cannot
/// silently perturb a test run.
int ConfigureServeFaults(const Flags& flags, bool* armed) {
  *armed = false;
  std::string spec = flags.Get("faults", "");
  if (!flags.HasValue("faults")) {
    if (const char* env = std::getenv("PRSIM_FAULTS")) spec = env;
  }
  if (spec.empty()) return 0;
  uint64_t seed = flags.GetInt("fault-seed", 0);
  if (!flags.HasValue("fault-seed")) {
    if (const char* env = std::getenv("PRSIM_FAULT_SEED")) {
      if (!ParseUint64(env, &seed)) {
        std::fprintf(stderr, "serve: invalid PRSIM_FAULT_SEED '%s'\n", env);
        return 2;
      }
    }
  }
  if (Status st = FaultInjector::Global().Configure(spec, seed); !st.ok()) {
    std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
    return 2;
  }
  *armed = true;
  return 0;
}

/// Graceful-shutdown signal plumbing for `serve`. The handler only sets a
/// flag and pokes a pipe: the stdin loop notices because the blocked read
/// returns EINTR (no SA_RESTART), the TCP path because its wait poll()s
/// the pipe.
volatile std::sig_atomic_t g_serve_stop = 0;
int g_serve_signal_pipe = -1;

void HandleServeSignal(int) {
  g_serve_stop = 1;
  if (g_serve_signal_pipe >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = write(g_serve_signal_pipe, &byte, 1);
  }
}

void InstallServeSignalHandlers() {
  struct sigaction action {};
  action.sa_handler = HandleServeSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked stdin reads must EINTR out
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // Dead clients must surface as write errors on their own connection, not
  // kill the whole server.
  std::signal(SIGPIPE, SIG_IGN);
}

/// The stdin framing of the shared serve loop (net/serve_loop): pipelined
/// submission with answers printed in submission order, each flushed before
/// the next read. std::getline delivers a final line even without a
/// trailing newline, so piped clients that omit it still get an answer.
/// Returns the number of failed lines.
size_t ServeStdinLoop(NodeId n, uint32_t default_k, size_t window,
                      const net::SubmitFn& submit) {
  net::LineTransport transport;
  transport.read_line = [](std::string* line) {
    return g_serve_stop == 0 &&
           static_cast<bool>(std::getline(std::cin, *line));
  };
  transport.write_line = [](const std::string& line) {
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };
  transport.report_error = [](size_t line_no, const std::string& message) {
    std::fprintf(stderr, "line %zu: %s\n", line_no, message.c_str());
  };
  return net::ServeLineLoop(n, default_k, window, submit, transport);
}

/// Everything `serve` needs behind a transport: the submit hook, the node
/// count for request validation, and the stats snapshot for the exit
/// report. Members are declared owner-last so the graph outlives the
/// service holding a reference to it.
struct ServeBackend {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<ShardRouter> router;
  NodeId n = 0;
  net::SubmitFn submit;
  std::function<ServiceStats()> stats;
};

/// Builds the unsharded (--graph) or sharded (--manifest) backend from the
/// serve flags. Returns 0 and fills *backend on success, else the exit code
/// (the ready banner has already been printed to stderr).
int OpenServeBackend(const Flags& flags, ServeBackend* backend) {
  const size_t max_queue = static_cast<size_t>(flags.GetInt("queue", 1024));
  if (max_queue == 0) {
    std::fprintf(stderr, "serve: --queue must be positive\n");
    return 2;
  }
  // Negative or malformed --cache-mb values exit 2 inside GetInt; so does a
  // budget whose byte count would wrap size_t (and silently disable the
  // cache).
  const uint64_t cache_mb = flags.GetInt("cache-mb", 0);
  if (cache_mb > (SIZE_MAX >> 20)) {
    std::fprintf(stderr, "serve: --cache-mb %llu overflows the byte budget\n",
                 static_cast<unsigned long long>(cache_mb));
    return 2;
  }
  const size_t cache_bytes = static_cast<size_t>(cache_mb) << 20;
  EngineSource spec;
  if (const int rc = ResolveEngineSource(flags, "serve", &spec); rc != 0) {
    return rc;
  }
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 0));
  const auto backpressure = flags.Has("reject")
                                ? QueryServiceOptions::Backpressure::kReject
                                : QueryServiceOptions::Backpressure::kBlock;

  if (!spec.manifest_path.empty()) {
    WallTimer start_timer;
    ShardRouterOptions options;
    options.threads_per_shard = threads;
    options.max_queue = max_queue;
    options.backpressure = backpressure;
    options.cache_bytes = cache_bytes;
    auto router_result = ShardRouter::Open(spec.manifest_path, options);
    if (!router_result.ok()) {
      std::fprintf(stderr, "%s\n", router_result.status().ToString().c_str());
      return 1;
    }
    backend->router = std::move(router_result).ValueOrDie();
    ShardRouter* router = backend->router.get();
    backend->n = router->node_count();
    backend->submit = [router](QueryRequest request) {
      return router->SubmitRequest(std::move(request));
    };
    backend->stats = [router] { return router->Stats(); };
    std::fprintf(stderr,
                 "serving %s: %u shard(s), n=%u, ready in %.2fs; requests "
                 "are \"<source> [k]\"\n",
                 router->manifest().algo.c_str(), router->shard_count(),
                 router->node_count(), start_timer.Seconds());
    return 0;
  }

  auto graph_result = LoadAnyGraph(spec.graph_path);
  if (!graph_result.ok()) {
    std::fprintf(stderr, "%s\n", graph_result.status().ToString().c_str());
    return 1;
  }
  backend->graph =
      std::make_unique<Graph>(std::move(graph_result).ValueOrDie());

  QueryServiceOptions options;
  options.threads = threads;
  options.max_queue = max_queue;
  options.backpressure = backpressure;
  options.cache_bytes = cache_bytes;
  backend->service = std::make_unique<QueryService>(options);
  WallTimer start_timer;
  Status st = spec.index_path.empty()
                  ? backend->service->AddEngine(spec.info->name,
                                                *backend->graph, spec.config)
                  : backend->service->AddEngineFromIndex(
                        spec.info->name, *backend->graph, spec.config,
                        spec.index_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  backend->n = backend->graph->n();
  QueryService* service = backend->service.get();
  backend->submit = [service](QueryRequest request) {
    return service->Submit(std::move(request));
  };
  backend->stats = [service] { return service->Stats(); };
  std::fprintf(stderr,
               "serving %s: n=%u, %zu workers, ready in %.2fs; requests "
               "are \"<source> [k]\"\n",
               spec.info->name.c_str(), backend->n, service->threads(),
               start_timer.Seconds());
  return 0;
}

/// Long-lived query service behind the stdin or TCP transport. One request
/// per line / frame; invalid requests get per-request errors and the
/// service keeps serving. SIGINT/SIGTERM drain and exit 0; a clean EOF
/// exits 3 if any line failed, 0 otherwise.
int CmdServe(const Flags& flags) {
  const bool use_stdin = flags.Has("stdin");
  const bool use_listen = flags.HasValue("listen");
  if (use_stdin == use_listen) {
    std::fprintf(stderr,
                 "serve: exactly one transport is required: --stdin or "
                 "--listen PORT\n");
    return 2;
  }
  const uint64_t listen_port = flags.GetInt("listen", 0);
  if (use_listen && listen_port > 65535) {
    std::fprintf(stderr, "serve: --listen port must be <= 65535\n");
    return 2;
  }
  const uint32_t default_k = flags.GetUint32("k", 20);
  const size_t max_connections =
      static_cast<size_t>(flags.GetInt("max-connections", 64));
  if (use_listen && max_connections == 0) {
    std::fprintf(stderr, "serve: --max-connections must be positive\n");
    return 2;
  }

  // Arm fault injection before the backend loads, so artifact-read fault
  // points can exercise the cold-start error paths too.
  bool faults_armed = false;
  if (const int rc = ConfigureServeFaults(flags, &faults_armed); rc != 0) {
    return rc;
  }

  ServeBackend backend;
  if (const int rc = OpenServeBackend(flags, &backend); rc != 0) {
    return rc;
  }
  const size_t window = static_cast<size_t>(flags.GetInt("queue", 1024));

  if (use_stdin) {
    InstallServeSignalHandlers();
    // Never submit beyond the service's own queue bound: stdin is a single
    // well-behaved client, so overrunning it would make --reject shed our
    // own valid lines. (--reject still matters once multiple clients share
    // a service; here it simply never fires.) Positional seeds are
    // assigned at submission, so answers are independent of --threads.
    const size_t bad_lines =
        ServeStdinLoop(backend.n, default_k, window, backend.submit);
    const ServiceStats stats = backend.stats();
    PrintServedStats(stats);
    std::fprintf(stderr, "%s\n", ServiceStatsJson(stats, "stdin").c_str());
    if (faults_armed) {
      std::fprintf(stderr, "%s\n",
                   FaultInjector::Global().StatsJson().c_str());
    }
    if (g_serve_stop != 0) return 0;  // graceful signal shutdown
    return bad_lines > 0 ? 3 : 0;
  }

  // TCP transport. The signal pipe must exist before the handlers that
  // poke it are installed.
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    std::fprintf(stderr, "serve: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  UniqueFd signal_read(pipe_fds[0]);
  UniqueFd signal_write(pipe_fds[1]);
  g_serve_signal_pipe = signal_write.get();
  InstallServeSignalHandlers();

  net::TcpServerOptions server_options;
  server_options.port = static_cast<uint16_t>(listen_port);
  server_options.node_count = backend.n;
  server_options.default_k = default_k;
  server_options.window = window;
  server_options.max_connections = max_connections;
  server_options.idle_timeout_ms =
      static_cast<int>(flags.GetInt("idle-timeout-ms", 0));
  server_options.io_timeout_ms =
      static_cast<int>(flags.GetInt("io-timeout-ms", 0));
  auto server_result =
      net::TcpServer::Start(server_options, backend.submit);
  if (!server_result.ok()) {
    std::fprintf(stderr, "%s\n", server_result.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::TcpServer> server =
      std::move(server_result).ValueOrDie();
  std::fprintf(stderr, "listening on 127.0.0.1:%u\n", server->port());
  std::fflush(stderr);

  // Park until SIGINT/SIGTERM; the sessions do all the work.
  while (g_serve_stop == 0) {
    pollfd wake = {signal_read.get(), POLLIN, 0};
    if (::poll(&wake, 1, -1) < 0 && errno != EINTR) break;
  }
  server->Shutdown();
  const net::TcpServerStats transport_stats = server->Stats();
  std::fprintf(stderr,
               "connections=%llu requests=%llu protocol_errors=%llu "
               "idle_closed=%llu\n",
               static_cast<unsigned long long>(transport_stats.connections),
               static_cast<unsigned long long>(transport_stats.requests),
               static_cast<unsigned long long>(
                   transport_stats.protocol_errors),
               static_cast<unsigned long long>(transport_stats.idle_closed));
  const ServiceStats stats = backend.stats();
  PrintServedStats(stats);
  std::fprintf(stderr, "%s\n", ServiceStatsJson(stats, "tcp").c_str());
  if (faults_armed) {
    std::fprintf(stderr, "%s\n",
                 FaultInjector::Global().StatsJson().c_str());
  }
  return 0;
}

/// Binary-framing TCP client: one connection, --count N pipelined copies
/// of one request (default 1), printed in the offline query formats so
/// wire answers diff against `query`. With N > 1 every response must be
/// byte-identical to the first (the cache cold/hot paths promise exactly
/// that for --fresh), so repeat traffic can be driven and checked from the
/// shell; per-response arrival times are reported for eyeballing hit
/// latency.
int CmdClient(const Flags& flags) {
  if (!flags.HasValue("port")) {
    std::fprintf(stderr, "client: --port is required\n");
    return 2;
  }
  const uint64_t port = flags.GetInt("port", 0);
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "client: --port must be in [1, 65535]\n");
    return 2;
  }
  const std::string format_name = flags.Get("format", "tsv");
  if (format_name != "tsv" && format_name != "text") {
    std::fprintf(stderr, "client: unknown --format '%s' (text or tsv)\n",
                 format_name.c_str());
    return 2;
  }
  const uint64_t count64 = flags.GetInt("count", 1);
  if (count64 == 0 || count64 > 1000) {
    // Upper bound keeps the write-all-then-read-all pipeline inside the
    // server's dispatch window and the kernel socket buffers; a sustained-
    // load driver belongs in bench_serve_throughput, not here.
    std::fprintf(stderr, "client: --count must be in [1, 1000]\n");
    return 2;
  }
  const size_t count = static_cast<size_t>(count64);
  std::signal(SIGPIPE, SIG_IGN);

  net::WireRequest request;
  request.algo = flags.Get("algo", "");
  request.source = static_cast<NodeId>(flags.GetUint32("source", 0));
  request.k = flags.GetUint32("k", 20);
  request.fresh_seed = flags.Has("fresh");
  if (flags.HasValue("deadline-ms")) {
    request.deadline_ms = flags.GetInt("deadline-ms", 0);
  }
  // --timeout-ms bounds the connect and the wait for each response;
  // --retries N re-attempts the whole exchange with jittered exponential
  // backoff, but ONLY on failures where the server provably did not start
  // answering (connect failure, timeout or clean EOF before the first
  // response frame). A partial reply is never retried: the server may have
  // committed work, and silently re-issuing would hide real flakiness.
  const int timeout_ms = static_cast<int>(flags.GetInt("timeout-ms", 0));
  const uint64_t retries = flags.GetInt("retries", 0);

  std::vector<char> request_payload;
  net::EncodeRequest(request, &request_payload);
  std::vector<char> payload;
  std::vector<char> first_payload;
  std::vector<double> arrival_seconds(count, 0);
  WallTimer timer;
  Status st;
  uint64_t backoff_state = (static_cast<uint64_t>(port) << 32) ^
                           request.source ^ 0x9e3779b97f4a7c15ull;
  for (uint64_t attempt = 0;; ++attempt) {
    st = Status::OK();
    bool retryable = false;
    size_t responses = 0;
    auto fd_result = ConnectTcp(static_cast<uint16_t>(port),
                                timeout_ms > 0 ? timeout_ms : -1);
    if (!fd_result.ok()) {
      st = fd_result.status();
      retryable = true;
    } else {
      UniqueFd fd = std::move(fd_result).ValueOrDie();
      timer = WallTimer();
      // Pipeline: all requests go out before the first response is read —
      // the server's per-connection dispatch window keeps them in order.
      st = WriteAll(fd.get(), net::kBinaryMagic, sizeof(net::kBinaryMagic));
      for (size_t i = 0; st.ok() && i < count; ++i) {
        st = net::WriteFrame(fd.get(), request_payload);
      }
      for (size_t i = 0; st.ok() && i < count; ++i) {
        bool eof = false;
        if (timeout_ms > 0) {
          st = WaitFdEvent(fd.get(), POLLIN, timeout_ms);
          if (st.code() == StatusCode::kDeadlineExceeded) {
            st = Status::DeadlineExceeded("no response within " +
                                          std::to_string(timeout_ms) +
                                          "ms");
            // The timeout fired before this frame delivered a byte; with
            // no frames received at all, nothing was consumed.
            retryable = responses == 0;
            break;
          }
        }
        if (st.ok()) st = net::ReadFrame(fd.get(), &payload, &eof);
        if (st.ok() && eof) {
          st = Status::IOError("server closed the connection after " +
                               std::to_string(i) + " of " +
                               std::to_string(count) + " responses");
          retryable = responses == 0;  // clean EOF, nothing received
        }
        if (!st.ok()) break;
        ++responses;
        arrival_seconds[i] = timer.Seconds();
        if (i == 0) {
          first_payload = payload;
        } else if (payload != first_payload) {
          std::fprintf(stderr,
                       "client: response %zu differs from response 0 — the "
                       "server is not answering this request "
                       "deterministically\n",
                       i);
          return 1;
        }
      }
    }
    if (st.ok()) break;
    if (!retryable || attempt >= retries) break;
    const uint64_t backoff_ms =
        (50ull << std::min<uint64_t>(attempt, 6)) +
        SplitMix64(backoff_state) % 50;
    std::fprintf(stderr, "client: %s; retry %llu/%llu in %llums\n",
                 st.ToString().c_str(),
                 static_cast<unsigned long long>(attempt + 1),
                 static_cast<unsigned long long>(retries),
                 static_cast<unsigned long long>(backoff_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto response_result = net::DecodeResponse(first_payload);
  if (!response_result.ok()) {
    std::fprintf(stderr, "%s\n",
                 response_result.status().ToString().c_str());
    return 1;
  }
  const net::WireResponse response = std::move(response_result).ValueOrDie();
  const double roundtrip_seconds = arrival_seconds[0];
  if (response.status_code != 0) {
    std::fprintf(stderr, "server error (%s): %s\n",
                 StatusCodeToString(
                     static_cast<StatusCode>(response.status_code)),
                 response.error.c_str());
    return 1;
  }
  if (format_name == "tsv") {
    std::printf("meta\tsource\t%u\n", response.source);
    std::printf("meta\tk\t%u\n", request.k);
    std::printf("meta\troundtrip_s\t%.6f\n", roundtrip_seconds);
    if (count > 1) {
      // Extra meta rows only in the multi-shot shape: the single-shot
      // output stays byte-compatible with what `query --format tsv` diffs
      // against.
      std::printf("meta\tcount\t%zu\n", count);
      std::printf("meta\ttotal_s\t%.6f\n", arrival_seconds[count - 1]);
      for (size_t i = 0; i < count; ++i) {
        std::printf("rtt\t%zu\t%.6f\n", i, arrival_seconds[i]);
      }
    }
    for (const auto& [node, score] : response.scores) {
      std::printf("score\t%u\t%.17g\n", node, score);
    }
  } else {
    if (count > 1) {
      std::printf(
          "%zu pipelined queries answered in %.4fs (all byte-identical; "
          "first %.4fs, %zu scores)\n",
          count, arrival_seconds[count - 1], roundtrip_seconds,
          response.scores.size());
    } else {
      std::printf("query answered in %.4fs (%zu scores)\n",
                  roundtrip_seconds, response.scores.size());
    }
    for (const auto& [node, score] : response.scores) {
      std::printf("%-10u %.6f\n", node, score);
    }
  }
  return 0;
}

int CmdGenerate(const Flags& flags) {
  const std::string out_path = flags.Get("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  const std::string model = flags.Get("model", "chunglu");
  Result<Graph> graph = Status::InvalidArgument("unknown model: " + model);
  if (model == "chunglu") {
    ChungLuOptions options;
    options.n = flags.GetUint32("n", 100000);
    options.avg_degree = flags.GetDouble("degree", 10);
    options.gamma_out = flags.GetDouble("gamma", 2.0);
    options.gamma_in = flags.GetDouble("gamma_in", -1);
    options.undirected = flags.undirected();
    options.seed = flags.GetInt("seed", 1);
    graph = GenerateChungLu(options);
  } else if (model == "er") {
    ErdosRenyiOptions options;
    options.n = flags.GetUint32("n", 100000);
    options.avg_degree = flags.GetDouble("degree", 10);
    options.undirected = flags.undirected();
    options.seed = flags.GetInt("seed", 1);
    graph = GenerateErdosRenyi(options);
  } else if (model == "ba") {
    BarabasiAlbertOptions options;
    options.n = flags.GetUint32("n", 100000);
    options.edges_per_node = flags.GetUint32("degree", 5);
    options.seed = flags.GetInt("seed", 1);
    graph = GenerateBarabasiAlbert(options);
  }
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  Status st = EndsWith(out_path, ".bin")
                  ? GraphIO::SaveBinary(graph.ValueOrDie(), out_path)
                  : SaveEdgeListText(graph.ValueOrDie(), out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: n=%u m=%llu\n", out_path.c_str(),
              graph.ValueOrDie().n(),
              static_cast<unsigned long long>(graph.ValueOrDie().m()));
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: prsim_cli "
      "<stats|algos|index|shard-build|query|serve|client|generate> "
      "[--flags]\n"
      "  see the header comment of tools/prsim_cli.cc\n");
}

/// Parses the flags a subcommand accepts and runs it, or reports the parse
/// error with usage and exits 2.
int Dispatch(int argc, char** argv, std::initializer_list<const char*> valued,
             std::initializer_list<const char*> booleans,
             int (*cmd)(const Flags&)) {
  const Flags flags(argc, argv, 2, valued, booleans);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    Usage();
    return 2;
  }
  return cmd(flags);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "stats") {
    return Dispatch(argc, argv, {"graph"}, {}, CmdStats);
  }
  if (command == "algos") {
    return Dispatch(argc, argv, {}, {}, CmdAlgos);
  }
  if (command == "index") {
    return Dispatch(argc, argv,
                    {"graph", "out", "algo", "params", "eps", "c", "j0",
                     "seed", "threads"},
                    {}, CmdIndex);
  }
  if (command == "shard-build") {
    return Dispatch(argc, argv,
                    {"graph", "out-dir", "shards", "strategy", "algo",
                     "params", "eps", "c", "j0", "seed", "threads"},
                    {}, CmdShardBuild);
  }
  if (command == "query") {
    return Dispatch(argc, argv,
                    {"graph", "index", "manifest", "source", "sources-file",
                     "eps", "c", "k", "seed", "algo", "params", "j0", "alpha",
                     "rounds", "threads", "format"},
                    {"paper-constants"}, CmdQuery);
  }
  if (command == "serve") {
    return Dispatch(argc, argv,
                    {"graph", "index", "manifest", "eps", "c", "k", "seed",
                     "algo", "params", "j0", "alpha", "rounds", "threads",
                     "queue", "listen", "max-connections", "cache-mb",
                     "faults", "fault-seed", "idle-timeout-ms",
                     "io-timeout-ms"},
                    {"stdin", "reject", "paper-constants"},
                    CmdServe);
  }
  if (command == "client") {
    return Dispatch(argc, argv,
                    {"port", "source", "k", "algo", "format", "count",
                     "timeout-ms", "retries", "deadline-ms"},
                    {"fresh"}, CmdClient);
  }
  if (command == "generate") {
    return Dispatch(argc, argv,
                    {"out", "model", "n", "degree", "gamma", "gamma_in",
                     "seed"},
                    {"undirected"}, CmdGenerate);
  }
  Usage();
  return 2;
}
