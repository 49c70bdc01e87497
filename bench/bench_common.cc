#include "bench_common.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "core/artifact.h"
#include "core/engine_registry.h"
#include "eval/datasets.h"
#include "util/cache_dir.h"
#include "util/parse.h"
#include "util/serde.h"
#include "util/timer.h"

namespace prsim::bench {

namespace {

std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

/// Directory for cached index artifacts, created on demand; "" = disabled
/// (PRSIM_BENCH_CACHE=0, or the directory cannot be created).
std::string BenchCacheDir() {
  const char* toggle = std::getenv("PRSIM_BENCH_CACHE");
  if (toggle != nullptr && std::string(toggle) == "0") return "";
  const char* configured = std::getenv("PRSIM_BENCH_CACHE_DIR");
  std::filesystem::path dir =
      configured != nullptr && configured[0] != '\0'
          ? std::filesystem::path(configured)
          : std::filesystem::temp_directory_path() / "prsim-bench-cache";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  return dir.string();
}

/// Cache file for one (graph, engine, params) triple. The artifact format
/// version is part of the name so a cache directory shared across builds
/// never hands a file in another container format to this build's reader;
/// the engine's own fingerprint check re-validates on load, so a hash
/// collision degrades to a rebuild, never to a wrong index.
std::string CachePath(const std::string& dir, uint64_t graph_checksum,
                      const SweepConfig& config) {
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), "-%016" PRIx64 ".v%u.idx",
                HashString(config.cache_key) ^ graph_checksum,
                kArtifactVersion);
  return dir + "/" + config.engine + suffix;
}

/// Cache size cap in bytes: PRSIM_BENCH_CACHE_LIMIT_MB (default 2048 MB).
/// Parameter sweeps write one artifact per configuration, so the cache is
/// trimmed back to the cap after each sweep with mtime-LRU order — loads
/// Touch their artifact, keeping hot configurations resident.
uint64_t BenchCacheLimitBytes() {
  constexpr uint64_t kDefaultMb = 2048;
  constexpr uint64_t kMaxMb = UINT64_MAX >> 20;  // saturate, don't wrap
  uint64_t mb = kDefaultMb;
  if (const char* env = std::getenv("PRSIM_BENCH_CACHE_LIMIT_MB");
      env != nullptr && env[0] != '\0') {
    if (uint64_t value = 0; ParseUint64(env, &value)) {
      mb = std::min(value, kMaxMb);
    }
  }
  return mb * 1024 * 1024;
}

}  // namespace

SweepConfig MakeSweepConfig(const Graph& graph, const std::string& engine,
                            const std::string& params, uint64_t seed,
                            const std::string& display_param) {
  const EngineRegistry& registry = EngineRegistry::Global();
  const EngineInfo* info = registry.Find(engine);
  PRSIM_CHECK(info != nullptr) << "unknown engine: " << engine;
  auto config = EngineConfig::Parse(params);
  config.status().Abort();
  config.ValueOrDie().SetOrReplace("seed", std::to_string(seed));
  auto instance = registry.Create(engine, graph, config.ValueOrDie());
  instance.status().Abort();
  return {info->display_name, display_param.empty() ? params : display_param,
          std::move(instance).ValueOrDie(), info->index_based, info->name,
          info->has_persistent_index ? config.ValueOrDie().ToString() : ""};
}

std::vector<SweepConfig> BuildParameterSweep(const Graph& graph,
                                             bool index_based_only,
                                             uint64_t seed) {
  std::vector<SweepConfig> configs;

  // PRSim: eps sweep (Section 5.2 uses {0.5, 0.1, 0.05, 0.01, 0.005};
  // the two smallest are trimmed to keep laptop runtimes bounded).
  for (double eps : {0.5, 0.1, 0.05, 0.02}) {
    configs.push_back(
        MakeSweepConfig(graph, "prsim", "eps=" + FormatDouble(eps), seed));
  }

  // SLING: eps_a sweep; small eps on large graphs exhausts the tuple budget
  // and is skipped at preprocessing, mirroring the paper's omissions.
  for (double eps : {0.5, 0.1, 0.05}) {
    configs.push_back(MakeSweepConfig(
        graph, "sling",
        "eps=" + FormatDouble(eps) + ",max_tuples=60000000", seed,
        "eps=" + FormatDouble(eps)));
  }

  // TSF: (Rg, Rq) sweep.
  for (auto [rg, rq] : std::vector<std::pair<uint32_t, uint32_t>>{
           {10, 2}, {100, 20}, {300, 40}}) {
    configs.push_back(MakeSweepConfig(
        graph, "tsf",
        "rg=" + std::to_string(rg) + ",rq=" + std::to_string(rq), seed,
        "Rg=" + std::to_string(rg) + ",Rq=" + std::to_string(rq)));
  }

  // READS: (r, t) sweep.
  for (auto [r, t] : std::vector<std::pair<uint32_t, uint32_t>>{
           {10, 2}, {50, 5}, {100, 10}, {200, 10}}) {
    configs.push_back(MakeSweepConfig(
        graph, "reads",
        "r=" + std::to_string(r) + ",t=" + std::to_string(t) +
            ",max_entries=100000000",
        seed, "r=" + std::to_string(r) + ",t=" + std::to_string(t)));
  }

  if (!index_based_only) {
    // ProbeSim: eps sweep.
    for (double eps : {0.5, 0.1, 0.05}) {
      configs.push_back(MakeSweepConfig(graph, "probesim",
                                        "eps=" + FormatDouble(eps), seed));
    }
    // TopSim: (T, 1/h) sweep.
    for (auto [depth, cap] : std::vector<std::pair<uint32_t, uint32_t>>{
             {1, 10}, {3, 100}, {3, 1000}}) {
      configs.push_back(MakeSweepConfig(
          graph, "topsim",
          "depth=" + std::to_string(depth) + ",degree_cap=" +
              std::to_string(cap),
          seed,
          "T=" + std::to_string(depth) + ",1/h=" + std::to_string(cap)));
    }
  }
  return configs;
}

std::vector<SweepConfig> BuildFixedConfigs(const Graph& graph, uint64_t seed) {
  // Fixed Section 5.3 settings; TSF/READS/TopSim ride on their paper-default
  // options (Rg=300, Rq=40; r=100, t=10; T=3, 1/h=100).
  std::vector<SweepConfig> configs;
  configs.push_back(MakeSweepConfig(graph, "prsim", "eps=0.25", seed));
  configs.push_back(MakeSweepConfig(graph, "sling", "eps=0.25", seed));
  configs.push_back(MakeSweepConfig(graph, "tsf", "", seed, "Rg=300,Rq=40"));
  configs.push_back(MakeSweepConfig(graph, "reads", "", seed, "r=100,t=10"));
  configs.push_back(MakeSweepConfig(graph, "probesim", "eps=0.25", seed));
  configs.push_back(
      MakeSweepConfig(graph, "topsim", "", seed, "T=3,1/h=100"));
  return configs;
}

std::vector<SweepRow> RunSweep(const Graph& graph,
                               std::vector<SweepConfig> configs,
                               uint32_t query_count, uint32_t k,
                               double per_algo_budget_seconds, uint64_t seed) {
  const std::string cache_dir = BenchCacheDir();
  // One O(n + m) checksum per sweep, not one per config (SaveIndex /
  // LoadIndex still hash internally for their fingerprints).
  const uint64_t graph_checksum =
      cache_dir.empty() ? 0 : graph.Checksum();
  std::vector<EvalEntry> entries;
  std::vector<const SweepConfig*> kept;
  std::vector<double> preprocess_seconds;
  std::vector<bool> reused_cache;
  for (auto& config : configs) {
    std::string cache_path;
    if (!cache_dir.empty() && !config.cache_key.empty()) {
      cache_path = CachePath(cache_dir, graph_checksum, config);
    }
    bool reused = false;
    double seconds = 0;
    if (!cache_path.empty()) {
      WallTimer load_timer;
      if (Status load = config.instance->LoadIndex(cache_path); load.ok()) {
        reused = true;
        seconds = load_timer.Seconds();
        // Mark most-recently-used so LRU eviction keeps hot configs.
        TouchFile(cache_path);
        std::fprintf(stderr,
                     "  [cache] %s(%s): reused index %s (loaded in %.2fs)\n",
                     config.algo.c_str(), config.param.c_str(),
                     cache_path.c_str(), seconds);
      }
    }
    if (!reused) {
      WallTimer build_timer;
      Status st = config.instance->Preprocess();
      if (!st.ok()) {
        std::fprintf(stderr, "  [skip] %s(%s): %s\n", config.algo.c_str(),
                     config.param.c_str(), st.ToString().c_str());
        continue;
      }
      // Capture the build time before the artifact write: preprocess_s is
      // the paper's preprocessing metric, and serializing a large index is
      // not part of it.
      seconds = build_timer.Seconds();
      if (!cache_path.empty()) {
        if (Status save = config.instance->SaveIndex(cache_path);
            !save.ok()) {
          std::fprintf(stderr, "  [cache] %s(%s): save failed: %s\n",
                       config.algo.c_str(), config.param.c_str(),
                       save.ToString().c_str());
        }
      }
    }
    kept.push_back(&config);
    preprocess_seconds.push_back(seconds);
    reused_cache.push_back(reused);
    entries.push_back({config.algo + "(" + config.param + ")",
                       config.instance.get(), seconds});
  }
  if (!cache_dir.empty()) {
    // Trim the cache back to its byte cap, oldest-mtime first; the
    // artifacts this sweep just wrote or touched are the newest and go
    // last.
    const CacheEvictionStats evicted =
        EvictLruFiles(cache_dir, BenchCacheLimitBytes());
    if (evicted.files_removed > 0) {
      std::fprintf(stderr,
                   "  [cache] evicted %zu file(s), %.1f MB (cache now "
                   "%.1f MB)\n",
                   evicted.files_removed, evicted.bytes_removed / 1e6,
                   evicted.bytes_remaining / 1e6);
    }
  }

  GroundTruthOptions gt_options;
  gt_options.seed = seed + 1;
  GroundTruth truth(graph, gt_options);
  truth.Prepare().Abort();

  PoolingOptions pooling;
  pooling.k = k;
  pooling.per_algorithm_budget_seconds = per_algo_budget_seconds;
  const auto queries = SampleQueryNodes(graph, query_count, seed + 2);
  const auto metrics = RunPooledEvaluation(graph, entries, truth, queries,
                                           pooling);

  std::vector<SweepRow> rows;
  for (size_t i = 0; i < metrics.size(); ++i) {
    SweepRow row;
    row.algo = kept[i]->algo;
    row.param = kept[i]->param;
    row.query_seconds = metrics[i].mean_query_seconds;
    row.avg_error = metrics[i].avg_error_at_k;
    row.precision = metrics[i].precision_at_k;
    row.index_bytes = metrics[i].index_bytes;
    row.preprocess_seconds = preprocess_seconds[i];
    row.index_based = kept[i]->index_based;
    row.from_cache = reused_cache[i];
    rows.push_back(row);
  }
  return rows;
}

void PrintRow(const std::string& figure, const std::string& dataset,
              const SweepRow& row) {
  std::printf(
      "[%s] dataset=%s algo=%s param=%s query_s=%.5f avg_err@50=%.5f "
      "precision@50=%.3f index_mb=%.2f preprocess_s=%.2f cached=%d\n",
      figure.c_str(), dataset.c_str(), row.algo.c_str(), row.param.c_str(),
      row.query_seconds, row.avg_error, row.precision,
      row.index_bytes / 1e6, row.preprocess_seconds, row.from_cache ? 1 : 0);
  std::fflush(stdout);
}

BenchScale GetBenchScale() {
  BenchScale scale;
  scale.factor = BenchScaleFromEnv();
  if (scale.factor < 1.0) {
    scale.query_count = 3;
    scale.budget_seconds = 20;
  } else if (scale.factor > 1.0) {
    scale.query_count = 12;
    scale.budget_seconds = 300;
  }
  return scale;
}

}  // namespace prsim::bench
