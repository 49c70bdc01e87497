// Google-benchmark micro suite for the library's hot primitives: walk
// sampling, meeting tests, backward search/walks, reverse PageRank, CSR
// construction, the FlatHashMap2 accumulator vs std::unordered_map, top-k
// selection, and cold graph artifact loads (mmap vs read() fallback).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <unordered_map>

#include "core/single_source.h"
#include "gen/chung_lu.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "ppr/backward_search.h"
#include "ppr/backward_walk.h"
#include "ppr/reverse_pagerank.h"
#include "ppr/walker.h"
#include "util/alias_table.h"
#include "util/flat_hash_map2.h"
#include "util/rng.h"

namespace {

using namespace prsim;

const Graph& BenchGraph() {
  static const Graph graph = [] {
    ChungLuOptions options;
    options.n = 100000;
    options.avg_degree = 10;
    options.gamma_out = 1.8;
    options.seed = 1;
    return GenerateChungLu(options).MoveValueUnsafe();
  }();
  return graph;
}

void BM_SampleWalk(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Walker walker(g, 0.6);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.SampleWalk(rng.NextIndex(g.n()), rng));
  }
}
BENCHMARK(BM_SampleWalk);

void BM_PairMeetingTest(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Walker walker(g, 0.6);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        walker.SamplePairMeets(rng.NextIndex(g.n()), rng));
  }
}
BENCHMARK(BM_PairMeetingTest);

void BM_VarianceBoundedBackwardWalk(benchmark::State& state) {
  const Graph& g = BenchGraph();
  BackwardWalker walker(g, 0.6);
  Rng rng(3);
  const auto level = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        walker.RunVarianceBounded(rng.NextIndex(g.n()), level, rng));
  }
}
BENCHMARK(BM_VarianceBoundedBackwardWalk)->Arg(2)->Arg(4)->Arg(8);

void BM_SimpleBackwardWalk(benchmark::State& state) {
  const Graph& g = BenchGraph();
  BackwardWalker walker(g, 0.6);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.RunSimple(rng.NextIndex(g.n()), 4, rng));
  }
}
BENCHMARK(BM_SimpleBackwardWalk);

void BM_BackwardSearch(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Rng rng(5);
  BackwardSearchOptions options;
  options.rmax = 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BackwardSearch(g, rng.NextIndex(g.n()), options));
  }
}
BENCHMARK(BM_BackwardSearch);

void BM_ReversePageRank(benchmark::State& state) {
  const Graph& g = BenchGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeReversePageRank(g, {.c = 0.6}));
  }
}
BENCHMARK(BM_ReversePageRank)->Unit(benchmark::kMillisecond);

void BM_GraphConstruction(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const auto edges = g.ToEdges();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Graph::FromEdges(g.n(), edges));
  }
}
BENCHMARK(BM_GraphConstruction)->Unit(benchmark::kMillisecond);

/// Cold graph artifact load over a 100k-node graph. Arg 1 = mmap-backed
/// zero-copy views, 2 = the read() fallback onto the heap. Validation is
/// off for both so the rows isolate pure deserialization (checksums still
/// verify on every load).
void BM_GraphColdLoad(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("prsim_bench_coldload_" + std::to_string(state.range(0)) + ".bin"))
          .string();
  const Status saved = GraphIO::SaveBinary(BenchGraph(), path);
  if (!saved.ok()) {
    state.SkipWithError(saved.ToString().c_str());
    return;
  }
  GraphIO::LoadOptions options;
  options.allow_mmap = state.range(0) == 1;
  options.validate = false;
  for (auto _ : state) {
    auto graph = GraphIO::LoadBinary(path, options);
    if (!graph.ok()) {
      state.SkipWithError(graph.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(graph.ValueOrDie().OutDegree(0));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_GraphColdLoad)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_FlatHashMapAccumulate(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    FlatHashMap2<double> map(16);
    for (int i = 0; i < 4096; ++i) {
      map[rng.NextBounded(1024)] += 1.0;
    }
    benchmark::DoNotOptimize(map.size());
  }
}
BENCHMARK(BM_FlatHashMapAccumulate);

void BM_StdUnorderedMapAccumulate(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    std::unordered_map<uint64_t, double> map;
    for (int i = 0; i < 4096; ++i) {
      map[rng.NextBounded(1024)] += 1.0;
    }
    benchmark::DoNotOptimize(map.size());
  }
}
BENCHMARK(BM_StdUnorderedMapAccumulate);

// Top-10 of a 20k-entry score list: the size of a PRSim answer on the
// Chung-Lu n=200k serving graph, and the selection every uncached top-k
// reply and every result-cache hit runs.
void BM_TopK(benchmark::State& state) {
  Rng rng(9);
  ScoreList scores;
  for (NodeId v = 0; v < 20000; ++v) {
    const double x = rng.NextDouble();
    scores.emplace_back(v, x * x * x);  // skewed: few large scores
  }
  scores.emplace_back(20000, 1.0);  // the source itself
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopK(scores, 10, 20000));
  }
}
BENCHMARK(BM_TopK);

void BM_AliasTableSample(benchmark::State& state) {
  auto weights = PowerLawWeights(100000, 2.0, 10.0);
  AliasTable table(weights);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample);

void BM_RngNextDouble(benchmark::State& state) {
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextDouble());
  }
}
BENCHMARK(BM_RngNextDouble);

}  // namespace
