// prep: the offline half of a serve workload's set-up.
//
// Generates the workload graph and persists what `prsim_cli serve` loads:
// the graph snapshot plus the PRSim index artifact (unsharded), or a shard
// bundle built by BuildShardBundle (--shards K). It prints one JSON line
// whose `artifacts_done_ns` stamps the moment the artifacts are on disk;
// run.py counts set-up time up to there. Work after that stamp is not
// set-up: the offline reference answers of the correctness gate (--refs R:
// top-k of the sources of stream requests --refs-offset + j * --refs-stride,
// j < R, answered by a single engine outside any server) and, with --trace 1, the index-build
// breakdown and the phase-model microbenchmarks.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common.h"
#include "core/engine_registry.h"
#include "core/shard_manifest.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "layers.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {

namespace {

int Fail(const prsim::Status& status) {
  std::fprintf(stderr, "prep: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int RunPrep(const Flags& flags) {
  const std::string dir = flags.Str("dir", ".");
  const bool trace = flags.Int("trace", 0) != 0;
  const uint32_t shards = static_cast<uint32_t>(flags.Int("shards", 0));
  const size_t threads = flags.Int("engine-threads", prsim::DefaultThreadCount());
  const double c = flags.Num("c", 0.6);
  const prsim::EngineConfig config = EngineConfigFromFlags(flags);
  const prsim::EngineRegistry& registry = prsim::EngineRegistry::Global();
  Json out;

  prsim::WallTimer timer;
  auto generated = GenerateGraph(flags);
  if (!generated.ok()) return Fail(generated.status());
  const prsim::Graph graph = std::move(generated).ValueOrDie();
  out.Num("gen_s", timer.Seconds()).Int("n", graph.n()).Int("m", graph.m());

  std::unique_ptr<prsim::SingleSourceSimRank> engine;
  double build_s = 0;
  std::string index_path;
  if (shards == 0) {
    timer.Restart();
    if (auto st = prsim::GraphIO::SaveBinary(graph, dir + "/graph.bin");
        !st.ok()) {
      return Fail(st);
    }
    const double graph_save_s = timer.Seconds();
    auto created = registry.Create("prsim", graph, config);
    if (!created.ok()) return Fail(created.status());
    engine = std::move(created).ValueOrDie();
    timer.Restart();
    if (auto st = engine->Preprocess(); !st.ok()) return Fail(st);
    build_s = timer.Seconds();
    timer.Restart();
    index_path = dir + "/index.bin";
    if (auto st = engine->SaveIndex(index_path); !st.ok()) return Fail(st);
    out.Num("build_s", build_s)
        .Num("save_s", graph_save_s + timer.Seconds());
  } else {
    prsim::PartitionSpec spec;
    spec.shards = shards;
    timer.Restart();
    auto manifest = prsim::BuildShardBundle(graph, "prsim", config, spec,
                                            dir + "/bundle");
    if (!manifest.ok()) return Fail(manifest.status());
    out.Num("save_s", timer.Seconds());
    auto loaded = prsim::ShardManifest::Load(manifest.ValueOrDie());
    if (!loaded.ok()) return Fail(loaded.status());
    index_path = prsim::ResolveManifestPath(
        manifest.ValueOrDie(), loaded.ValueOrDie().shards[0].index_path);
  }
  out.Int("artifacts_done_ns", static_cast<uint64_t>(NowNs()));

  const uint64_t ref_count = flags.Int("refs", 0);
  if (engine == nullptr && (ref_count > 0 || trace)) {
    // The bundle's engine lives inside BuildShardBundle; the reference
    // engine is a fresh one over the bundle's index artifact.
    auto created = registry.CreateFromIndex("prsim", graph, config, index_path);
    if (!created.ok()) return Fail(created.status());
    engine = std::move(created).ValueOrDie();
  }

  const RequestStream stream(flags.Int("stream-seed", 1), graph.n(),
                             flags.Num("zipf-s", 0.0));
  if (ref_count > 0) {
    const auto k = static_cast<size_t>(flags.Int("k", 10));
    const uint64_t first = flags.Int("refs-offset", 0);
    const uint64_t stride = std::max<uint64_t>(1, flags.Int("refs-stride", 1));
    References refs;
    for (uint64_t j = 0; j < ref_count; ++j) {
      const NodeId source = stream.SourceAt(first + j * stride);
      if (refs.count(source) == 0) {
        refs[source] = engine->QueryTopK(source, k);
      }
    }
    if (auto st = WriteReferences(refs, dir + "/refs.bin"); !st.ok()) {
      return Fail(st);
    }
    out.Int("refs", refs.size());
  }

  if (trace) {
    if (shards > 0) {
      // Time a build at the workload's thread count; the bundle build
      // above also wrote the artifacts.
      auto created = registry.Create("prsim", graph, config);
      if (!created.ok()) return Fail(created.status());
      engine = std::move(created).ValueOrDie();
      timer.Restart();
      if (auto st = engine->Preprocess(); !st.ok()) return Fail(st);
      build_s = timer.Seconds();
      out.Num("build_s", build_s);
    }
    const prsim::PRSim* prsim_engine = AsPRSim(*engine);
    if (prsim_engine == nullptr) {
      return Fail(prsim::Status::Internal("registry 'prsim' is not PRSim"));
    }
    out.Int("index_tuples", prsim_engine->index().total_tuples())
        .Int("index_bytes", prsim_engine->IndexBytes())
        .Int("hub_count", prsim_engine->index().hub_count());
    AddIndexBreakdown(graph, *prsim_engine, c, build_s, threads, &out);
    AddPhaseModel(graph, *prsim_engine, c, stream.Slice(0, 512),
                  flags.Int("stream-seed", 1), &out);
  }
  EmitLine(out.Done());
  return 0;
}

}  // namespace perfbench
