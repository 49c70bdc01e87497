// batch: the offline throughput workload, and the accuracy check every
// workload reports.
//
// Set-up (repeated --setups times; each repetition is timed on its own):
// generate the graph, build the PRSim index at the workload's thread
// count, save the artifact and load it back through
// EngineRegistry::CreateFromIndex. The last repetition's engine answers:
//   1. a warm-up batch (not timed);
//   2. the gate: a fixed sample answered by BatchQueryWithStats at 1 thread
//      and at --engine-threads threads must be bit-identical;
//   3. timed batches of --batch sources from the request stream, through
//      BatchQueryWithStats on --engine-threads threads, for --seconds.
// With --trace 1 it then runs the index-build breakdown, the phase model,
// and one more batch through a TimedEngine (the traced batch).
//
// The accuracy check (also the `accuracy` role of every serve workload)
// answers --gt-sources sources, drawn with --gt-stream-seed, on a small
// Chung-Lu graph of --gt-n nodes and compares every score with the exact
// power method (eval/GroundTruth).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/batch_query.h"
#include "core/engine_registry.h"
#include "eval/ground_truth.h"
#include "layers.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {

namespace {

/// Sources in the gate's sample, answered at 1 thread and at
/// --engine-threads threads.
constexpr uint64_t kGateSample = 64;

int Fail(const prsim::Status& status) {
  std::fprintf(stderr, "batch: %s\n", status.ToString().c_str());
  return 1;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

}  // namespace

prsim::Status AddAccuracy(const Flags& flags, Json* out) {
  Flags gt_flags = flags;
  gt_flags.Set("model", "chunglu");
  gt_flags.Set("n", std::to_string(flags.Int("gt-n", 1000)));
  gt_flags.Set("graph-seed", std::to_string(flags.Int("graph-seed", 1) + 1));
  PRSIM_ASSIGN_OR_RETURN(const prsim::Graph graph, GenerateGraph(gt_flags));
  prsim::GroundTruthOptions gt_options;
  gt_options.c = flags.Num("c", 0.6);
  gt_options.exact_limit = 3000;
  prsim::GroundTruth truth(graph, gt_options);
  PRSIM_RETURN_NOT_OK(truth.Prepare());
  if (!truth.is_exact()) {
    return prsim::Status::InvalidArgument("ground-truth graph is too large");
  }
  PRSIM_ASSIGN_OR_RETURN(
      auto engine, prsim::EngineRegistry::Global().Create(
                       "prsim", graph, EngineConfigFromFlags(flags)));
  PRSIM_RETURN_NOT_OK(engine->Preprocess());
  const RequestStream stream(flags.Int("gt-stream-seed", 1), graph.n(), 0.0);
  const uint64_t sources = flags.Int("gt-sources", 20);
  double max_error = 0;
  std::vector<double> estimate(graph.n());
  for (uint64_t i = 0; i < sources; ++i) {
    const NodeId u = stream.SourceAt(i);
    std::fill(estimate.begin(), estimate.end(), 0.0);
    for (const auto& [v, score] : engine->Query(u)) estimate[v] = score;
    for (NodeId v = 0; v < graph.n(); ++v) {
      max_error = std::max(max_error,
                           std::abs(estimate[v] - truth.SimRank(u, v)));
    }
  }
  const double eps = flags.Num("eps", 0.1);
  out->Num("max_error", max_error)
      .Num("eps", eps)
      .Num("error_bound", 3 * eps)
      .Int("gt_n", graph.n())
      .Int("gt_m", graph.m())
      .Int("gt_sources", sources);
  return prsim::Status::OK();
}

int RunAccuracy(const Flags& flags) {
  Json out;
  if (auto st = AddAccuracy(flags, &out); !st.ok()) return Fail(st);
  EmitLine(out.Done());
  return 0;
}

int RunBatch(const Flags& flags) {
  const std::string dir = flags.Str("dir", ".");
  const bool trace = flags.Int("trace", 0) != 0;
  const size_t threads =
      flags.Int("engine-threads", prsim::DefaultThreadCount());
  const double c = flags.Num("c", 0.6);
  const prsim::EngineConfig config = EngineConfigFromFlags(flags);
  const prsim::EngineRegistry& registry = prsim::EngineRegistry::Global();
  const std::string index_path = dir + "/index.bin";
  Json out;

  // Set-up repetitions. The graph and engine of the last one stay alive.
  std::unique_ptr<prsim::Graph> graph;
  std::unique_ptr<prsim::SingleSourceSimRank> engine;
  std::vector<double> setup_s;
  double gen_s = 0;
  double build_s = 0;
  double save_s = 0;
  double load_s = 0;
  const uint64_t setups = std::max<uint64_t>(1, flags.Int("setups", 1));
  for (uint64_t rep = 0; rep < setups; ++rep) {
    engine.reset();
    graph.reset();
    prsim::WallTimer total;
    prsim::WallTimer timer;
    auto generated = GenerateGraph(flags);
    if (!generated.ok()) return Fail(generated.status());
    graph = std::make_unique<prsim::Graph>(std::move(generated).ValueOrDie());
    gen_s = timer.Seconds();
    {
      // The built engine is dropped once saved; the one that answers is
      // loaded back from the artifact, as a serving process would.
      auto created = registry.Create("prsim", *graph, config);
      if (!created.ok()) return Fail(created.status());
      timer.Restart();
      if (auto st = created.ValueOrDie()->Preprocess(); !st.ok()) {
        return Fail(st);
      }
      build_s = timer.Seconds();
      timer.Restart();
      if (auto st = created.ValueOrDie()->SaveIndex(index_path); !st.ok()) {
        return Fail(st);
      }
      save_s = timer.Seconds();
    }
    timer.Restart();
    auto loaded = registry.CreateFromIndex("prsim", *graph, config, index_path);
    if (!loaded.ok()) return Fail(loaded.status());
    engine = std::move(loaded).ValueOrDie();
    load_s = timer.Seconds();
    setup_s.push_back(total.Seconds());
  }
  out.Raw("setup_s", JsonArray(setup_s))
      .Num("gen_s", gen_s)
      .Num("build_s", build_s)
      .Num("save_s", save_s)
      .Num("load_s", load_s)
      .Int("n", graph->n())
      .Int("m", graph->m())
      .Int("index_bytes", engine->IndexBytes());

  const RequestStream stream(flags.Int("stream-seed", 1), graph->n(), 0.0);
  const uint64_t batch = flags.Int("batch", 2000);
  uint64_t offset = 0;
  const auto next_slice = [&](uint64_t count) {
    std::vector<NodeId> slice = stream.Slice(offset, count);
    offset += count;
    return slice;
  };

  // Warm-up: every chunk's clone fills its query workspace.
  prsim::BatchQueryWithStats(*engine, next_slice(threads * 50), threads);

  // Gate: 1 thread vs `threads` threads, bit for bit.
  const std::vector<NodeId> sample = next_slice(kGateSample);
  const auto serial = prsim::BatchQueryWithStats(*engine, sample, 1);
  const auto parallel = prsim::BatchQueryWithStats(*engine, sample, threads);
  uint64_t gate_mismatch = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    if (!BitIdentical(serial.scores[i], parallel.scores[i])) ++gate_mismatch;
  }
  out.Int("gate_checked", sample.size()).Int("gate_mismatch", gate_mismatch);

  // Timed batches.
  std::vector<double> batch_qps;
  std::vector<double> p50_ms;
  std::vector<double> p95_ms;
  std::vector<double> p99_ms;
  uint64_t answered = 0;
  uint64_t attempted = 0;
  QueryCost cost;
  const double seconds = flags.Num("seconds", 5);
  prsim::WallTimer window;
  while (batch_qps.empty() || window.Seconds() < seconds) {
    const std::vector<NodeId> sources = next_slice(batch);
    prsim::WallTimer timer;
    const prsim::BatchQueryResult result =
        prsim::BatchQueryWithStats(*engine, sources, threads);
    const double wall = timer.Seconds();
    batch_qps.push_back(static_cast<double>(sources.size()) / wall);
    p50_ms.push_back(result.cost.latency_p50_seconds * 1e3);
    p95_ms.push_back(result.cost.latency_p95_seconds * 1e3);
    p99_ms.push_back(result.cost.latency_p99_seconds * 1e3);
    attempted += sources.size();
    for (size_t i = 0; i < sources.size(); ++i) {
      // A valid answer holds the source itself with score exactly 1.
      const auto& scores = result.scores[i];
      if (!scores.empty() && scores.back().first == sources[i] &&
          scores.back().second == 1.0) {
        ++answered;
      }
    }
    cost.Accumulate(result.cost);
  }
  out.Num("batch_qps", Median(batch_qps))
      .Raw("batch_qps_all", JsonArray(batch_qps))
      .Num("p50_ms", Median(p50_ms))
      .Num("p95_ms", Median(p95_ms))
      .Num("p99_ms", Median(p99_ms))
      .Int("batch", batch)
      .Int("batches", batch_qps.size())
      .Int("attempted", attempted)
      .Int("answered", answered)
      .Int("threads", threads)
      .Raw("cost", Json()
                       .Int("walks", cost.walks)
                       .Int("meeting_tests", cost.meeting_tests)
                       .Int("backward_walks", cost.backward_walks)
                       .Int("backward_increments", cost.backward_increments)
                       .Int("index_tuples_read", cost.index_tuples_read)
                       .Done());

  if (trace) {
    const prsim::PRSim* prsim_engine = AsPRSim(*engine);
    if (prsim_engine == nullptr) {
      return Fail(prsim::Status::Internal("registry 'prsim' is not PRSim"));
    }
    Json layers;
    layers.Int("index_tuples", prsim_engine->index().total_tuples())
        .Int("index_bytes", prsim_engine->IndexBytes());
    AddIndexBreakdown(*graph, *prsim_engine, c, build_s, threads, &layers);
    AddPhaseModel(*graph, *prsim_engine, c, stream.Slice(0, 512),
                  flags.Int("stream-seed", 1), &layers);
    // The traced batch: the same engine behind TimedEngine, spans on.
    auto log = std::make_shared<EngineSpanLog>();
    log->set_enabled(true);
    auto clone = engine->CloneWithSeed(engine->seed());
    const TimedEngine timed(std::move(clone), log);
    const std::vector<NodeId> sources = next_slice(batch);
    prsim::WallTimer timer;
    const prsim::BatchQueryResult result =
        prsim::BatchQueryWithStats(timed, sources, threads);
    const double wall = timer.Seconds();
    std::vector<double> engine_ms;
    double engine_total_s = 0;
    for (const EngineSpan& span : log->Take()) {
      const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      engine_ms.push_back(ms);
      engine_total_s += ms / 1e3;
    }
    layers.Num("traced_p50_ms", result.cost.latency_p50_seconds * 1e3)
        .Num("engine_mean_ms",
             engine_ms.empty() ? 0.0
                               : engine_total_s * 1e3 /
                                     static_cast<double>(engine_ms.size()))
        .Num("engine_p50_ms", Quantile(engine_ms, 0.5))
        .Num("engine_p99_ms", Quantile(engine_ms, 0.99))
        .Int("engine_n", engine_ms.size())
        .Num("busy_frac",
             engine_total_s / (static_cast<double>(threads) * wall));
    out.Raw("layers", layers.Done());
  }

  if (auto st = AddAccuracy(flags, &out); !st.ok()) return Fail(st);
  out.Num("peak_rss_mb", PeakRssMb());
  EmitLine(out.Done());
  return 0;
}

}  // namespace perfbench
