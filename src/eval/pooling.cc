#include "eval/pooling.h"

#include <algorithm>

#include "util/flat_hash_map2.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace prsim {

std::vector<NodeId> SampleQueryNodes(const Graph& graph, uint32_t count,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> nodes;
  FlatHashMap2<uint8_t> seen(count);
  nodes.reserve(count);
  uint32_t attempts = 0;
  const uint32_t max_attempts = count * 200 + 1000;
  while (nodes.size() < count && attempts++ < max_attempts) {
    const NodeId v = rng.NextIndex(graph.n());
    if (seen.Contains(v)) continue;
    if (graph.InDegree(v) == 0 && attempts < max_attempts / 2) continue;
    seen[v] = 1;
    nodes.push_back(v);
  }
  return nodes;
}

std::vector<EvalMetrics> RunPooledEvaluation(
    const Graph& graph, const std::vector<EvalEntry>& entries,
    GroundTruth& truth, const std::vector<NodeId>& query_nodes,
    const PoolingOptions& options) {
  (void)graph;
  const size_t algos = entries.size();
  std::vector<EvalMetrics> metrics(algos);
  std::vector<double> spent(algos, 0.0);
  std::vector<double> error_sum(algos, 0.0);
  std::vector<double> precision_sum(algos, 0.0);
  std::vector<uint32_t> evaluated(algos, 0);
  for (size_t a = 0; a < algos; ++a) {
    metrics[a].label = entries[a].label;
    metrics[a].index_bytes = entries[a].algorithm->IndexBytes();
    metrics[a].preprocess_seconds = entries[a].preprocess_seconds;
  }

  for (NodeId u : query_nodes) {
    // Phase 1: answers + timings.
    std::vector<ScoreList> answers(algos);
    std::vector<ScoreList> topk(algos);
    std::vector<bool> answered(algos, false);
    for (size_t a = 0; a < algos; ++a) {
      if (spent[a] >= options.per_algorithm_budget_seconds) continue;
      WallTimer timer;
      answers[a] = entries[a].algorithm->Query(u);
      const double seconds = timer.Seconds();
      spent[a] += seconds;
      metrics[a].mean_query_seconds += seconds;
      ++metrics[a].queries_answered;
      topk[a] = TopK(answers[a], options.k, u);
      answered[a] = true;
    }

    // Phase 2: pool the nominations and rank by ground truth.
    std::vector<NodeId> pool;
    {
      FlatHashMap2<uint8_t> pooled(options.k * algos);
      for (size_t a = 0; a < algos; ++a) {
        for (const auto& [v, score] : topk[a]) {
          uint8_t& nominated = pooled[v];
          if (nominated == 0) {
            nominated = 1;
            pool.push_back(v);
          }
        }
      }
    }
    if (pool.empty()) continue;
    const std::vector<double> true_scores = truth.SimRankBatch(u, pool);
    std::vector<size_t> order(pool.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      if (true_scores[x] != true_scores[y]) {
        return true_scores[x] > true_scores[y];
      }
      return pool[x] < pool[y];
    });
    const size_t k = std::min<size_t>(options.k, order.size());
    FlatHashMap2<double> vk(k);  // best pooled nodes -> true score
    for (size_t i = 0; i < k; ++i) {
      vk[pool[order[i]]] = true_scores[order[i]];
    }

    // Phase 3: per-algorithm metrics against V_k.
    //
    // The error sum accumulates in vk's ForEach order, which is insertion
    // order (here: descending true score), so it is deterministic.
    for (size_t a = 0; a < algos; ++a) {
      if (!answered[a]) continue;
      double error = 0.0;
      vk.ForEach([&](uint64_t v, const double& true_score) {
        error += std::abs(ScoreOf(answers[a], static_cast<NodeId>(v)) -
                          true_score);
      });
      error_sum[a] += error / static_cast<double>(k);
      size_t hits = 0;
      for (const auto& [v, score] : topk[a]) {
        if (vk.Contains(v)) ++hits;
      }
      precision_sum[a] +=
          static_cast<double>(hits) / static_cast<double>(k);
      ++evaluated[a];
    }
  }

  for (size_t a = 0; a < algos; ++a) {
    if (metrics[a].queries_answered > 0) {
      metrics[a].mean_query_seconds /= metrics[a].queries_answered;
    }
    if (evaluated[a] > 0) {
      metrics[a].avg_error_at_k = error_sum[a] / evaluated[a];
      metrics[a].precision_at_k = precision_sum[a] / evaluated[a];
    }
  }
  return metrics;
}

}  // namespace prsim
