// Per-layer probes shared by the prep and batch roles: the index-build
// breakdown and the PRSim phase model. Both time calls into the library's
// public functions from outside; nothing here runs on the measured path of
// an untraced run.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "core/prsim.h"

namespace perfbench {

/// Times ComputeReversePageRank and every hub's BackwardSearch, one call at
/// a time, and adds index.rpr_s, index.backward_search_s and
/// index.parallel_eff (their sum over build_s x threads) to *out.
void AddIndexBreakdown(const prsim::Graph& graph, const prsim::PRSim& engine,
                       double c, double build_s, size_t threads, Json* out);

/// Microbenchmarks of the four sampling phases of a PRSim query on the
/// workload's own graph, index and walk terminals: ppr.walk_ns
/// (Walker::SampleWalk), ppr.meet_ns (Walker::SamplePairMeets),
/// ppr.backward_increment_ns (BackwardWalker::RunVarianceBounded per
/// increment) and index.tuple_ns (PRSimIndex::Find plus its tuple scan).
/// Multiplied by a query's QueryCost counts they explain its engine time.
void AddPhaseModel(const prsim::Graph& graph, const prsim::PRSim& engine,
                   double c, const std::vector<NodeId>& sources,
                   uint64_t seed, Json* out);

/// The built PRSim behind a registry engine (TimedEngine is not involved
/// here), or null when the engine is not PRSim.
const prsim::PRSim* AsPRSim(const prsim::SingleSourceSimRank& engine);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
