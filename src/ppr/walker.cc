#include "ppr/walker.h"

#include <cmath>

#include "util/logging.h"

namespace prsim {

Walker::Walker(const Graph& graph, double c) : graph_(graph) {
  PRSIM_CHECK(c > 0 && c < 1) << "decay factor must lie in (0, 1), got " << c;
  sqrt_c_ = std::sqrt(c);
}

double Walker::EstimateEta(NodeId w, uint64_t samples, Rng& rng) const {
  PRSIM_CHECK(samples > 0);
  uint64_t meets = 0;
  for (uint64_t i = 0; i < samples; ++i) {
    meets += SamplePairMeets(w, rng) ? 1 : 0;
  }
  return 1.0 - static_cast<double>(meets) / static_cast<double>(samples);
}

double Walker::EstimateSimRank(NodeId u, NodeId v, uint64_t samples,
                               Rng& rng) const {
  PRSIM_CHECK(samples > 0);
  if (u == v) return 1.0;
  uint64_t meets = 0;
  for (uint64_t i = 0; i < samples; ++i) {
    meets += PairMeets(u, v, rng) ? 1 : 0;
  }
  return static_cast<double>(meets) / static_cast<double>(samples);
}

}  // namespace prsim
