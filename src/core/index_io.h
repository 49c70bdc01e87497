// Binary persistence for the PRSim hub index.
//
// Preprocessing costs O(m/eps); persisting the finished index lets a serving
// process skip it entirely. The artifact is a serde container (util/serde.h)
// with two checksummed sections: "fingerprint", the full
// ArtifactFingerprint (n, m, a graph checksum, and a hash of every
// index-shaping option: c, eps, j0, rmax, max_level), and "index", the
// reverse PageRank vector plus each hub's per-level reserve lists. Loading
// validates the fingerprint against the graph and options the caller
// supplies, so a stale index can no longer be paired silently with a
// different graph of the same size or with different build parameters.

#ifndef PRSIM_CORE_INDEX_IO_H_
#define PRSIM_CORE_INDEX_IO_H_

#include <string>

#include "core/prsim_index.h"
#include "graph/graph.h"
#include "util/status.h"

namespace prsim {

class PRSimIndexIO {
 public:
  /// Serializes a built index to `path`. `options` must be the options the
  /// index was built with; they are fingerprinted into the artifact.
  static Status Save(const PRSimIndex& index, const Graph& graph,
                     const PRSimIndexOptions& options,
                     const std::string& path);

  /// Loads an index previously saved against the same graph and options;
  /// fails with kInvalidArgument on any fingerprint mismatch (n, m, graph
  /// checksum, or options) and kIOError on corruption.
  static Result<PRSimIndex> Load(const Graph& graph,
                                 const PRSimIndexOptions& options,
                                 const std::string& path);

  /// Hash of the index-shaping options (threads excluded: they change build
  /// parallelism, never the index contents).
  static uint64_t OptionsHash(const PRSimIndexOptions& options);
};

}  // namespace prsim

#endif  // PRSIM_CORE_INDEX_IO_H_
