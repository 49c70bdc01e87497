// Shard bundle manifest: the one file that describes a sharded deployment.
//
// A bundle is a directory produced by `prsim_cli shard-build`: graph and
// index artifacts plus a manifest recording which engine they were built
// for, the partition spec that routes queries, and the fingerprint of the
// graph everything was built against. `serve --manifest` / `query
// --manifest` open the manifest and reconstruct the whole serving topology
// from it — no other flags needed.
//
// SimRank scores depend on the entire graph (a similarity between u and v
// flows through meeting nodes anywhere), so shards partition *query
// ownership*, not the data: every shard's engine is built over the full
// graph with identical options and seed. The builder therefore writes one
// graph artifact and one index artifact, and every shard entry aliases
// them; the per-shard paths stay in the schema so a future column-cut
// format can diverge without a manifest version bump.
//
// Paths inside the manifest are relative to the manifest's directory,
// making bundles relocatable (tar up the directory, untar anywhere).

#ifndef PRSIM_CORE_SHARD_MANIFEST_H_
#define PRSIM_CORE_SHARD_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine_config.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "util/status.h"

namespace prsim {

/// One shard's artifact locations, relative to the manifest directory.
/// An empty index_path means the engine has no persistent index and must
/// be preprocessed at load time.
struct ShardArtifacts {
  std::string graph_path;
  std::string index_path;
};

struct ShardManifest {
  /// Canonical engine key ("prsim", "sling", ...).
  std::string algo;
  /// Canonical "k=v,k=v" engine parameters (EngineConfig::ToString()).
  std::string params;
  /// How source nodes map onto shards. partition.shards == shards.size().
  PartitionSpec partition;

  // Fingerprint of the graph the bundle was built from; Load()ed bundles
  // are validated against these before any engine is constructed.
  uint32_t n = 0;
  uint64_t m = 0;
  uint64_t graph_checksum = 0;

  std::vector<ShardArtifacts> shards;

  /// Serializes as a serde v2 artifact of kind "shard-manifest".
  Status Save(const std::string& path) const;

  /// Loads and structurally validates a manifest (shard count consistency,
  /// valid partition spec, non-empty graph paths). I/O and envelope
  /// problems surface as kIOError, corruption and inconsistency as
  /// kInvalidArgument.
  static Result<ShardManifest> Load(const std::string& path);

  /// Parses the stored params into an EngineConfig.
  Result<EngineConfig> Config() const;
};

/// Resolves a manifest-relative artifact path against the manifest's own
/// location ("bundle/manifest.bin" + "graph.bin" -> "bundle/graph.bin").
/// Absolute entries pass through unchanged.
std::string ResolveManifestPath(const std::string& manifest_path,
                                const std::string& relative);

/// Loads a graph artifact a manifest entry names (already resolved with
/// ResolveManifestPath) and checks it against the manifest's graph
/// fingerprint (n, m, checksum). A mismatch — say, a swapped graph.bin —
/// is kInvalidArgument; every consumer of a bundle loads its graph here.
Result<Graph> LoadBundleGraph(const ShardManifest& manifest,
                              const std::string& graph_path);

/// Builds a complete shard bundle under `out_dir` (created if missing):
/// writes the graph artifact, constructs the engine via the registry, runs
/// Preprocess(), persists its index when the engine has one, and writes
/// `manifest.bin` describing `spec.shards` shards. Returns the manifest
/// path. The engine is built once over the full graph — every shard entry
/// aliases the same artifacts — so sharded answers are bit-identical to
/// unsharded ones by construction.
Result<std::string> BuildShardBundle(const Graph& graph,
                                     const std::string& algo,
                                     const EngineConfig& config,
                                     const PartitionSpec& spec,
                                     const std::string& out_dir);

}  // namespace prsim

#endif  // PRSIM_CORE_SHARD_MANIFEST_H_
