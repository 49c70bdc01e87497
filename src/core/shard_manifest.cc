#include "core/shard_manifest.h"

#include <filesystem>
#include <utility>

#include "core/engine_registry.h"
#include "graph/io.h"
#include "util/serde.h"

namespace prsim {

namespace {

constexpr char kManifestKind[] = "shard-manifest";

constexpr char kManifestFile[] = "manifest.bin";
constexpr char kGraphFile[] = "graph.bin";
constexpr char kIndexFile[] = "index.idx";

Status CorruptManifest(const std::string& path, const std::string& detail) {
  return Status::InvalidArgument("corrupt artifact '" + path + "': " + detail);
}

}  // namespace

Status ShardManifest::Save(const std::string& path) const {
  PRSIM_RETURN_NOT_OK(ValidatePartitionSpec(partition));
  if (shards.size() != partition.shards) {
    return Status::InvalidArgument(
        "manifest lists " + std::to_string(shards.size()) +
        " shards but the partition spec says " +
        std::to_string(partition.shards));
  }
  ArtifactWriter artifact(path, kManifestKind);
  ByteSink& meta = artifact.AddSection("meta");
  meta.WriteString(algo);
  meta.WriteString(params);
  meta.WritePod(partition.shards);
  meta.WritePod(static_cast<uint32_t>(partition.strategy));
  meta.WritePod(n);
  meta.WritePod(m);
  meta.WritePod(graph_checksum);
  ByteSink& entries = artifact.AddSection("shards");
  for (const ShardArtifacts& shard : shards) {
    entries.WriteString(shard.graph_path);
    entries.WriteString(shard.index_path);
  }
  return artifact.Finish();
}

Result<ShardManifest> ShardManifest::Load(const std::string& path) {
  PRSIM_ASSIGN_OR_RETURN(ArtifactReader artifact,
                         ArtifactReader::Open(path, kManifestKind));
  ShardManifest manifest;
  {
    PRSIM_ASSIGN_OR_RETURN(SectionReader meta, artifact.Section("meta"));
    PRSIM_RETURN_NOT_OK(meta.ReadString(&manifest.algo));
    PRSIM_RETURN_NOT_OK(meta.ReadString(&manifest.params));
    uint32_t strategy = 0;
    PRSIM_RETURN_NOT_OK(meta.ReadPod(&manifest.partition.shards));
    PRSIM_RETURN_NOT_OK(meta.ReadPod(&strategy));
    PRSIM_RETURN_NOT_OK(meta.ReadPod(&manifest.n));
    PRSIM_RETURN_NOT_OK(meta.ReadPod(&manifest.m));
    PRSIM_RETURN_NOT_OK(meta.ReadPod(&manifest.graph_checksum));
    PRSIM_RETURN_NOT_OK(meta.Finish());
    manifest.partition.strategy = static_cast<PartitionStrategy>(strategy);
  }
  if (manifest.algo.empty()) {
    return CorruptManifest(path, "empty engine name");
  }
  if (!ValidatePartitionSpec(manifest.partition).ok()) {
    return CorruptManifest(path, "invalid partition spec");
  }
  {
    PRSIM_ASSIGN_OR_RETURN(SectionReader entries, artifact.Section("shards"));
    manifest.shards.resize(manifest.partition.shards);
    for (ShardArtifacts& shard : manifest.shards) {
      PRSIM_RETURN_NOT_OK(entries.ReadString(&shard.graph_path));
      PRSIM_RETURN_NOT_OK(entries.ReadString(&shard.index_path));
      if (shard.graph_path.empty()) {
        return CorruptManifest(path, "empty shard graph path");
      }
    }
    PRSIM_RETURN_NOT_OK(entries.Finish());
  }
  return manifest;
}

Result<EngineConfig> ShardManifest::Config() const {
  return EngineConfig::Parse(params);
}

std::string ResolveManifestPath(const std::string& manifest_path,
                                const std::string& relative) {
  const std::filesystem::path rel(relative);
  if (rel.is_absolute()) return relative;
  return (std::filesystem::path(manifest_path).parent_path() / rel).string();
}

Result<Graph> LoadBundleGraph(const ShardManifest& manifest,
                              const std::string& graph_path) {
  PRSIM_ASSIGN_OR_RETURN(Graph graph, GraphIO::LoadBinary(graph_path));
  if (graph.n() != manifest.n || graph.m() != manifest.m ||
      graph.Checksum() != manifest.graph_checksum) {
    return Status::InvalidArgument(
        "graph artifact '" + graph_path +
        "' does not match the manifest's graph fingerprint");
  }
  return graph;
}

Result<std::string> BuildShardBundle(const Graph& graph,
                                     const std::string& algo,
                                     const EngineConfig& config,
                                     const PartitionSpec& spec,
                                     const std::string& out_dir) {
  PRSIM_RETURN_NOT_OK(ValidatePartitionSpec(spec));
  const EngineInfo* info = EngineRegistry::Global().Find(algo);
  if (info == nullptr) return Status::NotFound("unknown engine: " + algo);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return Status::IOError("cannot create bundle directory '" + out_dir +
                           "': " + ec.message());
  }
  const std::filesystem::path dir(out_dir);

  PRSIM_RETURN_NOT_OK(GraphIO::SaveBinary(graph, (dir / kGraphFile).string()));

  // One engine over the full graph; shards partition query ownership only,
  // so they all alias this build's artifacts.
  PRSIM_ASSIGN_OR_RETURN(
      auto engine, EngineRegistry::Global().Create(info->name, graph, config));
  PRSIM_RETURN_NOT_OK(engine->Preprocess());
  std::string index_path;
  if (info->has_persistent_index) {
    index_path = kIndexFile;
    PRSIM_RETURN_NOT_OK(engine->SaveIndex((dir / kIndexFile).string()));
  }

  ShardManifest manifest;
  manifest.algo = info->name;
  manifest.params = config.ToString();
  manifest.partition = spec;
  manifest.n = graph.n();
  manifest.m = graph.m();
  manifest.graph_checksum = graph.Checksum();
  manifest.shards.assign(spec.shards, ShardArtifacts{kGraphFile, index_path});

  const std::string manifest_path = (dir / kManifestFile).string();
  PRSIM_RETURN_NOT_OK(manifest.Save(manifest_path));
  return manifest_path;
}

}  // namespace prsim
