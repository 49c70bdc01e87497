#include "graph/io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/serde.h"

namespace prsim {

namespace {

constexpr char kGraphKind[] = "graph";

bool ParseEdgeLine(const char* line, NodeId* src, NodeId* dst) {
  char* end = nullptr;
  unsigned long long a = std::strtoull(line, &end, 10);
  if (end == line) return false;
  const char* p = end;
  while (*p == ' ' || *p == '\t' || *p == ',') ++p;
  unsigned long long b = std::strtoull(p, &end, 10);
  if (end == p) return false;
  if (a > 0xfffffffeULL || b > 0xfffffffeULL) return false;
  *src = static_cast<NodeId>(a);
  *dst = static_cast<NodeId>(b);
  return true;
}

Result<std::vector<Edge>> ParseStream(std::istream& in,
                                      const std::string& origin) {
  std::vector<Edge> edges;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const char* p = line.c_str();
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '\0' || *p == '#' || *p == '%') continue;
    NodeId src, dst;
    if (!ParseEdgeLine(p, &src, &dst)) {
      return Status::IOError(origin + ": malformed edge at line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    edges.emplace_back(src, dst);
  }
  return edges;
}

}  // namespace

Result<std::vector<Edge>> LoadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ParseStream(in, path);
}

Result<std::vector<Edge>> ParseEdgeListText(const std::string& text) {
  std::istringstream in(text);
  return ParseStream(in, "<string>");
}

Status SaveEdgeListText(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << "# prsim edge list: n=" << graph.n() << " m=" << graph.m() << "\n";
  for (NodeId v = 0; v < graph.n(); ++v) {
    for (NodeId w : graph.OutNeighbors(v)) {
      out << v << '\t' << w << '\n';
    }
  }
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

Result<Graph> LoadGraphText(const std::string& path,
                            const BuildOptions& options) {
  PRSIM_ASSIGN_OR_RETURN(std::vector<Edge> edges, LoadEdgeListText(path));
  return BuildGraph(0, std::move(edges), options);
}

Status GraphIO::SaveBinary(const Graph& graph, const std::string& path) {
  // One aligned section per CSR array, so LoadBinary can hand out
  // zero-copy views over the mapped file.
  ArtifactWriter writer(path, kGraphKind);
  writer.AddSection("meta").WritePod(graph.n_);
  writer.AddSection("out_off").WriteVector(graph.out_off_.span());
  writer.AddSection("out_adj").WriteVector(graph.out_adj_.span());
  writer.AddSection("out_deg").WriteVector(graph.out_tgt_in_degree_.span());
  writer.AddSection("in_off").WriteVector(graph.in_off_.span());
  writer.AddSection("in_adj").WriteVector(graph.in_adj_.span());
  writer.AddSection("in_degree").WriteVector(graph.in_degree_.span());
  return writer.Finish();
}

Result<Graph> GraphIO::LoadBinary(const std::string& path,
                                  const LoadOptions& options) {
  ArtifactReader::Options reader_options;
  reader_options.allow_mmap = options.allow_mmap;
  PRSIM_ASSIGN_OR_RETURN(
      ArtifactReader artifact,
      ArtifactReader::Open(path, kGraphKind, reader_options));
  Graph g;
  const auto load_array = [&](const char* name, auto* member) -> Status {
    PRSIM_ASSIGN_OR_RETURN(SectionReader section, artifact.Section(name));
    PRSIM_RETURN_NOT_OK(section.ReadPodArray(member));
    return section.Finish();
  };
  {
    PRSIM_ASSIGN_OR_RETURN(SectionReader meta, artifact.Section("meta"));
    PRSIM_RETURN_NOT_OK(meta.ReadPod(&g.n_));
    PRSIM_RETURN_NOT_OK(meta.Finish());
  }
  PRSIM_RETURN_NOT_OK(load_array("out_off", &g.out_off_));
  PRSIM_RETURN_NOT_OK(load_array("out_adj", &g.out_adj_));
  PRSIM_RETURN_NOT_OK(load_array("out_deg", &g.out_tgt_in_degree_));
  PRSIM_RETURN_NOT_OK(load_array("in_off", &g.in_off_));
  PRSIM_RETURN_NOT_OK(load_array("in_adj", &g.in_adj_));
  PRSIM_RETURN_NOT_OK(load_array("in_degree", &g.in_degree_));

  // Structural size checks are O(1) and always on; the full O(m) invariant
  // sweep is opt-out for trusted cold-start paths.
  const auto n = static_cast<size_t>(g.n_);
  if (g.out_off_.size() != n + 1 || g.in_off_.size() != n + 1 ||
      g.in_degree_.size() != n ||
      g.out_adj_.size() != g.out_tgt_in_degree_.size() ||
      g.out_adj_.size() != g.in_adj_.size() ||
      g.out_off_.front() != 0 || g.out_off_.back() != g.out_adj_.size() ||
      g.in_off_.front() != 0 || g.in_off_.back() != g.in_adj_.size()) {
    return Status::InvalidArgument("corrupt artifact '" + path +
                                   "': CSR array sizes are inconsistent");
  }
  if (options.validate) PRSIM_RETURN_NOT_OK(g.Validate());
  return g;
}

}  // namespace prsim
