// Graph serialization: SNAP-style edge-list text and a binary snapshot.
//
// Text format is line-oriented "src<ws>dst", with '#' or '%' comment lines
// (the convention of snap.stanford.edu and law.di.unimi.it exports). Binary
// snapshots serialize the finished CSR so repeated bench runs skip both
// parsing and the counting sort.

#ifndef PRSIM_GRAPH_IO_H_
#define PRSIM_GRAPH_IO_H_

#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/graph.h"
#include "util/status.h"

namespace prsim {

/// Parses a SNAP-style edge-list file into (n, edges); n is max id + 1.
Result<std::vector<Edge>> LoadEdgeListText(const std::string& path);

/// Parses edge-list text from an in-memory string (testing convenience).
Result<std::vector<Edge>> ParseEdgeListText(const std::string& text);

/// Writes "src\tdst" lines with a leading comment header.
Status SaveEdgeListText(const Graph& graph, const std::string& path);

/// Loads an edge-list file and builds a Graph per `options`.
Result<Graph> LoadGraphText(const std::string& path,
                            const BuildOptions& options = BuildOptions());

/// Binary snapshot of a finished Graph.
///
/// SaveBinary writes the serde container: each CSR array is its own
/// 64-byte-aligned section, so LoadBinary can mmap the file and hand the
/// Graph zero-copy views instead of parsing every array onto the heap.
struct GraphLoadOptions {
  /// Back the arrays with an mmap'd region when possible.
  bool allow_mmap = true;
  /// Run Graph::Validate() on the loaded structure. Costs O(m log m) on
  /// test-sized graphs; trusted callers on hot cold-start paths can skip
  /// it since checksums already guarantee byte integrity.
  bool validate = true;
};

class GraphIO {
 public:
  using LoadOptions = GraphLoadOptions;

  static Status SaveBinary(const Graph& graph, const std::string& path);
  static Result<Graph> LoadBinary(const std::string& path,
                                  const LoadOptions& options = {});
};

}  // namespace prsim

#endif  // PRSIM_GRAPH_IO_H_
