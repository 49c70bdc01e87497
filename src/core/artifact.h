// Artifact fingerprinting shared by every persistent engine index.
//
// An index artifact is only valid against the exact (graph, options) pair it
// was built from. Pairing a stale index with a different graph — or the same
// graph under different build options — silently skews every estimate, so
// each artifact embeds a fingerprint in its "fingerprint" section:
//
//   n, m            — node and edge counts of the build graph;
//   graph_checksum  — FNV-1a over the CSR arrays, so two different graphs
//                     with identical (n, m) still mismatch;
//   options_hash    — FNV-1a over the canonical rendering of every option
//                     that shapes the index contents (thread counts and
//                     memory budgets are excluded: they change how an index
//                     is built, never what it holds).
//
// Loading validates all four fields before touching the payload and fails
// with kInvalidArgument naming the first mismatching field.

#ifndef PRSIM_CORE_ARTIFACT_H_
#define PRSIM_CORE_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <type_traits>

#include "graph/graph.h"
#include "util/serde.h"
#include "util/status.h"

namespace prsim {

/// Format version shared by all engine index artifacts: the sectioned,
/// mmap-ready serde container (ArtifactWriter/ArtifactReader), the only
/// version ArtifactReader opens.
inline constexpr uint32_t kArtifactVersion = 2;

struct ArtifactFingerprint {
  uint32_t n = 0;
  uint64_t m = 0;
  uint64_t graph_checksum = 0;
  uint64_t options_hash = 0;
};

/// Accumulates "key=value;" pairs into an order-sensitive FNV-1a hash.
/// Doubles render as %.17g so any two distinct values hash differently.
class OptionsHasher {
 public:
  OptionsHasher& Add(const char* key, double value);
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  OptionsHasher& Add(const char* key, T value) {
    return AddUint(key, static_cast<uint64_t>(value));
  }

  uint64_t hash() const { return fnv_.digest(); }

 private:
  OptionsHasher& AddUint(const char* key, uint64_t value);
  void AddEntry(const char* key, const char* rendered);

  Fnv64 fnv_;
};

/// Fingerprint of `graph` under an engine's options hash.
ArtifactFingerprint MakeFingerprint(const Graph& graph, uint64_t options_hash);

/// Writes the fingerprint block (conventionally its own "fingerprint"
/// section, always the first one an engine adds).
void WriteFingerprint(ByteSink& sink, const ArtifactFingerprint& fp);

/// Reads the fingerprint block and validates it against `expected`
/// (computed from the caller's live graph and options). Returns
/// kInvalidArgument naming the mismatching field, or the reader's error.
Status ReadAndCheckFingerprint(SectionReader& reader,
                               const ArtifactFingerprint& expected,
                               const std::string& path);

}  // namespace prsim

#endif  // PRSIM_CORE_ARTIFACT_H_
