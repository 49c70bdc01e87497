#include "baselines/sling.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/artifact.h"
#include "ppr/backward_search.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/serde.h"

namespace prsim {

namespace {

constexpr char kSlingKind[] = "sling-index";

/// On-disk record of one inverted-view list: PackNodeLevel key plus the
/// [begin, end) range into the target payload.
struct TargetListRecord {
  uint64_t key;
  uint64_t begin;
  uint64_t end;
};

}  // namespace

Sling::Sling(const Graph& graph, const SlingOptions& options)
    : graph_(graph), options_(options), walker_(graph, options.c) {
  PRSIM_CHECK(options_.eps > 0);
}

Status Sling::Preprocess() {
  const NodeId n = graph_.n();
  const double sqrt_c = walker_.sqrt_c();
  const double term = 1.0 - sqrt_c;

  // Phase 1: eta(w) for every node by Monte Carlo pair-walks. This is the
  // O(n log(n/delta)/eps^2) preprocessing bottleneck the paper attributes
  // to SLING (Section 2).
  const double log_factor =
      3.0 * std::log(std::max<double>(n, 2) / options_.delta);
  uint64_t eta_samples = static_cast<uint64_t>(std::ceil(
      options_.alpha_eta * log_factor / (options_.eps * options_.eps)));
  eta_samples = std::min(std::max<uint64_t>(eta_samples, 100),
                         options_.max_eta_samples);
  Index index;
  index.eta.assign(n, 1.0);
  ParallelFor(
      0, n,
      [&](size_t w) {
        Rng rng(options_.seed ^ (0x9e3779b97f4a7c15ULL * (w + 1)));
        index.eta[w] =
            walker_.EstimateEta(static_cast<NodeId>(w), eta_samples, rng);
      },
      options_.threads);

  // Phase 2: backward search from every target node, keeping reserves above
  // the error threshold. Reserves psi approximate pi_l = (1-sqrt_c) h_l, so
  // the h threshold eps translates to a reserve threshold (1-sqrt_c) eps.
  BackwardSearchOptions search;
  search.c = options_.c;
  // SLING's theoretical residue bound; the extra constant matches the
  // (1-sqrt_c)/12-style slack used for PRSim so errors sum to eps.
  search.rmax = term * options_.eps / 4.0;
  search.max_level = options_.max_level;
  search.keep_threshold = term * options_.eps / 4.0;

  index.source_index.assign(n, {});
  // Backward searches run in parallel into position-indexed slots, one
  // block of targets at a time (bounding the memory held in flight), and
  // each block is merged serially in w order. The index, and so every
  // float sum a query accumulates over it, is then independent of thread
  // count and scheduling. The tuple budget is a running total; it only
  // grows, so aborting on it gives the same verdict as a full serial count.
  constexpr size_t kTargetBlock = 4096;
  std::vector<BackwardSearchResult> slots;
  std::atomic<uint64_t> total_tuples{0};
  std::atomic<bool> exhausted{false};
  for (size_t block = 0; block < n; block += kTargetBlock) {
    const size_t block_end = std::min<size_t>(n, block + kTargetBlock);
    slots.assign(block_end - block, {});
    ParallelFor(
        block, block_end,
        [&](size_t w) {
          if (exhausted.load(std::memory_order_relaxed)) return;
          BackwardSearchResult& result = slots[w - block];
          result = BackwardSearch(graph_, static_cast<NodeId>(w), search);
          const uint64_t tuples = result.TupleCount();
          if (total_tuples.fetch_add(tuples) + tuples >
              options_.max_index_tuples) {
            exhausted = true;
          }
        },
        options_.threads);
    if (exhausted) break;
    for (size_t w = block; w < block_end; ++w) {
      const BackwardSearchResult& result = slots[w - block];
      for (uint32_t level = 0; level < result.levels.size(); ++level) {
        const auto& reserves = result.levels[level];
        if (reserves.empty()) continue;
        TargetList& list =
            index.target_lists[PackNodeLevel(static_cast<NodeId>(w), level)];
        list.begin = index.target_payload.size();
        for (const auto& [v, psi] : reserves) {
          const float h = psi / static_cast<float>(term);
          index.target_payload.emplace_back(v, h);
          index.source_index[v].push_back({static_cast<NodeId>(w), level, h});
        }
        list.end = index.target_payload.size();
      }
    }
  }
  if (exhausted) {
    return Status::ResourceExhausted(
        "SLING: index exceeds max_index_tuples = " +
        std::to_string(options_.max_index_tuples));
  }
  index_ = std::make_shared<const Index>(std::move(index));
  return Status::OK();
}

ScoreList Sling::Query(NodeId u) {
  PRSIM_CHECK(index_ != nullptr) << "call Preprocess() before Query()";
  PRSIM_CHECK(u < graph_.n());
  cost_ = QueryCost{};
  const Index& index = *index_;
  FlatHashMap2<double> scores(1024);
  for (const SourceEntry& entry : index.source_index[u]) {
    const uint64_t key = PackNodeLevel(entry.w, entry.level);
    const TargetList* list = index.target_lists.Find(key);
    if (list == nullptr) continue;
    cost_.index_tuples_read += list->end - list->begin;
    const double lhs = static_cast<double>(entry.h) * index.eta[entry.w];
    for (uint64_t i = list->begin; i < list->end; ++i) {
      const auto& [v, h] = index.target_payload[i];
      scores[v] += lhs * static_cast<double>(h);
    }
  }
  ScoreList out;
  out.reserve(scores.size() + 1);
  scores.ForEach([&](uint64_t key, const double& score) {
    const auto v = static_cast<NodeId>(key);
    if (v != u && score > 0) out.emplace_back(v, score);
  });
  out.emplace_back(u, 1.0);
  return out;
}

uint64_t Sling::OptionsHash() const {
  // Everything that shapes the index contents. Thread count and the tuple
  // budget only change how (or whether) the build completes, never what the
  // finished index holds; the seed does (eta is Monte Carlo).
  return OptionsHasher()
      .Add("c", options_.c)
      .Add("eps", options_.eps)
      .Add("delta", options_.delta)
      .Add("alpha_eta", options_.alpha_eta)
      .Add("max_eta_samples", options_.max_eta_samples)
      .Add("max_level", options_.max_level)
      .Add("seed", options_.seed)
      .hash();
}

Status Sling::SaveIndex(const std::string& path) const {
  if (index_ == nullptr) {
    return Status::InvalidArgument(
        "SLING: no index built; call Preprocess() before SaveIndex()");
  }
  const Index& index = *index_;
  const NodeId n = graph_.n();
  ArtifactWriter artifact(path, kSlingKind);
  WriteFingerprint(artifact.AddSection("fingerprint"),
                   MakeFingerprint(graph_, OptionsHash()));
  ByteSink& writer = artifact.AddSection("index");
  writer.WriteVector(index.eta);
  writer.WriteVector(index.target_payload);

  std::vector<TargetListRecord> records;
  records.reserve(index.target_lists.size());
  index.target_lists.ForEach([&](uint64_t key, const TargetList& list) {
    records.push_back({key, list.begin, list.end});
  });
  // ForEach order follows the hash layout; sort so equal indexes always
  // produce byte-identical artifacts.
  std::sort(records.begin(), records.end(),
            [](const TargetListRecord& a, const TargetListRecord& b) {
              return a.key < b.key;
            });
  writer.WriteVector(records);

  std::vector<uint64_t> offsets;
  offsets.reserve(static_cast<size_t>(n) + 1);
  uint64_t total = 0;
  offsets.push_back(0);
  for (NodeId v = 0; v < n; ++v) {
    total += index.source_index[v].size();
    offsets.push_back(total);
  }
  writer.WriteVector(offsets);
  // Stream the source-major view node by node (same bytes as one
  // WriteVector of the concatenation, without holding that second copy).
  writer.WritePod(total);
  for (NodeId v = 0; v < n; ++v) {
    writer.WriteElements(index.source_index[v].data(),
                         index.source_index[v].size());
  }
  return artifact.Finish();
}

Status Sling::LoadIndex(const std::string& path) {
  const NodeId n = graph_.n();
  PRSIM_ASSIGN_OR_RETURN(ArtifactReader artifact,
                         ArtifactReader::Open(path, kSlingKind));
  {
    PRSIM_ASSIGN_OR_RETURN(SectionReader fingerprint,
                           artifact.Section("fingerprint"));
    PRSIM_RETURN_NOT_OK(ReadAndCheckFingerprint(
        fingerprint, MakeFingerprint(graph_, OptionsHash()), path));
  }
  PRSIM_ASSIGN_OR_RETURN(SectionReader reader, artifact.Section("index"));

  Index index;
  PRSIM_RETURN_NOT_OK(reader.ReadVector(&index.eta));
  PRSIM_RETURN_NOT_OK(reader.ReadVector(&index.target_payload));
  if (index.eta.size() != n) {
    return Status::IOError("corrupt eta block in '" + path + "'");
  }
  for (const auto& [v, h] : index.target_payload) {
    if (v >= n) {
      return Status::IOError("corrupt target payload in '" + path + "'");
    }
  }

  std::vector<TargetListRecord> records;
  PRSIM_RETURN_NOT_OK(reader.ReadVector(&records));
  for (const TargetListRecord& record : records) {
    if (record.begin > record.end ||
        record.end > index.target_payload.size() ||
        index.target_lists.Contains(record.key)) {
      return Status::IOError("corrupt target list in '" + path + "'");
    }
    index.target_lists[record.key] = {record.begin, record.end};
  }

  std::vector<uint64_t> offsets;
  PRSIM_RETURN_NOT_OK(reader.ReadVector(&offsets));
  if (offsets.size() != static_cast<size_t>(n) + 1 || offsets.front() != 0) {
    return Status::IOError("corrupt source index offsets in '" + path + "'");
  }
  for (NodeId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Status::IOError("corrupt source index offsets in '" + path +
                             "'");
    }
  }
  uint64_t total = 0;
  PRSIM_RETURN_NOT_OK(reader.ReadPod(&total));
  if (total != offsets.back() ||
      total > reader.remaining() / sizeof(SourceEntry)) {
    return Status::IOError("corrupt source entry count in '" + path + "'");
  }
  index.source_index.assign(n, {});
  for (NodeId v = 0; v < n; ++v) {
    auto& list = index.source_index[v];
    list.resize(offsets[v + 1] - offsets[v]);
    PRSIM_RETURN_NOT_OK(reader.ReadElements(list.data(), list.size()));
    for (const SourceEntry& entry : list) {
      if (entry.w >= n) {
        return Status::IOError("corrupt source entry in '" + path + "'");
      }
    }
  }
  PRSIM_RETURN_NOT_OK(reader.Finish());
  index_ = std::make_shared<const Index>(std::move(index));
  return Status::OK();
}

size_t Sling::IndexBytes() const {
  if (index_ == nullptr) return 0;
  size_t bytes = index_->eta.size() * sizeof(double);
  for (const auto& entries : index_->source_index) {
    bytes += entries.size() * sizeof(SourceEntry);
  }
  bytes += index_->target_lists.MemoryBytes();
  bytes += index_->target_payload.size() * sizeof(std::pair<NodeId, float>);
  return bytes;
}

}  // namespace prsim
