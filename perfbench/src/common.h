// Shared pieces of the perfbench binary: flag parsing, a tiny JSON writer,
// the deterministic request stream, the timed engine decorator, and the
// reference-answer file the correctness gate compares replies against.
//
// perfbench is one binary with one subcommand per process role (prep,
// serve, load, batch); run.py starts each role in a process of its own and
// combines their JSON lines into the benchmark's result.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine_config.h"
#include "core/single_source.h"
#include "graph/graph.h"
#include "util/status.h"

namespace perfbench {

using prsim::NodeId;
using prsim::QueryCost;
using prsim::ScoreList;

/// "--key value" pairs; every flag takes exactly one value.
class Flags {
 public:
  /// Parses argv[first..]; false (with a message on stderr) on a bare token.
  bool Parse(int argc, char** argv, int first);
  std::string Str(const std::string& key, const std::string& fallback) const;
  double Num(const std::string& key, double fallback) const;
  uint64_t Int(const std::string& key, uint64_t fallback) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  void Set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Steady-clock nanoseconds (CLOCK_MONOTONIC on Linux, so timestamps taken
/// in different processes on one host share a time line).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds one flat JSON object, key by key, in insertion order.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, uint64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Raw(const std::string& key, const std::string& json);
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// Renders a vector of numbers as a JSON array.
std::string JsonArray(const std::vector<double>& values);

/// Nearest-rank quantile of an unsorted sample (sorts a copy); 0 if empty.
double Quantile(std::vector<double> values, double q);

/// The workload's request stream: request i asks for the top-k of
/// SourceAt(i). Each draw is a pure function of (seed, i), so every process
/// (prep computing references, the load generator) sees the same stream.
/// zipf_s = 0 draws sources uniformly; zipf_s > 0 draws a Zipf(s) rank and
/// maps it through a fixed permutation of the node ids. The permutation is
/// part of the workload, like its graph: every seed sees the same hot
/// sources, so runs differ in the request sequence, not in which nodes are
/// hot.
class RequestStream {
 public:
  RequestStream(uint64_t seed, NodeId n, double zipf_s);
  ~RequestStream();
  NodeId SourceAt(uint64_t index) const;
  /// Pre-draws [offset, offset + count).
  std::vector<NodeId> Slice(uint64_t offset, uint64_t count) const;

 private:
  struct Zipf;
  uint64_t seed_;
  NodeId n_;
  std::unique_ptr<Zipf> zipf_;
};

/// The PRSim configuration every workload runs (c, eps, engine seed and
/// intra-query threads come from the flags).
prsim::EngineConfig EngineConfigFromFlags(const Flags& flags);

/// Generates the workload graph: --model chunglu|er, --n, --degree,
/// --gamma, --graph-seed.
prsim::Result<prsim::Graph> GenerateGraph(const Flags& flags);

/// One timed engine call, recorded by TimedEngine.
struct EngineSpan {
  NodeId source = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store shared by a TimedEngine and all its clones.
class EngineSpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Add(const EngineSpan& span);
  std::vector<EngineSpan> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<EngineSpan> spans_;
};

/// Engine decorator: forwards every call to the wrapped engine and, while
/// its log is enabled, records the wall time of each Query(). The
/// query service mints per-worker clones through CloneWithSeed, so clones
/// are decorated too. Scores are the wrapped engine's, untouched.
class TimedEngine : public prsim::SingleSourceSimRank {
 public:
  TimedEngine(std::unique_ptr<prsim::SingleSourceSimRank> inner,
              std::shared_ptr<EngineSpanLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  std::string name() const override { return inner_->name(); }
  NodeId node_count() const override { return inner_->node_count(); }
  prsim::Status Preprocess() override { return inner_->Preprocess(); }
  ScoreList Query(NodeId u) override;
  std::unique_ptr<prsim::SingleSourceSimRank> CloneWithSeed(
      uint64_t seed) const override {
    return std::make_unique<TimedEngine>(inner_->CloneWithSeed(seed), log_);
  }
  uint64_t seed() const override { return inner_->seed(); }
  void Reseed(uint64_t seed) override { inner_->Reseed(seed); }
  size_t IndexBytes() const override { return inner_->IndexBytes(); }
  bool IsIndexBased() const override { return inner_->IsIndexBased(); }

 private:
  std::unique_ptr<prsim::SingleSourceSimRank> inner_;
  std::shared_ptr<EngineSpanLog> log_;
};

/// Reference answers for the correctness gate: source -> top-k scores of an
/// offline Query under the engine seed.
using References = std::map<NodeId, ScoreList>;
prsim::Status WriteReferences(const References& refs, const std::string& path);
prsim::Result<References> ReadReferences(const std::string& path);
/// True iff both lists hold the same nodes with bit-identical scores.
bool BitIdentical(const ScoreList& a, const ScoreList& b);

/// Peak resident set of this process (VmHWM) in MiB.
double PeakRssMb();

/// Writes `line` plus a newline to stdout and flushes (run.py reads the
/// roles' stdout line by line).
void EmitLine(const std::string& line);

int RunPrep(const Flags& flags);
int RunServe(const Flags& flags);
int RunLoad(const Flags& flags);
int RunBatch(const Flags& flags);
int RunAccuracy(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
