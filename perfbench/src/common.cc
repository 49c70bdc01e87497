#include "common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>

#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {

bool Flags::Parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: expected '--flag value', got '%s'\n",
                   key.c_str());
      return false;
    }
    values_[key.substr(2)] = argv[i + 1];
  }
  return true;
}

std::string Flags::Str(const std::string& key,
                       const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Flags::Num(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

uint64_t Flags::Int(const std::string& key, uint64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtoull(it->second.c_str(), nullptr, 10);
}

void Json::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + key + "\":";
}

Json& Json::Num(const std::string& key, double value) {
  Key(key);
  char buf[64];
  // %.17g keeps every digit; non-finite values are not JSON, so they
  // become null and the reader treats them as missing.
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  body_ += buf;
  return *this;
}

Json& Json::Int(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"";
  for (const char ch : value) {
    if (ch == '"' || ch == '\\') body_ += '\\';
    body_ += (ch == '\n' ? ' ' : ch);
  }
  body_ += "\"";
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

struct RequestStream::Zipf {
  Zipf(NodeId n, double s) : sampler(n, s), permutation(n) {
    std::iota(permutation.begin(), permutation.end(), NodeId{0});
    prsim::Rng rng(0x7065726d75746521ULL);
    for (NodeId i = n; i > 1; --i) {
      std::swap(permutation[i - 1], permutation[rng.NextIndex(i)]);
    }
  }
  prsim::ZipfSampler sampler;
  std::vector<NodeId> permutation;
};

RequestStream::RequestStream(uint64_t seed, NodeId n, double zipf_s)
    : seed_(seed), n_(n) {
  if (zipf_s > 0) zipf_ = std::make_unique<Zipf>(n, zipf_s);
}

RequestStream::~RequestStream() = default;

NodeId RequestStream::SourceAt(uint64_t index) const {
  uint64_t state = seed_ ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  prsim::Rng rng(prsim::SplitMix64(state));
  if (zipf_ == nullptr) return rng.NextIndex(n_);
  return zipf_->permutation[zipf_->sampler.Sample(rng)];
}

std::vector<NodeId> RequestStream::Slice(uint64_t offset,
                                         uint64_t count) const {
  std::vector<NodeId> out(count);
  for (uint64_t i = 0; i < count; ++i) out[i] = SourceAt(offset + i);
  return out;
}

prsim::EngineConfig EngineConfigFromFlags(const Flags& flags) {
  prsim::EngineConfig config;
  config.SetOrReplace("c", flags.Str("c", "0.6"));
  config.SetOrReplace("eps", flags.Str("eps", "0.1"));
  config.SetOrReplace("seed", flags.Str("engine-seed", "42"));
  if (flags.Has("engine-threads")) {
    config.SetOrReplace("threads", flags.Str("engine-threads", "1"));
  }
  return config;
}

prsim::Result<prsim::Graph> GenerateGraph(const Flags& flags) {
  const std::string model = flags.Str("model", "chunglu");
  const auto n = static_cast<NodeId>(flags.Int("n", 10000));
  const double degree = flags.Num("degree", 10.0);
  const uint64_t seed = flags.Int("graph-seed", 1);
  if (model == "chunglu") {
    prsim::ChungLuOptions options;
    options.n = n;
    options.avg_degree = degree;
    options.gamma_out = flags.Num("gamma", 2.0);
    options.seed = seed;
    return prsim::GenerateChungLu(options);
  }
  if (model == "er") {
    prsim::ErdosRenyiOptions options;
    options.n = n;
    options.avg_degree = degree;
    options.seed = seed;
    return prsim::GenerateErdosRenyi(options);
  }
  return prsim::Status::InvalidArgument("unknown --model " + model);
}

void EngineSpanLog::Add(const EngineSpan& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<EngineSpan> EngineSpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

ScoreList TimedEngine::Query(NodeId u) {
  const int64_t start = NowNs();
  ScoreList scores = inner_->Query(u);
  const int64_t end = NowNs();
  cost_ = inner_->last_query_cost();
  if (log_->enabled()) log_->Add({u, start, end});
  return scores;
}

prsim::Status WriteReferences(const References& refs,
                              const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  const auto put = [&out](const void* data, size_t len) {
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
  };
  const auto count = static_cast<uint32_t>(refs.size());
  put(&count, sizeof(count));
  for (const auto& [source, scores] : refs) {
    const auto size = static_cast<uint32_t>(scores.size());
    put(&source, sizeof(source));
    put(&size, sizeof(size));
    for (const auto& [node, score] : scores) {
      put(&node, sizeof(node));
      put(&score, sizeof(score));
    }
  }
  if (!out) return prsim::Status::IOError("cannot write " + path);
  return prsim::Status::OK();
}

prsim::Result<References> ReadReferences(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const auto get = [&in](void* data, size_t len) {
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
    return static_cast<bool>(in);
  };
  References refs;
  uint32_t count = 0;
  if (!get(&count, sizeof(count))) {
    return prsim::Status::IOError("cannot read " + path);
  }
  for (uint32_t i = 0; i < count; ++i) {
    NodeId source = 0;
    uint32_t size = 0;
    if (!get(&source, sizeof(source)) || !get(&size, sizeof(size)) ||
        size > (1u << 24)) {
      return prsim::Status::IOError("truncated reference file " + path);
    }
    ScoreList scores(size);
    for (auto& [node, score] : scores) {
      if (!get(&node, sizeof(node)) || !get(&score, sizeof(score))) {
        return prsim::Status::IOError("truncated reference file " + path);
      }
    }
    refs[source] = std::move(scores);
  }
  return refs;
}

bool BitIdentical(const ScoreList& a, const ScoreList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::bit_cast<uint64_t>(a[i].second) !=
            std::bit_cast<uint64_t>(b[i].second)) {
      return false;
    }
  }
  return true;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void EmitLine(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
