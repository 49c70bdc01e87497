// Artifact robustness for every persistent engine: save -> load -> query
// round trips must be bit-identical, and truncated, corrupted, or
// wrong-fingerprint artifacts must fail with clean Status errors for
// PRSim, SLING, READS, and TSF alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_registry.h"
#include "test_util.h"

namespace prsim {
namespace {

using testing::MakeRandomDigraph;

struct EngineCase {
  const char* engine;        ///< registry key
  const char* params;        ///< test-sized config ("seed" appended below)
  const char* mismatch_params;  ///< same engine, different index options
};

const EngineCase kCases[] = {
    {"prsim", "eps=0.3,seed=99", "eps=0.2,seed=99"},
    {"sling", "eps=0.3,seed=99", "eps=0.2,seed=99"},
    {"reads", "r=20,t=5,seed=99", "r=10,t=5,seed=99"},
    {"tsf", "rg=20,rq=5,seed=99", "rg=10,rq=5,seed=99"},
};

class PersistenceTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("prsim_persistence_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    graph_ = MakeRandomDigraph(120, 700, 7);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::unique_ptr<SingleSourceSimRank> Make(const std::string& params) {
    auto engine =
        EngineRegistry::Global().Create(GetParam().engine, graph_, params);
    engine.status().Abort();
    return std::move(engine).ValueOrDie();
  }

  /// Builds, saves, and returns the artifact path.
  std::string BuildAndSave(const std::string& name) {
    auto engine = Make(GetParam().params);
    EXPECT_TRUE(engine->Preprocess().ok());
    EXPECT_TRUE(engine->SaveIndex(Path(name)).ok());
    return Path(name);
  }

  static ScoreList Sorted(ScoreList scores) {
    std::sort(scores.begin(), scores.end());
    return scores;
  }

  std::filesystem::path dir_;
  Graph graph_;
};

TEST_P(PersistenceTest, SaveBeforePreprocessFails) {
  auto engine = Make(GetParam().params);
  const Status st = engine->SaveIndex(Path("early.idx"));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_P(PersistenceTest, RoundTripQueriesAreBitIdentical) {
  auto fresh = Make(GetParam().params);
  ASSERT_TRUE(fresh->Preprocess().ok());
  ASSERT_TRUE(fresh->SaveIndex(Path("rt.idx")).ok());

  auto loaded = EngineRegistry::Global().CreateFromIndex(
      GetParam().engine, graph_, EngineConfig::Parse(GetParam().params)
                                     .ValueOrDie(),
      Path("rt.idx"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded.ValueOrDie()->IndexBytes(), 0u);

  // First query of each instance: same seed + same index must match
  // bit-for-bit, including for the sampling engines.
  const ScoreList a = Sorted(fresh->Query(3));
  const ScoreList b = Sorted(loaded.ValueOrDie()->Query(3));
  EXPECT_EQ(a, b);
  // And again from another source (RNG streams stay in lockstep).
  EXPECT_EQ(Sorted(fresh->Query(11)),
            Sorted(loaded.ValueOrDie()->Query(11)));
}

TEST_P(PersistenceTest, LoadIndexReplacesPreprocess) {
  const std::string path = BuildAndSave("direct.idx");
  auto engine = Make(GetParam().params);
  ASSERT_TRUE(engine->LoadIndex(path).ok());
  EXPECT_FALSE(engine->Query(5).empty());
}

TEST_P(PersistenceTest, MismatchedOptionsFail) {
  const std::string path = BuildAndSave("opts.idx");
  auto engine = Make(GetParam().mismatch_params);
  const Status st = engine->LoadIndex(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST_P(PersistenceTest, MismatchedSeedFails) {
  // Every persistent sampling index is seed-dependent; PRSim's is not, so
  // its artifact stays valid under a different query seed.
  const std::string path = BuildAndSave("seed.idx");
  std::string params = GetParam().params;
  params.replace(params.find("seed=99"), 7, "seed=55");
  auto engine = Make(params);
  const Status st = engine->LoadIndex(path);
  if (std::string(GetParam().engine) == "prsim") {
    EXPECT_TRUE(st.ok()) << st.ToString();
  } else {
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
}

TEST_P(PersistenceTest, WrongGraphSameSizeFails) {
  const std::string path = BuildAndSave("graph.idx");
  Graph other = MakeRandomDigraph(120, 700, 8);
  auto engine = EngineRegistry::Global().Create(GetParam().engine, other,
                                                GetParam().params);
  engine.status().Abort();
  const Status st = engine.ValueOrDie()->LoadIndex(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST_P(PersistenceTest, TruncationFails) {
  const std::string path = BuildAndSave("trunc.idx");
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size * 2 / 3);
  auto engine = Make(GetParam().params);
  const Status st = engine->LoadIndex(path);
  ASSERT_FALSE(st.ok());
  // The v2 container recognizes the envelope but finds a section cut off:
  // structural corruption, not an I/O failure.
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST_P(PersistenceTest, FlippedMagicFails) {
  const std::string path = BuildAndSave("magic.idx");
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xff);
    file.seekp(0);
    file.write(&byte, 1);
  }
  auto engine = Make(GetParam().params);
  const Status st = engine->LoadIndex(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST_P(PersistenceTest, ChecksumCorruptionFails) {
  const std::string path = BuildAndSave("sum.idx");
  {
    // Flip one byte in the checksum trailer: the payload parses but the
    // digest no longer matches.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(-1, std::ios::end);
    const auto pos = file.tellg();
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(pos);
    file.write(&byte, 1);
  }
  auto engine = Make(GetParam().params);
  const Status st = engine->LoadIndex(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum"), std::string::npos)
      << st.ToString();
}

TEST_P(PersistenceTest, WrongEngineArtifactFails) {
  // A valid artifact of one engine kind must be rejected by every other.
  const std::string path = BuildAndSave("kind.idx");
  for (const EngineCase& other : kCases) {
    if (std::string(other.engine) == GetParam().engine) continue;
    auto engine = EngineRegistry::Global().Create(other.engine, graph_,
                                                  other.params);
    engine.status().Abort();
    const Status st = engine.ValueOrDie()->LoadIndex(path);
    ASSERT_FALSE(st.ok()) << other.engine;
    EXPECT_EQ(st.code(), StatusCode::kIOError) << other.engine;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPersistentEngines, PersistenceTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<EngineCase>& info) {
                           return std::string(info.param.engine);
                         });

// An artifact is a pure function of (graph, index options, seed): the
// build thread count of the engines that build in parallel must not change
// a single byte of it.
TEST(PersistenceDeterminismTest, ArtifactIsByteIdenticalAtAnyThreadCount) {
  const Graph graph = MakeRandomDigraph(300, 1800, 7);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("prsim_persistence_threads_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  for (const char* engine : {"prsim", "sling"}) {
    std::vector<std::string> artifacts;
    for (const char* threads : {"1", "4"}) {
      auto built = EngineRegistry::Global().Create(
          engine, graph, std::string("eps=0.3,seed=99,threads=") + threads);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      ASSERT_TRUE(built.ValueOrDie()->Preprocess().ok());
      const std::string path = (dir / (std::string(engine) + threads)).string();
      ASSERT_TRUE(built.ValueOrDie()->SaveIndex(path).ok());
      std::ifstream in(path, std::ios::binary);
      artifacts.emplace_back(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(artifacts[0].empty()) << engine;
    EXPECT_TRUE(artifacts[0] == artifacts[1])
        << engine << " artifact depends on the build thread count";
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceUnimplementedTest, IndexFreeEnginesReportUnimplemented) {
  Graph g = MakeRandomDigraph(40, 160, 3);
  for (const char* name : {"probesim", "topsim", "montecarlo",
                           "powermethod"}) {
    auto engine = EngineRegistry::Global().Create(name, g, "");
    engine.status().Abort();
    const Status save = engine.ValueOrDie()->SaveIndex("/tmp/unused.idx");
    EXPECT_EQ(save.code(), StatusCode::kUnimplemented) << name;
    const Status load = engine.ValueOrDie()->LoadIndex("/tmp/unused.idx");
    EXPECT_EQ(load.code(), StatusCode::kUnimplemented) << name;

    auto from_index = EngineRegistry::Global().CreateFromIndex(
        name, g, EngineConfig(), "/tmp/unused.idx");
    ASSERT_FALSE(from_index.ok()) << name;
    EXPECT_EQ(from_index.status().code(), StatusCode::kUnimplemented) << name;
  }
}

TEST(PersistenceMetadataTest, RegistryFlagsPersistentEngines) {
  const EngineRegistry& registry = EngineRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const EngineInfo* info = registry.Find(name);
    const bool expected = name == "prsim" || name == "sling" ||
                          name == "reads" || name == "tsf";
    EXPECT_EQ(info->has_persistent_index, expected) << name;
    // Persistence implies an index to persist.
    if (info->has_persistent_index) EXPECT_TRUE(info->index_based) << name;
  }
}

}  // namespace
}  // namespace prsim
