// End-to-end tests for the prsim_cli tool: generate -> stats -> index ->
// query pipelines through the real binary.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace prsim {
namespace {

#ifndef PRSIM_CLI_PATH
#error "PRSIM_CLI_PATH must be defined by the build"
#endif

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("prsim_cli_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  /// Runs the CLI with `args`, captures stdout, returns the exit code.
  int Run(const std::string& args, std::string* output = nullptr) {
    const std::string command =
        std::string(PRSIM_CLI_PATH) + " " + args + " 2>/dev/null";
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) return -1;
    char buffer[4096];
    std::string captured;
    while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      captured += buffer;
    }
    if (output != nullptr) *output = captured;
    const int status = pclose(pipe);
    return WEXITSTATUS(status);
  }

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// Extracts the top-k result lines ("<node> <score>") from query output,
  /// skipping the timing lines whose wording varies run to run.
  std::vector<std::string> ScoreLines(const std::string& output) {
    std::vector<std::string> lines;
    std::istringstream stream(output);
    std::string line;
    while (std::getline(stream, line)) {
      if (!line.empty() && std::isdigit(static_cast<unsigned char>(line[0]))) {
        lines.push_back(line);
      }
    }
    return lines;
  }

  /// Extracts the "score\t<node>\t<value>" rows of --format tsv output.
  std::vector<std::string> ScoreTsvLines(const std::string& output) {
    std::vector<std::string> lines;
    std::istringstream stream(output);
    std::string line;
    while (std::getline(stream, line)) {
      if (line.rfind("score\t", 0) == 0) lines.push_back(line);
    }
    return lines;
  }

  /// A background CLI process (the serve transports) with stdin held open
  /// on a pipe and stdout/stderr captured to files, so tests can deliver
  /// signals and then assert on the shutdown banners.
  struct Spawned {
    pid_t pid = -1;
    int stdin_fd = -1;  // write end of the child's stdin; close for EOF
    std::string stdout_path;
    std::string stderr_path;
  };

  Spawned Spawn(const std::string& args) {
    Spawned proc;
    proc.stdout_path = Path("spawn_" + std::to_string(spawn_count_) + ".out");
    proc.stderr_path = Path("spawn_" + std::to_string(spawn_count_) + ".err");
    ++spawn_count_;
    int stdin_pipe[2] = {-1, -1};
    if (::pipe(stdin_pipe) != 0) return proc;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::dup2(stdin_pipe[0], STDIN_FILENO);
      ::close(stdin_pipe[0]);
      ::close(stdin_pipe[1]);
      const int out = ::open(proc.stdout_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int err = ::open(proc.stderr_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out >= 0) ::dup2(out, STDOUT_FILENO);
      if (err >= 0) ::dup2(err, STDERR_FILENO);
      const std::string command = std::string(PRSIM_CLI_PATH) + " " + args;
      ::execl("/bin/sh", "sh", "-c", ("exec " + command).c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(stdin_pipe[0]);
    proc.pid = pid;
    proc.stdin_fd = stdin_pipe[1];
    return proc;
  }

  /// Polls the spawned server's stderr for the ready banner and returns the
  /// ephemeral port, or 0 on timeout (~10s).
  uint32_t WaitForListenPort(const Spawned& proc) {
    static constexpr char kBanner[] = "listening on 127.0.0.1:";
    for (int i = 0; i < 200; ++i) {
      const std::string text = ReadFile(proc.stderr_path);
      const auto pos = text.find(kBanner);
      if (pos != std::string::npos &&
          text.find('\n', pos) != std::string::npos) {
        return static_cast<uint32_t>(
            std::stoul(text.substr(pos + std::strlen(kBanner))));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return 0;
  }

  /// Polls the spawned process's captured output file until `needle` shows
  /// up (~10s); returns whether it did.
  bool WaitForOutput(const std::string& path, const std::string& needle) {
    for (int i = 0; i < 200; ++i) {
      if (ReadFile(path).find(needle) != std::string::npos) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  /// Delivers `sig`, reaps the process, and returns its exit code
  /// (128 + signal if it died on the signal instead of handling it).
  int SignalAndWait(Spawned* proc, int sig) {
    if (proc->pid < 0) return -1;
    ::kill(proc->pid, sig);
    int status = 0;
    ::waitpid(proc->pid, &status, 0);
    proc->pid = -1;
    if (proc->stdin_fd >= 0) {
      ::close(proc->stdin_fd);
      proc->stdin_fd = -1;
    }
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

  /// Closes the child's stdin (EOF drives the stdin serve loop to drain),
  /// reaps the process, and returns its exit code.
  int CloseStdinAndWait(Spawned* proc) {
    if (proc->pid < 0) return -1;
    if (proc->stdin_fd >= 0) {
      ::close(proc->stdin_fd);
      proc->stdin_fd = -1;
    }
    int status = 0;
    ::waitpid(proc->pid, &status, 0);
    proc->pid = -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

  std::filesystem::path dir_;
  int spawn_count_ = 0;
};

TEST_F(CliTest, NoArgsShowsUsage) { EXPECT_EQ(Run(""), 2); }

TEST_F(CliTest, UnknownCommandFails) { EXPECT_EQ(Run("frobnicate"), 2); }

TEST_F(CliTest, GenerateStatsPipeline) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --n 2000 --degree 6 --gamma 2 --seed 9"),
            0);
  std::string stats;
  ASSERT_EQ(Run("stats --graph " + Path("g.txt"), &stats), 0);
  EXPECT_NE(stats.find("n            2000"), std::string::npos) << stats;
  EXPECT_NE(stats.find("gamma out/in"), std::string::npos);
}

TEST_F(CliTest, GenerateBinaryFormat) {
  ASSERT_EQ(Run("generate --out " + Path("g.bin") +
                " --model er --n 1000 --degree 5"),
            0);
  std::string stats;
  ASSERT_EQ(Run("stats --graph " + Path("g.bin"), &stats), 0);
  EXPECT_NE(stats.find("n            1000"), std::string::npos);
}

TEST_F(CliTest, IndexAndQueryPipeline) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --n 3000 --degree 8 --gamma 1.8 --seed 4"),
            0);
  std::string index_out;
  ASSERT_EQ(Run("index --graph " + Path("g.txt") + " --out " +
                    Path("g.idx") + " --eps 0.1",
                &index_out),
            0);
  EXPECT_NE(index_out.find("built index"), std::string::npos);

  std::string query_out;
  ASSERT_EQ(Run("query --graph " + Path("g.txt") + " --index " +
                    Path("g.idx") + " --source 11 --k 5",
                &query_out),
            0);
  EXPECT_NE(query_out.find("loaded index"), std::string::npos);
  EXPECT_NE(query_out.find("query answered"), std::string::npos);
}

TEST_F(CliTest, QueryWithoutIndexPreprocessesInProcess) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model ba --n 1500 --degree 4"),
            0);
  std::string query_out;
  ASSERT_EQ(Run("query --graph " + Path("g.txt") + " --source 3 --k 3",
                &query_out),
            0);
  EXPECT_NE(query_out.find("preprocessed in"), std::string::npos);
}

TEST_F(CliTest, MissingRequiredFlagFails) {
  EXPECT_EQ(Run("stats"), 2);
  EXPECT_EQ(Run("index --graph /nonexistent"), 2);
  EXPECT_EQ(Run("query --graph /nonexistent --source 0"), 1);
}

// Regression: the old pairwise parser treated the boolean --undirected as a
// valued flag, consuming the next token and dropping every flag after it.
// The generated graph must be byte-identical no matter where --undirected
// appears, and the flags following it must take effect.
TEST_F(CliTest, UndirectedFlagPositionIndependent) {
  const std::string params = " --model er --n 50 --degree 4 --seed 1";
  ASSERT_EQ(
      Run("generate --undirected --out " + Path("first.txt") + params), 0);
  ASSERT_EQ(
      Run("generate --out " + Path("middle.txt") + " --undirected" + params),
      0);
  ASSERT_EQ(Run("generate --out " + Path("last.txt") + params +
                " --undirected"),
            0);

  const std::string first = ReadFile(Path("first.txt"));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, ReadFile(Path("middle.txt")));
  EXPECT_EQ(first, ReadFile(Path("last.txt")));

  // The flags after --undirected must not be swallowed: 50 nodes, not the
  // 100k-node Chung-Lu default.
  std::string stats;
  ASSERT_EQ(Run("stats --graph " + Path("first.txt"), &stats), 0);
  EXPECT_NE(stats.find("n            50"), std::string::npos) << stats;
}

TEST_F(CliTest, UnknownFlagFails) {
  EXPECT_EQ(Run("generate --out " + Path("g.txt") + " --frobnicate 1"), 2);
  // --eps is a real flag elsewhere but stats does not accept it.
  EXPECT_EQ(Run("stats --graph " + Path("g.txt") + " --eps 0.1"), 2);
}

TEST_F(CliTest, ValuedFlagWithoutValueFails) {
  EXPECT_EQ(Run("generate --out " + Path("g.txt") + " --seed"), 2);
  EXPECT_EQ(Run("stats --graph"), 2);
}

TEST_F(CliTest, DuplicateFlagFails) {
  EXPECT_EQ(Run("generate --out " + Path("g.txt") + " --seed 1 --seed 2"), 2);
}

TEST_F(CliTest, FlagTokenAsValueFails) {
  // A forgotten value must not consume the next --flag as its value.
  EXPECT_EQ(Run("generate --out --undirected --model er --n 50"), 2);
}

TEST_F(CliTest, OversizedNumericValueFails) {
  // Larger than uint32: must error, not truncate into a wrong-sized graph.
  EXPECT_EQ(Run("generate --out " + Path("g.txt") + " --n 5000000000"), 2);
  EXPECT_EQ(
      Run("generate --out " + Path("g.txt") + " --n 99999999999999999999999"),
      2);
}

TEST_F(CliTest, MalformedNumericValueFails) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") + " --n 500 --degree 4"),
            0);
  EXPECT_EQ(Run("query --graph " + Path("g.txt") + " --source abc"), 2);
  EXPECT_EQ(Run("generate --out " + Path("h.txt") + " --n -5"), 2);
  EXPECT_EQ(Run("generate --out " + Path("h.txt") + " --n 10x"), 2);
}

// End-to-end over the binary graph format: generate (.bin) -> index ->
// query, with a fixed seed; the top-k must be stable across runs.
TEST_F(CliTest, BinaryPipelineStableTopK) {
  ASSERT_EQ(Run("generate --out " + Path("g.bin") +
                " --n 2000 --degree 6 --gamma 1.9 --seed 7"),
            0);
  ASSERT_EQ(Run("index --graph " + Path("g.bin") + " --out " + Path("g.idx") +
                " --eps 0.1"),
            0);

  const std::string query = "query --graph " + Path("g.bin") + " --index " +
                            Path("g.idx") + " --source 5 --k 10 --seed 123";
  std::string run1, run2;
  ASSERT_EQ(Run(query, &run1), 0);
  ASSERT_EQ(Run(query, &run2), 0);

  const std::vector<std::string> topk1 = ScoreLines(run1);
  EXPECT_FALSE(topk1.empty()) << run1;
  EXPECT_EQ(topk1, ScoreLines(run2));
}

TEST_F(CliTest, OutOfRangeSourceFails) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") + " --n 1000 --degree 4"),
            0);
  EXPECT_EQ(Run("query --graph " + Path("g.txt") + " --source 99999"), 2);
}

TEST_F(CliTest, AlgosListsAllEightEngines) {
  std::string out;
  ASSERT_EQ(Run("algos", &out), 0);
  for (const char* name : {"prsim", "probesim", "reads", "sling", "topsim",
                           "tsf", "montecarlo", "powermethod"}) {
    EXPECT_NE(out.find(name), std::string::npos) << name << "\n" << out;
  }
}

// Registry round-trip over the real binary: query --algo <name> must succeed
// for every engine the `algos` subcommand lists.
TEST_F(CliTest, QuerySucceedsForEveryRegisteredAlgo) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 400 --degree 5 --seed 2"),
            0);
  // Small per-engine params keep the heavyweight engines test-sized.
  const std::vector<std::pair<std::string, std::string>> algos = {
      {"prsim", ""},
      {"probesim", ""},
      {"reads", " --params r=20,t=5"},
      {"sling", " --params eps=0.25"},
      {"topsim", ""},
      {"tsf", " --params rg=30,rq=5"},
      {"montecarlo", " --params samples=100"},
      {"powermethod", " --params iterations=8"},
  };
  for (const auto& [algo, params] : algos) {
    std::string out;
    ASSERT_EQ(Run("query --graph " + Path("g.txt") +
                      " --source 7 --k 5 --algo " + algo + params,
                  &out),
              0)
        << algo;
    EXPECT_NE(out.find("query answered"), std::string::npos) << algo;
    EXPECT_NE(out.find("cost: algo="), std::string::npos) << algo;
  }
}

TEST_F(CliTest, UnknownAlgoFails) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") + " --n 300 --degree 4"),
            0);
  EXPECT_EQ(Run("query --graph " + Path("g.txt") +
                " --source 0 --algo simrankpp"),
            2);
}

TEST_F(CliTest, UnknownParamKeyFails) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") + " --n 300 --degree 4"),
            0);
  EXPECT_EQ(Run("query --graph " + Path("g.txt") +
                " --source 0 --params frobnicate=1"),
            2);
  EXPECT_EQ(Run("query --graph " + Path("g.txt") +
                " --source 0 --params eps"),
            2);
}

// Regression: out-of-range --eps / --c used to flow into the engines
// unchecked; they must be rejected with exit 2 before any preprocessing.
TEST_F(CliTest, OutOfRangeEpsAndCFail) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") + " --n 300 --degree 4"),
            0);
  const std::string query = "query --graph " + Path("g.txt") + " --source 0";
  EXPECT_EQ(Run(query + " --eps -0.5"), 2);
  EXPECT_EQ(Run(query + " --eps 0"), 2);
  EXPECT_EQ(Run(query + " --c 1.5"), 2);
  EXPECT_EQ(Run(query + " --c 0"), 2);
  const std::string index =
      "index --graph " + Path("g.txt") + " --out " + Path("g.idx");
  EXPECT_EQ(Run(index + " --eps -0.5"), 2);
  EXPECT_EQ(Run(index + " --c 1.5"), 2);
  EXPECT_EQ(Run(index + " --c 0"), 2);
}

// --threads 0 is a typo'd request (the default is expressed by omitting the
// flag), rejected with exit 2 on every subcommand that accepts --threads.
TEST_F(CliTest, ZeroThreadsRejected) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") + " --n 300 --degree 4"),
            0);
  EXPECT_EQ(Run("query --graph " + Path("g.txt") + " --source 0 --threads 0"),
            2);
  EXPECT_EQ(Run("index --graph " + Path("g.txt") + " --out " + Path("g.idx") +
                " --threads 0"),
            2);
  EXPECT_EQ(Run("serve --graph " + Path("g.txt") + " --stdin --threads 0"),
            2);
}

// `query --threads` now drives the intra-query sample grid; the chunked RNG
// discipline makes the scores bit-identical for every thread count.
TEST_F(CliTest, QueryScoresIndependentOfThreadCount) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --n 500 --degree 6 --seed 3"),
            0);
  const std::string query = "query --graph " + Path("g.txt") +
                            " --source 1 --k 10 --seed 11 --eps 0.2 "
                            "--format tsv --threads ";
  std::string serial, parallel;
  ASSERT_EQ(Run(query + "1", &serial), 0);
  ASSERT_EQ(Run(query + "3", &parallel), 0);
  EXPECT_EQ(ScoreTsvLines(serial), ScoreTsvLines(parallel));
}

TEST_F(CliTest, IndexFlagRejectedForNonPersistentAlgo) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") + " --n 300 --degree 4"),
            0);
  ASSERT_EQ(Run("index --graph " + Path("g.txt") + " --out " + Path("g.idx") +
                " --eps 0.2"),
            0);
  // ProbeSim is index-free; PowerMethod is index-based but its dense matrix
  // is never persisted. Both must reject --index with exit 2, as must the
  // index subcommand itself.
  for (const char* algo : {"probesim", "powermethod"}) {
    EXPECT_EQ(Run("query --graph " + Path("g.txt") + " --index " +
                  Path("g.idx") + " --source 0 --algo " + algo),
              2)
        << algo;
    EXPECT_EQ(Run("index --graph " + Path("g.txt") + " --out " +
                  Path("x.idx") + " --algo " + algo),
              2)
        << algo;
  }
}

// The cold-start workflow for every persistent engine: build the index in
// one process, reload it in another, and get bit-identical scores to an
// in-process preprocessing run under the same seed. threads=1 keeps the
// two independent SLING builds byte-identical (parallel build interleaving
// reorders float accumulation).
TEST_F(CliTest, EveryPersistentEngineRoundTripsThroughIndexFiles) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 400 --degree 5 --seed 2"),
            0);
  const std::vector<std::pair<std::string, std::string>> algos = {
      {"prsim", " --eps 0.3"},
      {"sling", " --params eps=0.3,threads=1"},
      {"reads", " --params r=10,t=4"},
      {"tsf", " --params rg=10,rq=3"},
  };
  for (const auto& [algo, params] : algos) {
    const std::string idx = Path(algo + ".idx");
    std::string index_out;
    ASSERT_EQ(Run("index --graph " + Path("g.txt") + " --out " + idx +
                      " --algo " + algo + " --seed 5" + params,
                  &index_out),
              0)
        << algo << "\n" << index_out;
    EXPECT_NE(index_out.find("built index"), std::string::npos) << algo;

    const std::string query = "query --graph " + Path("g.txt") +
                              " --source 7 --k 8 --algo " + algo +
                              " --seed 5 --format tsv" + params;
    std::string loaded, fresh;
    ASSERT_EQ(Run(query + " --index " + idx, &loaded), 0) << algo;
    ASSERT_EQ(Run(query, &fresh), 0) << algo;
    const auto loaded_scores = ScoreTsvLines(loaded);
    EXPECT_FALSE(loaded_scores.empty()) << algo << "\n" << loaded;
    EXPECT_EQ(loaded_scores, ScoreTsvLines(fresh)) << algo;
  }
}

TEST_F(CliTest, QueryFormatTsvIsMachineReadable) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::string out;
  ASSERT_EQ(Run("query --graph " + Path("g.txt") +
                    " --source 2 --k 5 --format tsv",
                &out),
            0);
  EXPECT_NE(out.find("meta\talgo\tPRSim\n"), std::string::npos) << out;
  EXPECT_NE(out.find("meta\tquery_s\t"), std::string::npos);
  EXPECT_NE(out.find("meta\twalks\t"), std::string::npos);
  EXPECT_FALSE(ScoreTsvLines(out).empty()) << out;
  // Machine output only: no human progress lines on stdout.
  EXPECT_EQ(out.find("preprocessed in"), std::string::npos) << out;
  for (const auto& line : ScoreTsvLines(out)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), '\t'), 2) << line;
  }
}

TEST_F(CliTest, QueryFormatJsonIsMachineReadable) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::string out;
  ASSERT_EQ(Run("query --graph " + Path("g.txt") +
                    " --source 2 --k 5 --algo montecarlo "
                    "--params samples=50 --format json",
                &out),
            0);
  EXPECT_EQ(out.rfind("{\"algo\":\"MonteCarlo\"", 0), 0u) << out;
  EXPECT_NE(out.find("\"cost\":{"), std::string::npos);
  EXPECT_NE(out.find("\"scores\":["), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

TEST_F(CliTest, UnknownQueryFormatFails) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") + " --n 300 --degree 4"),
            0);
  EXPECT_EQ(Run("query --graph " + Path("g.txt") +
                " --source 0 --format xml"),
            2);
}

// The stale-index footgun, end to end: an index built with one eps (or for
// another graph of the same size) must be rejected at load time.
TEST_F(CliTest, MismatchedIndexArtifactsAreRejected) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 1"),
            0);
  ASSERT_EQ(Run("generate --out " + Path("h.txt") +
                " --model er --n 300 --degree 4 --seed 2"),
            0);
  ASSERT_EQ(Run("index --graph " + Path("g.txt") + " --out " + Path("g.idx") +
                " --eps 0.3"),
            0);
  // Same graph, different index-shaping option.
  EXPECT_EQ(Run("query --graph " + Path("g.txt") + " --index " +
                Path("g.idx") + " --source 0 --eps 0.2"),
            1);
  // Different graph with the same node count.
  EXPECT_EQ(Run("query --graph " + Path("h.txt") + " --index " +
                Path("g.idx") + " --source 0 --eps 0.3"),
            1);
  // Matching options on the matching graph still load.
  EXPECT_EQ(Run("query --graph " + Path("g.txt") + " --index " +
                Path("g.idx") + " --source 0 --eps 0.3"),
            0);
}

// The PRSim knobs that used to be unreachable from the CLI: --j0, --alpha,
// --rounds, --threads, --paper-constants on query (and --threads on index).
TEST_F(CliTest, PRSimKnobsAreReachable) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 400 --degree 5 --seed 6"),
            0);
  std::string out;
  EXPECT_EQ(Run("query --graph " + Path("g.txt") +
                    " --source 1 --k 3 --j0 4 --alpha 5 --rounds 3 "
                    "--threads 2 --seed 9",
                &out),
            0)
      << out;
  EXPECT_EQ(Run("query --graph " + Path("g.txt") +
                " --source 1 --k 3 --eps 0.4 --paper-constants"),
            0);
  EXPECT_EQ(Run("index --graph " + Path("g.txt") + " --out " + Path("g.idx") +
                " --eps 0.2 --threads 2"),
            0);
  // Dedicated flags override the same key inside --params.
  EXPECT_EQ(Run("query --graph " + Path("g.txt") +
                " --source 1 --k 3 --params eps=0.5 --eps 0.3"),
            0);
}

// --------------------------------------------------------------------------
// Batch query (--sources-file) and the stdin query loop (serve)
// --------------------------------------------------------------------------

TEST_F(CliTest, BatchQueryAnswersEverySourceAndReportsPercentiles) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::ofstream(Path("sources.txt")) << "# three queries\n1\n2\n17\n";
  std::string output;
  ASSERT_EQ(Run("query --graph " + Path("g.txt") +
                    " --algo prsim --eps 0.4 --seed 5 --k 3 --sources-file " +
                    Path("sources.txt"),
                &output),
            0)
      << output;
  EXPECT_NE(output.find("source 1:"), std::string::npos) << output;
  EXPECT_NE(output.find("source 17:"), std::string::npos);
  EXPECT_NE(output.find("batch: queries=3 invalid=0"), std::string::npos);
  EXPECT_NE(output.find("p99_ms="), std::string::npos);
}

TEST_F(CliTest, BatchQueryTsvEmitsPercentileMetaAndPerSourceScores) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::ofstream(Path("sources.txt")) << "4\n17\n";
  std::string output;
  ASSERT_EQ(Run("query --graph " + Path("g.txt") +
                    " --algo prsim --eps 0.4 --seed 5 --k 2 --format tsv "
                    "--sources-file " +
                    Path("sources.txt"),
                &output),
            0);
  EXPECT_NE(output.find("meta\tqueries\t2"), std::string::npos) << output;
  EXPECT_NE(output.find("meta\tp50_ms\t"), std::string::npos);
  EXPECT_NE(output.find("meta\tp99_ms\t"), std::string::npos);
  EXPECT_NE(output.find("score\t4\t"), std::string::npos);
  EXPECT_NE(output.find("score\t17\t"), std::string::npos);
}

// An invalid node id must fail that line alone: every valid line is still
// answered and the exit code (3) records the partial failure.
TEST_F(CliTest, BatchQueryInvalidNodeIdFailsPerLineNotTheWholeBatch) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::ofstream(Path("sources.txt")) << "1\n999999\nbogus\n2\n";
  std::string output;
  EXPECT_EQ(Run("query --graph " + Path("g.txt") +
                    " --algo prsim --eps 0.4 --seed 5 --k 3 --sources-file " +
                    Path("sources.txt"),
                &output),
            3);
  EXPECT_NE(output.find("source 1:"), std::string::npos) << output;
  EXPECT_NE(output.find("source 2:"), std::string::npos);
  EXPECT_NE(output.find("batch: queries=2 invalid=2"), std::string::npos);
}

TEST_F(CliTest, BatchQueryConflictsWithSingleSourceFlag) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::ofstream(Path("sources.txt")) << "1\n";
  EXPECT_EQ(Run("query --graph " + Path("g.txt") +
                " --source 1 --sources-file " + Path("sources.txt")),
            2);
}

TEST_F(CliTest, ServeAnswersStdinQueriesAndPrintsPercentiles) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::ofstream(Path("in.txt")) << "1\n2 5\n# comment\n\n7\n";
  std::string output;
  ASSERT_EQ(Run("serve --graph " + Path("g.txt") +
                    " --stdin --algo prsim --eps 0.4 --seed 5 --threads 2 < " +
                    Path("in.txt"),
                &output),
            0)
      << output;
  EXPECT_NE(output.find("result 1 "), std::string::npos) << output;
  EXPECT_NE(output.find("result 2 "), std::string::npos);
  EXPECT_NE(output.find("result 7 "), std::string::npos);
  EXPECT_NE(output.find("served queries=3 failed=0"), std::string::npos);
  EXPECT_NE(output.find("p99_ms="), std::string::npos);
}

// Same per-line contract for serve: bad lines are reported individually
// (exit 3), the loop keeps serving the rest.
TEST_F(CliTest, ServeInvalidNodeIdFailsPerLineNotTheLoop) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::ofstream(Path("in.txt")) << "1\n999999\nnot-a-node\n2\n";
  std::string output;
  EXPECT_EQ(Run("serve --graph " + Path("g.txt") +
                    " --stdin --algo prsim --eps 0.4 --seed 5 < " +
                    Path("in.txt"),
                &output),
            3);
  EXPECT_NE(output.find("result 1 "), std::string::npos) << output;
  EXPECT_NE(output.find("result 2 "), std::string::npos);
  EXPECT_NE(output.find("served queries=2"), std::string::npos);
}

// --threads sizes the serving pool for every engine, and reaches the engine
// config only of engines that take a `threads` key: READS and TSF do not,
// and must answer exactly as without the flag.
TEST_F(CliTest, ThreadsFlagWorksForEnginesWithoutAThreadsKey) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::ofstream(Path("in.txt")) << "1\n2\n3\n";
  const auto result_lines = [](const std::string& output) {
    std::vector<std::string> lines;
    std::istringstream stream(output);
    std::string line;
    while (std::getline(stream, line)) {
      if (line.rfind("result ", 0) == 0) lines.push_back(line);
    }
    return lines;
  };
  for (const std::string algo : {"reads", "tsf"}) {
    const std::string engine = " --algo " + algo + " --seed 5";
    const std::string serve =
        "serve --graph " + Path("g.txt") + " --stdin" + engine;
    std::string plain, threaded;
    ASSERT_EQ(Run(serve + " < " + Path("in.txt"), &plain), 0) << algo;
    ASSERT_EQ(Run(serve + " --threads 2 < " + Path("in.txt"), &threaded), 0)
        << algo;
    EXPECT_EQ(result_lines(plain).size(), 3u) << algo;
    EXPECT_EQ(result_lines(plain), result_lines(threaded)) << algo;

    const std::string query = "query --graph " + Path("g.txt") +
                              " --source 1 --k 10 --format tsv" + engine;
    ASSERT_EQ(Run(query, &plain), 0) << algo;
    ASSERT_EQ(Run(query + " --threads 2", &threaded), 0) << algo;
    EXPECT_FALSE(ScoreTsvLines(plain).empty()) << algo;
    EXPECT_EQ(ScoreTsvLines(plain), ScoreTsvLines(threaded)) << algo;
  }
}

TEST_F(CliTest, ServeRequiresStdinFlag) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  EXPECT_EQ(Run("serve --graph " + Path("g.txt")), 2);
}

TEST_F(CliTest, ServeDeterministicUnderSeedAndThreads) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::ofstream(Path("in.txt")) << "1\n2\n3\n4\n";
  const std::string serve_one = "serve --graph " + Path("g.txt") +
                                " --stdin --algo prsim --eps 0.4 --seed 5 "
                                "--threads 1 < " +
                                Path("in.txt");
  const std::string serve_two = "serve --graph " + Path("g.txt") +
                                " --stdin --algo prsim --eps 0.4 --seed 5 "
                                "--threads 3 < " +
                                Path("in.txt");
  std::string run1, run2;
  ASSERT_EQ(Run(serve_one, &run1), 0);
  ASSERT_EQ(Run(serve_two, &run2), 0);
  // Submission order fixes the positional seeds, so worker count must not
  // change any answer. Compare only the result lines (the summary line's
  // latencies differ run to run).
  std::vector<std::string> results1, results2;
  for (auto* results : {&results1, &results2}) {
    std::istringstream stream(results == &results1 ? run1 : run2);
    std::string line;
    while (std::getline(stream, line)) {
      if (line.rfind("result ", 0) == 0) results->push_back(line);
    }
  }
  EXPECT_EQ(results1.size(), 4u);
  EXPECT_EQ(results1, results2);
}

// ---------------------------------------------------------------------------
// Sharded serving: shard-build bundles + --manifest query/serve.
// ---------------------------------------------------------------------------

// The whole point of the shard layer: a 3-shard bundle answers exactly
// like the unsharded index-backed query path.
TEST_F(CliTest, ShardBuildThenQueryManifestMatchesUnsharded) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  const std::string params = " --algo prsim --eps 0.4 --seed 5";
  ASSERT_EQ(Run("index --graph " + Path("g.txt") + " --out " + Path("g.idx") +
                params),
            0);
  std::string unsharded;
  ASSERT_EQ(Run("query --graph " + Path("g.txt") + " --index " +
                    Path("g.idx") + " --source 11 --k 5" + params,
                &unsharded),
            0)
      << unsharded;

  std::string build;
  ASSERT_EQ(Run("shard-build --graph " + Path("g.txt") + " --out-dir " +
                    Path("bundle") + " --shards 3" + params,
                &build),
            0)
      << build;
  EXPECT_NE(build.find("shards=3"), std::string::npos) << build;
  std::string sharded;
  ASSERT_EQ(Run("query --manifest " + Path("bundle/manifest.bin") +
                    " --source 11 --k 5",
                &sharded),
            0)
      << sharded;
  ASSERT_FALSE(ScoreLines(unsharded).empty()) << unsharded;
  EXPECT_EQ(ScoreLines(sharded), ScoreLines(unsharded));
}

// A batch over a bundle is the plain engine batch over the bundle's
// artifacts: same positional seeds, same score rows.
TEST_F(CliTest, QueryManifestSourcesFileMatchesIndexBatch) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  const std::string params = " --algo prsim --eps 0.4 --seed 5";
  ASSERT_EQ(Run("index --graph " + Path("g.txt") + " --out " + Path("g.idx") +
                params),
            0);
  ASSERT_EQ(Run("shard-build --graph " + Path("g.txt") + " --out-dir " +
                Path("bundle") + " --shards 3" + params),
            0);
  std::ofstream(Path("sources.txt")) << "11\n0\n299\n11\n42\n";
  const std::string batch =
      " --k 5 --format tsv --sources-file " + Path("sources.txt");
  std::string unsharded, sharded;
  ASSERT_EQ(Run("query --graph " + Path("g.txt") + " --index " +
                    Path("g.idx") + params + batch,
                &unsharded),
            0)
      << unsharded;
  ASSERT_EQ(Run("query --manifest " + Path("bundle/manifest.bin") + batch,
                &sharded),
            0)
      << sharded;
  ASSERT_GE(ScoreTsvLines(unsharded).size(), 5u) << unsharded;
  EXPECT_EQ(ScoreTsvLines(sharded), ScoreTsvLines(unsharded));
}

// The manifest's graph fingerprint guards `query --manifest` too: a bundle
// whose graph.bin was swapped for another graph is refused, not answered.
TEST_F(CliTest, QueryManifestRejectsSwappedGraph) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  ASSERT_EQ(Run("shard-build --graph " + Path("g.txt") + " --out-dir " +
                Path("bundle") + " --shards 2 --algo prsim --eps 0.4"),
            0);
  ASSERT_EQ(Run("generate --out " + Path("bundle/graph.bin") +
                " --model er --n 300 --degree 4 --seed 4"),
            0);
  Spawned query = Spawn("query --manifest " + Path("bundle/manifest.bin") +
                        " --source 1");
  ASSERT_GT(query.pid, 0);
  EXPECT_EQ(CloseStdinAndWait(&query), 1);
  const std::string err = ReadFile(query.stderr_path);
  EXPECT_NE(err.find("does not match the manifest's graph fingerprint"),
            std::string::npos)
      << err;
}

TEST_F(CliTest, ManifestIsMutuallyExclusiveWithGraphFlags) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  ASSERT_EQ(Run("shard-build --graph " + Path("g.txt") + " --out-dir " +
                Path("bundle") + " --shards 2 --algo prsim --eps 0.4"),
            0);
  const std::string manifest = Path("bundle/manifest.bin");
  EXPECT_EQ(Run("query --manifest " + manifest + " --graph " + Path("g.txt") +
                " --source 1"),
            2);
  EXPECT_EQ(Run("query --manifest " + manifest + " --algo prsim --source 1"),
            2);
  // The manifest records the engine flags too; only --threads may be set.
  EXPECT_EQ(Run("query --manifest " + manifest + " --seed 7 --source 1"), 2);
  EXPECT_EQ(Run("serve --manifest " + manifest + " --eps 0.2 --stdin"), 2);
  EXPECT_EQ(Run("query --manifest " + manifest + " --threads 2 --source 1"),
            0);
  EXPECT_EQ(Run("serve --manifest " + manifest + " --graph " + Path("g.txt") +
                " --stdin"),
            2);
  EXPECT_EQ(Run("query --source 1"), 2);  // neither --graph nor --manifest
}

// serve --manifest must answer the same request stream identically to the
// unsharded serve loop — including a final line with no trailing newline.
TEST_F(CliTest, ServeManifestMatchesUnshardedServe) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  const std::string params = " --algo prsim --eps 0.4 --seed 5";
  ASSERT_EQ(Run("shard-build --graph " + Path("g.txt") + " --out-dir " +
                Path("bundle") + " --shards 3" + params),
            0);
  // Deliberately no trailing newline after the last request.
  std::ofstream(Path("in.txt")) << "1\n2 5\n7";
  std::string unsharded, sharded;
  ASSERT_EQ(Run("serve --graph " + Path("g.txt") + " --stdin" + params +
                    " < " + Path("in.txt"),
                &unsharded),
            0)
      << unsharded;
  ASSERT_EQ(Run("serve --manifest " + Path("bundle/manifest.bin") +
                    " --stdin --threads 2 < " + Path("in.txt"),
                &sharded),
            0)
      << sharded;
  std::vector<std::string> results_unsharded, results_sharded;
  for (auto [results, output] :
       {std::pair{&results_unsharded, &unsharded},
        std::pair{&results_sharded, &sharded}}) {
    std::istringstream stream(*output);
    std::string line;
    while (std::getline(stream, line)) {
      if (line.rfind("result ", 0) == 0) results->push_back(line);
    }
  }
  ASSERT_EQ(results_unsharded.size(), 3u) << unsharded;  // "7" was answered
  EXPECT_EQ(results_sharded, results_unsharded);
  EXPECT_NE(sharded.find("served queries=3 failed=0"), std::string::npos)
      << sharded;
}

// ---------------------------------------------------------------------------
// TCP serving: serve --listen + the binary `client` command, including
// graceful signal shutdown of both serve transports.
// ---------------------------------------------------------------------------

TEST_F(CliTest, ServeDemandsExactlyOneTransport) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  EXPECT_EQ(Run("serve --graph " + Path("g.txt") + " --stdin --listen 0"), 2);
  EXPECT_EQ(Run("client --source 1"), 2);  // client requires --port
}

TEST_F(CliTest, ServeListenClientMatchesOfflineQueryBitForBit) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  const std::string params = " --algo prsim --eps 0.4 --seed 5";
  std::string offline;
  ASSERT_EQ(Run("query --graph " + Path("g.txt") +
                    " --source 11 --k 6 --format tsv" + params,
                &offline),
            0)
      << offline;
  ASSERT_FALSE(ScoreTsvLines(offline).empty()) << offline;

  Spawned server = Spawn("serve --graph " + Path("g.txt") +
                         " --listen 0 --threads 2" + params);
  ASSERT_GT(server.pid, 0);
  const uint32_t port = WaitForListenPort(server);
  ASSERT_NE(port, 0u) << ReadFile(server.stderr_path);

  // --fresh reseeds from the configured seed exactly like a cold offline
  // query, so the %.17g score rows must agree to the last digit — and keep
  // agreeing on a second connection.
  const std::string request = "client --port " + std::to_string(port) +
                              " --source 11 --k 6 --fresh --format tsv";
  for (int round = 0; round < 2; ++round) {
    std::string online;
    ASSERT_EQ(Run(request, &online), 0) << online;
    EXPECT_EQ(ScoreTsvLines(online), ScoreTsvLines(offline)) << online;
  }

  EXPECT_EQ(SignalAndWait(&server, SIGTERM), 0) << ReadFile(server.stderr_path);
  const std::string err = ReadFile(server.stderr_path);
  EXPECT_NE(err.find("\"event\":\"serve_stats\""), std::string::npos) << err;
  EXPECT_NE(err.find("\"transport\":\"tcp\""), std::string::npos);
  EXPECT_NE(err.find("connections=2 requests=2"), std::string::npos) << err;
  const std::string out = ReadFile(server.stdout_path);
  EXPECT_NE(out.find("served queries=2 failed=0"), std::string::npos) << out;
}

TEST_F(CliTest, CacheMbAndCountFlagValidation) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  // Negative budgets are malformed uint64s: refused before any serving.
  EXPECT_EQ(Run("serve --graph " + Path("g.txt") +
                " --stdin --algo prsim --cache-mb -1"),
            2);
  // 2^44 MiB is 2^64 bytes: the budget would wrap to 0 and silently turn
  // the cache off. Refused before any serving, even with nothing to serve
  // on stdin.
  EXPECT_EQ(Run("serve --graph " + Path("g.txt") +
                " --stdin --algo prsim --cache-mb 17592186044416 < /dev/null"),
            2);
  // The largest budget that fits is accepted.
  EXPECT_EQ(Run("serve --graph " + Path("g.txt") +
                " --stdin --algo prsim --cache-mb 17592186044415 < /dev/null"),
            0);
  // `query` has no result cache: a batch is positional, so never
  // cacheable, and a one-shot has nothing to hit. The flag is unknown.
  EXPECT_EQ(
      Run("query --graph " + Path("g.txt") + " --source 1 --cache-mb 64"), 2);
  // The pipelined client bounds --count to its dispatch-window-safe range.
  EXPECT_EQ(Run("client --port 1 --source 1 --count 0"), 2);
  EXPECT_EQ(Run("client --port 1 --source 1 --count 1001"), 2);
  EXPECT_EQ(Run("client --port 1 --source 1 --count -3"), 2);
}

TEST_F(CliTest, CachedServePipelinesIdenticalFreshRepliesOverOneConnection) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  const std::string params = " --algo prsim --eps 0.4 --seed 5";
  std::string offline;
  ASSERT_EQ(Run("query --graph " + Path("g.txt") +
                    " --source 11 --k 6 --format tsv" + params,
                &offline),
            0)
      << offline;
  ASSERT_FALSE(ScoreTsvLines(offline).empty()) << offline;

  Spawned server = Spawn("serve --graph " + Path("g.txt") +
                         " --listen 0 --threads 2 --cache-mb 64" + params);
  ASSERT_GT(server.pid, 0);
  const uint32_t port = WaitForListenPort(server);
  ASSERT_NE(port, 0u) << ReadFile(server.stderr_path);

  // Five pipelined copies of one --fresh request: the client itself
  // verifies every response is byte-identical to the first (cold miss,
  // then cache hits), and the scores must equal the offline answer.
  std::string online;
  ASSERT_EQ(Run("client --port " + std::to_string(port) +
                    " --source 11 --k 6 --fresh --count 5 --format tsv",
                &online),
            0)
      << online;
  EXPECT_EQ(ScoreTsvLines(online), ScoreTsvLines(offline)) << online;
  EXPECT_NE(online.find("meta\tcount\t5\n"), std::string::npos) << online;
  EXPECT_NE(online.find("meta\ttotal_s\t"), std::string::npos) << online;
  size_t rtt_rows = 0;
  std::istringstream stream(online);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.rfind("rtt\t", 0) == 0) ++rtt_rows;
  }
  EXPECT_EQ(rtt_rows, 5u) << online;

  // The single-shot output shape is unchanged by the pipelining feature.
  std::string single;
  ASSERT_EQ(Run("client --port " + std::to_string(port) +
                    " --source 11 --k 6 --fresh --format tsv",
                &single),
            0)
      << single;
  EXPECT_EQ(ScoreTsvLines(single), ScoreTsvLines(offline)) << single;
  EXPECT_EQ(single.find("meta\tcount"), std::string::npos) << single;
  EXPECT_EQ(single.find("rtt\t"), std::string::npos) << single;

  EXPECT_EQ(SignalAndWait(&server, SIGTERM), 0) << ReadFile(server.stderr_path);
  // Six identical fresh requests through one cache: singleflight and the
  // hit path guarantee exactly one miss, visible in the exit stats line.
  const std::string err = ReadFile(server.stderr_path);
  EXPECT_NE(err.find("\"cache_misses\":1"), std::string::npos) << err;
  EXPECT_EQ(err.find("\"cache_hits\":0,"), std::string::npos) << err;
}

TEST_F(CliTest, ServeListenManifestServesShardedAnswers) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  const std::string params = " --algo prsim --eps 0.4 --seed 5";
  ASSERT_EQ(Run("shard-build --graph " + Path("g.txt") + " --out-dir " +
                Path("bundle") + " --shards 3" + params),
            0);
  std::string offline;
  ASSERT_EQ(Run("query --manifest " + Path("bundle/manifest.bin") +
                    " --source 11 --k 6 --format tsv",
                &offline),
            0)
      << offline;
  ASSERT_FALSE(ScoreTsvLines(offline).empty()) << offline;

  Spawned server =
      Spawn("serve --manifest " + Path("bundle/manifest.bin") + " --listen 0");
  ASSERT_GT(server.pid, 0);
  const uint32_t port = WaitForListenPort(server);
  ASSERT_NE(port, 0u) << ReadFile(server.stderr_path);
  std::string online;
  ASSERT_EQ(Run("client --port " + std::to_string(port) +
                    " --source 11 --k 6 --fresh --format tsv",
                &online),
            0)
      << online;
  EXPECT_EQ(ScoreTsvLines(online), ScoreTsvLines(offline)) << online;
  EXPECT_EQ(SignalAndWait(&server, SIGTERM), 0) << ReadFile(server.stderr_path);
}

TEST_F(CliTest, ServeStdinExitsCleanlyOnSigint) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  Spawned server = Spawn("serve --graph " + Path("g.txt") +
                         " --stdin --algo prsim --eps 0.4 --seed 5");
  ASSERT_GT(server.pid, 0);
  // Serve one request first so the shutdown path has stats to report; the
  // pipe stays open, so without the signal the loop would block forever.
  ASSERT_EQ(::write(server.stdin_fd, "1\n", 2), 2);
  ASSERT_TRUE(WaitForOutput(server.stdout_path, "result 1 "))
      << ReadFile(server.stdout_path) << ReadFile(server.stderr_path);
  EXPECT_EQ(SignalAndWait(&server, SIGINT), 0) << ReadFile(server.stderr_path);
  const std::string out = ReadFile(server.stdout_path);
  EXPECT_NE(out.find("served queries=1 failed=0"), std::string::npos) << out;
  const std::string err = ReadFile(server.stderr_path);
  EXPECT_NE(err.find("\"event\":\"serve_stats\""), std::string::npos) << err;
  EXPECT_NE(err.find("\"transport\":\"stdin\""), std::string::npos);
}

// Chaos smoke: the same --faults spec and --fault-seed replay the same
// failures, and every request the injector spares is answered bit-for-bit
// identically to a fault-free run — the contract the CI chaos job diffs.
TEST_F(CliTest, ServeStdinFaultInjectionReplaysDeterministically) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 300 --degree 4 --seed 3"),
            0);
  std::string requests;
  for (int source = 1; source <= 24; ++source) {
    requests += std::to_string(source) + "\n";
  }
  const std::string serve = "serve --graph " + Path("g.txt") +
                            " --stdin --threads 1 --algo prsim --eps 0.4"
                            " --seed 5";

  struct ServeRun {
    int exit_code = -1;
    std::string out;
    std::string err;
  };
  auto run_serve = [&](const std::string& extra) {
    Spawned proc = Spawn(serve + extra);
    EXPECT_GT(proc.pid, 0);
    EXPECT_EQ(::write(proc.stdin_fd, requests.data(), requests.size()),
              static_cast<ssize_t>(requests.size()));
    ServeRun run;
    run.exit_code = CloseStdinAndWait(&proc);
    run.out = ReadFile(proc.stdout_path);
    run.err = ReadFile(proc.stderr_path);
    return run;
  };
  auto result_lines = [](const std::string& out) {
    std::vector<std::string> lines;
    std::istringstream stream(out);
    std::string line;
    while (std::getline(stream, line)) {
      if (line.rfind("result ", 0) == 0) lines.push_back(line);
    }
    return lines;
  };
  // The exit summary's counts are deterministic; its latency percentiles
  // are not. Strip the line down to the counts before comparing.
  auto served_counts = [](const std::string& out) {
    const auto pos = out.find("served queries=");
    if (pos == std::string::npos) return std::string();
    return out.substr(pos, out.find(" p50_ms=", pos) - pos);
  };
  auto fault_stats_line = [](const std::string& err) {
    std::istringstream stream(err);
    std::string line;
    while (std::getline(stream, line)) {
      if (line.find("\"event\":\"fault_stats\"") != std::string::npos) {
        return line;
      }
    }
    return std::string();
  };

  const std::string faults =
      " --faults engine.query.throw=1/3 --fault-seed 11";
  const ServeRun clean = run_serve("");
  const ServeRun first = run_serve(faults);
  const ServeRun second = run_serve(faults);

  // The fault-free baseline answers all 24 lines and reports no faults.
  ASSERT_EQ(clean.exit_code, 0) << clean.err;
  const std::vector<std::string> clean_results = result_lines(clean.out);
  ASSERT_EQ(clean_results.size(), 24u) << clean.out;
  EXPECT_TRUE(fault_stats_line(clean.err).empty()) << clean.err;

  // 1/3 over 24 sequential requests fires at least once and spares at
  // least one; failed lines surface in the exit code (3) and on stderr.
  EXPECT_EQ(first.exit_code, 3) << first.err;
  EXPECT_NE(first.err.find("injected fault: engine.query.throw"),
            std::string::npos)
      << first.err;
  const std::vector<std::string> survivors = result_lines(first.out);
  EXPECT_FALSE(survivors.empty()) << first.out;
  EXPECT_LT(survivors.size(), 24u) << first.out;

  // Replay determinism: identical replies, counts, exit code and
  // fault_stats (latency percentiles in the summary are wall-clock, so
  // they are the one part of the output not compared).
  EXPECT_EQ(second.exit_code, first.exit_code);
  EXPECT_EQ(result_lines(second.out), survivors);
  EXPECT_EQ(served_counts(second.out), served_counts(first.out));
  EXPECT_NE(served_counts(first.out).find("failed="), std::string::npos)
      << first.out;
  const std::string stats = fault_stats_line(first.err);
  ASSERT_FALSE(stats.empty()) << first.err;
  EXPECT_EQ(fault_stats_line(second.err), stats);

  // Every surviving reply is bit-identical to the fault-free run's answer:
  // failed requests consumed their positional seed at admission, so the
  // survivors' seeds — and scores — never shift.
  for (const std::string& line : survivors) {
    EXPECT_NE(std::find(clean_results.begin(), clean_results.end(), line),
              clean_results.end())
        << line;
  }

  // Malformed specs are refused before any serving starts.
  EXPECT_EQ(Run(serve + " --faults bogus"), 2);
}

TEST_F(CliTest, ShardBuildRequiresGraphAndOutDir) {
  EXPECT_EQ(Run("shard-build --out-dir " + Path("bundle")), 2);
  EXPECT_EQ(Run("shard-build --graph " + Path("g.txt")), 2);
  EXPECT_EQ(Run("shard-build --graph " + Path("g.txt") + " --out-dir " +
                Path("bundle") + " --shards 0"),
            2);
}

// --params routes engine knobs and the dedicated flags still win; the same
// (seed, params) setting must reproduce the same top-k.
TEST_F(CliTest, AlgoQueryDeterministicUnderSeed) {
  ASSERT_EQ(Run("generate --out " + Path("g.txt") +
                " --model er --n 400 --degree 5 --seed 8"),
            0);
  const std::string query = "query --graph " + Path("g.txt") +
                            " --source 3 --k 8 --algo probesim --seed 321";
  std::string run1, run2;
  ASSERT_EQ(Run(query, &run1), 0);
  ASSERT_EQ(Run(query, &run2), 0);
  EXPECT_FALSE(ScoreLines(run1).empty()) << run1;
  EXPECT_EQ(ScoreLines(run1), ScoreLines(run2));
}

}  // namespace
}  // namespace prsim
