// perfbench ROLE --flag value ...
//
// Roles (each runs in a process of its own, started by run.py):
//   info   build type and hardware threads of this binary
//   prep   generate the workload graph, build and save the artifacts
//   serve  load the artifacts and serve them over TCP until stdin closes
//   load   open-loop load generator against a running `serve`
//   batch  the offline batch workload (build, save, reload, batch, accuracy)
//   accuracy  PRSim against the exact power method on a small graph
// Every role takes --cpus LIST (comma-separated CPU ids): the process and
// every thread it starts run only there.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench info|prep|serve|load|batch|accuracy ...\n");
    return 2;
  }
  const std::string role = argv[1];
  if (role == "info") {
    perfbench::EmitLine(
        perfbench::Json()
            .Str("build_type", PERFBENCH_BUILD_TYPE)
            .Int("hardware_threads", std::thread::hardware_concurrency())
            .Done());
    return 0;
  }
  // Timings from an unoptimized build say nothing about the program.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to run a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  perfbench::Flags flags;
  if (!flags.Parse(argc, argv, 2)) return 2;
  if (flags.Has("cpus")) {
    cpu_set_t set;
    CPU_ZERO(&set);
    const std::string list = flags.Str("cpus", "");
    for (size_t at = 0; at < list.size();) {
      const size_t comma = std::min(list.find(',', at), list.size());
      CPU_SET(std::atoi(list.substr(at, comma - at).c_str()), &set);
      at = comma + 1;
    }
    if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
      std::perror("perfbench: sched_setaffinity");
      return 2;
    }
  }
  if (role == "prep") return perfbench::RunPrep(flags);
  if (role == "serve") return perfbench::RunServe(flags);
  if (role == "load") return perfbench::RunLoad(flags);
  if (role == "batch") return perfbench::RunBatch(flags);
  if (role == "accuracy") return perfbench::RunAccuracy(flags);
  std::fprintf(stderr, "perfbench: unknown role '%s'\n", role.c_str());
  return 2;
}
