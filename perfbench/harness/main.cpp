// perfbench — the BRICS benchmark harness (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--inject-delay F] [--inject-extra-bfs]
//   perfbench --describe
//
// Runs one workload and prints its outcome as the last stdout line:
//   PERFBENCH_RESULT {"correct":..,"attempted":..,"failed":..,
//                     "metrics":{..},"problems":[..]}
// run.py turns that into the benchmark's result line. --inject-delay and
// --inject-extra-bfs exist only for selftest.py.
//
// Exit codes: 0 ran (checks may still have failed: see "correct"),
// 2 usage, 3 the run could not complete.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "harness/workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       perfbench --describe\n");
  return 2;
}

/// brics_serve is built next to this executable.
std::string serve_binary() {
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  return (self.parent_path() / "brics_serve").string();
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::Args args;
  bool describe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--describe") {
      describe = true;
    } else if (arg == "--inject-extra-bfs") {
      args.inject_extra_bfs = true;
    } else if (v == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      args.workload = v, ++i;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(v, nullptr), ++i;
    } else if (arg == "--trace") {
      args.trace = std::string(v) == "1", ++i;
    } else if (arg == "--out-dir") {
      args.out_dir = v, ++i;
    } else if (arg == "--inject-delay") {
      args.inject_delay = std::strtod(v, nullptr), ++i;
    } else {
      return usage();
    }
  }
  try {
    if (describe) {
      perfbench::describe_batch();
      perfbench::describe_daemon();
      return 0;
    }
    if (args.seconds <= 0.0) return usage();
    std::filesystem::create_directories(args.out_dir);
    perfbench::Outcome out;
    if (perfbench::is_batch_workload(args.workload)) {
      out = perfbench::run_batch(args);
    } else if (perfbench::is_daemon_workload(args.workload)) {
      out = perfbench::run_daemon(args, serve_binary());
    } else {
      return usage();
    }
    std::fflush(stdout);
    std::printf("PERFBENCH_RESULT %s\n", out.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
