// Shared pieces of the benchmark harness: command-line options, the run
// outcome every workload fills, order statistics, peak-RSS probes, an
// in-memory span log for traced runs, and the provenance env block.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

#include "graph/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";  ///< logs, spans, sockets
  /// Self-test hooks (see selftest.py); never set by a normal run.
  double inject_delay = 0.0;     ///< extra sleep per pass, as a share of it
  bool inject_extra_bfs = false; ///< one extra BFS inside the counted pass
};

/// What a run reports: the correctness verdict, operation accounting, and
/// every metric it measured by name. Metric units live in BENCHMARK.json.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;

  /// Record a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what);
  std::string to_json() const;
};

/// Median of `v` (mean of the two middle values for even sizes).
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set (VmHWM) of this process / of `pid`, in MiB.
double self_peak_rss_mb();
double peak_rss_mb_of(pid_t pid);

/// Deterministic 64-bit mix, for deriving per-purpose seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// min(k, n) distinct nodes of [0, n) drawn from `seed`, ascending.
std::vector<brics::NodeId> pick_probes(brics::NodeId n, std::size_t k,
                                       std::uint64_t seed);

/// Spans recorded in memory by a traced run: name, start, end, parent.
/// Written out once, when the run ends.
class SpanLog {
 public:
  /// Span times are reported relative to `origin`, so logs kept by
  /// different threads share one time axis.
  explicit SpanLog(Clock::time_point origin = Clock::now());
  int begin(std::string name, int parent = -1);
  void end(int id);
  double seconds(int id) const;
  std::size_t size() const { return spans_.size(); }
  /// [{"id":..,"name":..,"parent":..,"start_s":..,"end_s":..}, ...]
  std::string to_json_array() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start{};
    Clock::time_point end{};
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Provenance: the BenchArtifact env fields (git sha, compiler, CPU model,
/// hardware threads) plus nproc and the last-level cache size.
std::string env_json(const std::string& artifact_json);

void write_text_file(const std::string& path, const std::string& text);

}  // namespace perfbench
