// daemon-mix: brics_serve on soc-pref-a, driven by this process over three
// connections.
//
//   writer   open loop: one one-edge update (with want_report) every
//            kUpdateIntervalMs, each timed from its due time, so a stall
//            behind the engine's unique lock is charged to every update
//            it delays
//   readers  kReaders closed loops of single-node farness queries, back
//            to back
//
// The scale is chosen so one re-estimate takes a small fraction of the
// update interval. Set-up is graph build + server start + the initial
// estimate, timed from spawn to the first hello reply.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <stop_token>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_common.hpp"
#include "brics/brics.hpp"
#include "harness/workloads.hpp"
#include "obs/json.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace brics;

constexpr const char* kWorkload = "daemon-mix";
constexpr const char* kGraph = "soc-pref-a";
constexpr double kScale = 0.25;
constexpr double kRate = 0.2;
constexpr int kServerThreads = 4;
constexpr int kWorkers = 2;
constexpr int kUpdateIntervalMs = 500;
constexpr int kReaders = 2;
constexpr int kSetupReps = 5;
// A reply slower than this is a hung request.
constexpr int kRecvTimeoutMs = 20000;
// Traced runs keep at most this many read spans per reader.
constexpr std::size_t kMaxReadSpans = 20000;

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = kRecvTimeoutMs / 1000;
  tv.tv_usec = (kRecvTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One request/reply exchange; throws InputError on transport failure
/// (including a receive timeout).
Reply roundtrip(int fd, const Request& req) {
  write_frame(fd, encode_request(req));
  auto frame = read_frame(fd);
  if (!frame) throw InputError("connection closed by server");
  return decode_reply(*frame);
}

/// One brics_serve process: spawned in the constructor, SIGTERM-drained
/// and reaped by stop() or the destructor.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& socket,
         const std::string& log, std::uint64_t seed)
      : socket_(socket) {
    const std::string scale = std::to_string(kScale);
    const std::string rate = std::to_string(kRate);
    const std::string seed_s = std::to_string(seed);
    const std::string workers = std::to_string(kWorkers);
    const std::string graph = std::string("@") + kGraph;
    std::vector<std::string> argv_s = {
        bin, graph, "--socket", socket, "--scale", scale, "--rate", rate,
        "--seed", seed_s, "--workers", workers, "--flight-out", "none"};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    // Idle OpenMP workers sleep instead of spinning, so between
    // re-estimates the daemon's thread pool does not compete with the
    // threads serving reads.
    std::vector<std::string> env_s = {
        "OMP_NUM_THREADS=" + std::to_string(kServerThreads),
        "OMP_WAIT_POLICY=passive"};
    for (char** e = environ; *e != nullptr; ++e)
      if (std::strncmp(*e, "OMP_", 4) != 0) env_s.emplace_back(*e);
    std::vector<char*> envp;
    for (std::string& e : env_s) envp.push_back(e.data());
    envp.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    spawned_ = Clock::now();
    const int rc =
        ::posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(),
                      envp.data());
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + bin + ": " +
                               std::strerror(rc));
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  /// Seconds from spawn until the socket answers a hello; fills `hello`.
  double wait_ready(Reply& hello) {
    for (;;) {
      if (seconds_between(spawned_, Clock::now()) > 120.0)
        throw std::runtime_error("brics_serve not ready after 120 s");
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("brics_serve exited before ready");
      }
      const int fd = connect_unix(socket_);
      if (fd >= 0) {
        Request req;
        req.type = MsgType::kHello;
        hello = roundtrip(fd, req);
        ::close(fd);
        return seconds_between(spawned_, Clock::now());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  /// Graceful drain (SIGTERM), SIGKILL after 30 s; always reaps. Returns
  /// true when the daemon exited 0.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_between(t0, Clock::now()) > 30.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  Clock::time_point spawned_;
};

/// What one client connection observed.
struct Lane {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< non-ok, dropped or hung
  std::uint64_t mismatched = 0;  ///< reply did not answer the request
  std::vector<double> latency_ms;
  std::vector<double> done_s;        ///< reader: completion, s after start
  std::vector<double> lag_ms;        ///< writer: send time - due time
  std::vector<double> reduce_s;      ///< writer: report phases.reduce_s
  std::vector<double> traverse_s;    ///< writer: report phases.traverse_s
  std::vector<Edge> committed;       ///< writer: edges the daemon applied
  std::uint64_t last_version = 0;    ///< writer: version of the last commit
  std::unique_ptr<SpanLog> log;
};

void reader_loop(std::stop_token stop, int idx, const std::string& sock,
                 NodeId n, std::uint64_t seed, Clock::time_point start,
                 bool trace, Lane& lane) {
  int fd = connect_unix(sock);
  const int conn = trace ? lane.log->begin("reader " + std::to_string(idx))
                         : -1;
  Rng rng(seed);
  std::uint32_t id = static_cast<std::uint32_t>(idx + 1) << 24;
  while (fd >= 0 && !stop.stop_requested()) {
    Request req;
    req.type = MsgType::kFarness;
    req.request_id = ++id;
    req.nodes.push_back(static_cast<NodeId>(rng.below(n)));
    ++lane.attempted;
    const bool span = trace && lane.log->size() < kMaxReadSpans;
    const int sp = span ? lane.log->begin("read", conn) : -1;
    const auto t0 = Clock::now();
    try {
      const Reply rep = roundtrip(fd, req);
      const auto t1 = Clock::now();
      lane.latency_ms.push_back(1e3 * seconds_between(t0, t1));
      lane.done_s.push_back(seconds_between(start, t1));
      if (span) lane.log->end(sp);
      if (rep.request_id != req.request_id || rep.type != req.type ||
          (rep.status == ReplyStatus::kOk &&
           (rep.entries.size() != 1 || rep.entries[0].node != req.nodes[0])))
        ++lane.mismatched;
      if (rep.status != ReplyStatus::kOk) ++lane.failed;
    } catch (const std::exception&) {
      if (span) lane.log->end(sp);
      ++lane.failed;  // dropped connection or receive timeout
      ::close(fd);
      fd = connect_unix(sock);
    }
  }
  if (trace) lane.log->end(conn);
  if (fd >= 0) ::close(fd);
}

void writer_loop(const std::string& sock, const CsrGraph& base,
                 std::uint64_t version, std::uint64_t seed,
                 Clock::time_point start, double seconds, bool trace,
                 Lane& lane) {
  int fd = connect_unix(sock);
  const int conn = trace ? lane.log->begin("writer") : -1;
  Rng rng(seed);
  const NodeId n = base.num_nodes();
  std::set<std::pair<NodeId, NodeId>> added;
  lane.last_version = version;
  std::uint32_t id = 0;
  for (int k = 0; fd >= 0; ++k) {
    const auto due = start + std::chrono::milliseconds(
                                 static_cast<std::int64_t>(k) *
                                 kUpdateIntervalMs);
    if (seconds_between(start, due) >= seconds) break;
    std::this_thread::sleep_until(due);
    lane.lag_ms.push_back(1e3 * seconds_between(due, Clock::now()));
    Edge e;
    for (;;) {
      e.u = static_cast<NodeId>(rng.below(n));
      e.v = static_cast<NodeId>(rng.below(n));
      if (e.u == e.v || base.has_edge(e.u, e.v)) continue;
      if (added.count(std::minmax(e.u, e.v)) == 0) break;
    }
    Request req;
    req.type = MsgType::kUpdate;
    req.request_id = ++id;
    req.want_report = true;
    req.edges.push_back(e);
    ++lane.attempted;
    const int sp = trace ? lane.log->begin("update", conn) : -1;
    try {
      const Reply rep = roundtrip(fd, req);
      const double ms = 1e3 * seconds_between(due, Clock::now());
      if (trace) lane.log->end(sp);
      if (rep.request_id != req.request_id || rep.type != req.type)
        ++lane.mismatched;
      if (rep.status != ReplyStatus::kOk || rep.applied != 1) {
        ++lane.failed;
        continue;
      }
      if (rep.version != lane.last_version + 1) ++lane.mismatched;
      lane.last_version = rep.version;
      added.insert(std::minmax(e.u, e.v));
      lane.committed.push_back(e);
      lane.latency_ms.push_back(ms);
      JsonValue report;
      const JsonValue* phases = nullptr;
      if (json_parse(rep.report_json, report)) phases = report.get("phases");
      const JsonValue* r = phases != nullptr ? phases->get("reduce_s") : nullptr;
      const JsonValue* t =
          phases != nullptr ? phases->get("traverse_s") : nullptr;
      if (r == nullptr || t == nullptr || !r->is_number() || !t->is_number()) {
        ++lane.mismatched;
        continue;
      }
      lane.reduce_s.push_back(r->num_v);
      lane.traverse_s.push_back(t->num_v);
    } catch (const std::exception&) {
      if (trace) lane.log->end(sp);
      ++lane.failed;
      ::close(fd);
      fd = connect_unix(sock);
    }
  }
  if (trace) lane.log->end(conn);
  if (fd >= 0) ::close(fd);
}

/// Number at obj[k1][k2]... or -1 when the path is missing.
double json_number(const JsonValue& root,
                   std::initializer_list<const char*> path) {
  const JsonValue* v = &root;
  for (const char* k : path) {
    v = v->get(k);
    if (v == nullptr) return -1.0;
  }
  return v->is_number() ? v->num_v : -1.0;
}

}  // namespace

bool is_daemon_workload(const std::string& name) { return name == kWorkload; }

Outcome run_daemon(const Args& args, const std::string& serve_bin) {
  Outcome out;
  const std::string sock =
      args.out_dir + "/daemon-" + std::to_string(::getpid()) + ".sock";
  const std::string log = args.out_dir + "/daemon.log";

  // Set-up, kSetupReps times; the last daemon serves the mix.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  Reply hello;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon) out.check(daemon->stop(), "brics_serve did not drain cleanly");
    daemon = std::make_unique<Daemon>(serve_bin, sock, log, args.seed);
    setups.push_back(daemon->wait_ready(hello));
  }
  const CsrGraph base = build_dataset(kGraph, kScale);
  out.check(hello.nodes == base.num_nodes() && hello.edges == base.num_edges(),
            "daemon graph shape differs from the registry graph");
  const NodeId n = base.num_nodes();

  std::vector<Lane> lanes(kReaders + 1);
  const Clock::time_point origin = Clock::now();
  if (args.trace)
    for (Lane& l : lanes) l.log = std::make_unique<SpanLog>(origin);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  {
    // jthread: the readers are stopped and joined on every path out.
    std::vector<std::jthread> readers;
    for (int r = 0; r < kReaders; ++r)
      readers.emplace_back(reader_loop, r, std::cref(sock), n,
                           mix_seed(args.seed, 10 + r), start, args.trace,
                           std::ref(lanes[r + 1]));
    writer_loop(sock, base, hello.version, mix_seed(args.seed, 1), start,
                args.seconds, args.trace, lanes[0]);
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(args.seconds));
  }
  const double mix_s = seconds_between(start, Clock::now());
  Lane& writer = lanes[0];

  // Final answers for every node on the last committed version, against
  // one BFS per node on the same graph.
  GraphBuilder gb(n);
  for (const Edge& e : base.edge_list()) gb.add_edge(e.u, e.v, e.w);
  for (const Edge& e : writer.committed) gb.add_edge(e.u, e.v, e.w);
  const std::vector<FarnessSum> oracle = exact_farness(gb.build());
  double rel_sum = 0.0;
  std::size_t rel_count = 0;
  {
    const int fd = connect_unix(sock);
    Request req;
    req.type = MsgType::kFarness;
    req.request_id = 0x7fffffff;
    ++out.attempted;
    try {
      if (fd < 0) throw InputError("cannot connect");
      const Reply rep = roundtrip(fd, req);
      out.check(rep.request_id == req.request_id,
                "probe reply does not echo its request id");
      out.check(rep.version == writer.last_version,
                "probe reply is not on the last committed version");
      if (rep.status != ReplyStatus::kOk) ++out.failed;
      out.check(rep.entries.size() == n,
                "probe reply has the wrong number of entries");
      for (std::size_t i = 0; i < rep.entries.size(); ++i) {
        const FarnessEntry& e = rep.entries[i];
        out.check(e.node == i, "probe reply out of order");
        const double exact = static_cast<double>(oracle[e.node]);
        if (e.exact)
          out.check(e.value == exact,
                    "exact-flagged farness of node " + std::to_string(e.node) +
                        " differs from BFS on the final graph");
        rel_sum += std::abs(e.value / exact - 1.0);
        ++rel_count;
      }
    } catch (const std::exception& ex) {
      ++out.failed;
      out.check(false, std::string("probe query failed: ") + ex.what());
    }
    if (fd >= 0) ::close(fd);
  }

  if (args.trace) {
    const int fd = connect_unix(sock);
    Request req;
    req.type = MsgType::kMetrics;
    req.request_id = 0x7ffffffe;
    JsonValue doc;
    try {
      if (fd < 0) throw InputError("cannot connect");
      const Reply rep = roundtrip(fd, req);
      out.check(rep.status == ReplyStatus::kOk &&
                    json_parse(rep.metrics_json, doc),
                "metrics reply missing or unparsable");
    } catch (const std::exception& ex) {
      out.check(false, std::string("metrics query failed: ") + ex.what());
    }
    if (fd >= 0) ::close(fd);
    auto& m = out.metrics;
    m["server.queue_wait_ms_p99"] =
        json_number(doc, {"quantiles", "server.queue_wait_us", "p99_us"}) /
        1e3;
    m["server.execute_ms_p50"] =
        json_number(doc, {"quantiles", "server.execute_us", "p50_us"}) / 1e3;
    m["server.shed"] = json_number(doc, {"server", "shed"});
    m["update.reduce_s"] = median(writer.reduce_s);
    m["update.traverse_s"] = median(writer.traverse_s);
    m["daemon.writer_lag_ms"] = quantile(writer.lag_ms, 1.0);
    ::setenv("BRICS_BENCH_JSON",
             (args.out_dir + "/" + kWorkload + ".artifact.json").c_str(), 1);
    ::setenv("BRICS_BENCH_SCALE", std::to_string(kScale).c_str(), 1);
    ::setenv("BRICS_BENCH_REPEATS", "1", 1);
    bench::BenchArtifact art(std::string("perfbench-") + kWorkload);
    art.begin_table({"update", "latency_ms", "reduce_s", "traverse_s"});
    for (std::size_t k = 0; k < writer.reduce_s.size(); ++k)
      art.add_row({std::to_string(k), bench::fmt(writer.latency_ms[k], 3),
                   bench::fmt(writer.reduce_s[k], 6),
                   bench::fmt(writer.traverse_s[k], 6)});
    std::string lanes_json = "[";
    for (std::size_t i = 0; i < lanes.size(); ++i)
      lanes_json += (i ? ", " : "") + lanes[i].log->to_json_array();
    write_text_file(args.out_dir + "/" + kWorkload + ".trace.json",
                    "{\"workload\": \"" + std::string(kWorkload) +
                        "\", \"seed\": " + std::to_string(args.seed) +
                        ", \"env\": " + env_json(art.to_json()) +
                        ", \"lanes\": " + lanes_json + "]}");
  }

  out.metrics["peak_rss_mb"] = peak_rss_mb_of(daemon->pid());
  out.check(daemon->stop(), "brics_serve did not drain cleanly");

  std::vector<double> reads;
  // Per-1-s-window p99 of the reads: a burst of outside load in one window
  // does not move the median over windows.
  std::vector<std::vector<double>> windows(
      static_cast<std::size_t>(args.seconds) + 1);
  std::uint64_t mismatched = 0;
  for (const Lane& l : lanes) {
    out.attempted += l.attempted;
    out.failed += l.failed;
    mismatched += l.mismatched;
  }
  for (int r = 0; r < kReaders; ++r) {
    const Lane& l = lanes[r + 1];
    reads.insert(reads.end(), l.latency_ms.begin(), l.latency_ms.end());
    for (std::size_t k = 0; k < l.latency_ms.size(); ++k) {
      const auto w = static_cast<std::size_t>(std::max(0.0, l.done_s[k]));
      windows[std::min(w, windows.size() - 1)].push_back(l.latency_ms[k]);
    }
  }
  std::vector<double> window_p99;
  for (const std::vector<double>& w : windows)
    if (w.size() >= 1000) window_p99.push_back(quantile(w, 0.99));
  out.check(mismatched == 0, std::to_string(mismatched) +
                                 " replies did not answer their request");
  out.check(!writer.committed.empty() && !reads.empty(),
            "no update or no read completed");

  auto& m = out.metrics;
  m["setup_s"] = median(setups);
  m["estimate_s"] = median(writer.latency_ms) / 1e3;
  m["request_p50_ms"] = quantile(reads, 0.50);
  m["request_p99_ms"] =
      window_p99.empty() ? quantile(reads, 0.99) : median(window_p99);
  m["requests_per_s"] = static_cast<double>(reads.size()) / mix_s;
  m["rel_err_mean"] =
      rel_count == 0 ? 0.0 : rel_sum / static_cast<double>(rel_count);
  m["ok_rate"] = 1.0 - static_cast<double>(out.failed) /
                           static_cast<double>(out.attempted);
  return out;
}

void describe_daemon() {
  const CsrGraph g = build_dataset(kGraph, kScale);
  std::printf("%s graph=%s scale=%g n=%u m=%llu rate=%g storage=plain "
              "threads=%d measure=farness workers=%d readers=%d "
              "update_interval_ms=%d\n",
              kWorkload, kGraph, kScale, g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()), kRate,
              kServerThreads, kWorkers, kReaders, kUpdateIntervalMs);
}

}  // namespace perfbench
