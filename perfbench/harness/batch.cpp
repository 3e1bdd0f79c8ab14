// Batch workloads: one pass is one estimate_centrality call per graph.
//
//   farness-sampled        the paper's headline run: cumulative BRICS
//                          farness at rate 0.2, plain rows, one graph per
//                          class. Traverse is >= 90 % of the time.
//   farness-spine-compact  the same estimator at rate 0.01 on all twelve
//                          registry graphs with compact rows: Reduce and
//                          Decompose are about half the time, and Traverse
//                          decodes varint rows.
//   bc-sampled             BRICS betweenness at rate 0.05 (pendant-only
//                          Reduce, Q64.64 Brandes Traverse).
//
// The end-to-end run times whole passes for --seconds. The traced run
// composes the pipeline stages the way the library's estimators do, with a
// span around every stage call, and checks the composition's output is
// bitwise the estimator's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>

#include "bench/bench_common.hpp"
#include "brics/brics.hpp"
#include "harness/workloads.hpp"

namespace perfbench {
namespace {

using namespace brics;

constexpr double kScale = 1.0;
constexpr int kSetupReps = 5;
// Rate-1.0 exactness inputs: small registry graphs with every reduction
// kind and many blocks, plus a tree for the bitwise betweenness check.
constexpr const char* kExactGraph = "web-copy-a";
constexpr double kExactScale = 0.05;
// bc-sampled accuracy: the exact betweenness oracle is O(nm), so error is
// measured on the same generators at this scale, at the workload's rate.
constexpr double kBcAccuracyScale = 0.1;
constexpr int kBcAccuracySeeds = 8;

struct BatchSpec {
  std::string name;
  std::vector<std::string> graphs;
  double rate = 0.2;
  Measure measure = Measure::kFarness;
  AdjacencyStorage storage = AdjacencyStorage::kPlain;
  int threads = 4;
  std::size_t probes = 0;  ///< farness probe nodes per graph
};

const std::vector<BatchSpec>& batch_specs() {
  static const std::vector<BatchSpec> specs = [] {
    std::vector<std::string> all;
    for (const DatasetInfo& d : dataset_registry()) all.push_back(d.name);
    return std::vector<BatchSpec>{
        {"farness-sampled",
         {"web-copy-b", "soc-pref-b", "com-part-b", "road-grid-b"},
         0.2, Measure::kFarness, AdjacencyStorage::kPlain, 4, 256},
        {"farness-spine-compact", all, 0.01, Measure::kFarness,
         AdjacencyStorage::kCompact, 4, 64},
        {"bc-sampled", {"web-copy-b", "soc-pref-b", "com-part-b"}, 0.05,
         Measure::kBetweenness, AdjacencyStorage::kPlain, 4, 0},
    };
  }();
  return specs;
}

const BatchSpec* find_spec(const std::string& name) {
  for (const BatchSpec& s : batch_specs())
    if (s.name == name) return &s;
  return nullptr;
}

/// Estimator seed of pass k of a run with --seed `seed`.
std::uint64_t pass_seed(std::uint64_t seed, int k) {
  return k == 0 ? seed : mix_seed(seed, 1000 + static_cast<std::uint64_t>(k));
}

/// The paper's cumulative configuration (all reductions + BCC).
EstimateOptions options_for(const BatchSpec& s, double rate,
                            std::uint64_t seed, AdjacencyStorage storage) {
  EstimateOptions o;
  o.measure = s.measure;
  o.sample_rate = rate;
  o.seed = seed;
  o.storage = storage;
  return o;
}

struct Inputs {
  std::vector<CsrGraph> graphs;
  double setup_s = 0.0;
  double build_s = 0.0;
  double compress_s = 0.0;
};

/// Build (and, for compact storage, compress) every graph kSetupReps
/// times; report median times and keep the last copy.
Inputs set_up(const BatchSpec& s) {
  Inputs in;
  std::vector<double> total, build, compress;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in.graphs.clear();
    double b = 0.0, c = 0.0;
    for (const std::string& name : s.graphs) {
      const auto t0 = Clock::now();
      CsrGraph g = build_dataset(name, kScale);
      const auto t1 = Clock::now();
      if (s.storage == AdjacencyStorage::kCompact) g.compress();
      const auto t2 = Clock::now();
      b += seconds_between(t0, t1);
      c += seconds_between(t1, t2);
      in.graphs.push_back(std::move(g));
    }
    build.push_back(b);
    compress.push_back(c);
    total.push_back(b + c);
  }
  in.setup_s = median(total);
  in.build_s = median(build);
  in.compress_s = median(compress);
  return in;
}

bool same_bits(const EstimateResult& a, const EstimateResult& b) {
  return a.farness.size() == b.farness.size() && a.exact == b.exact &&
         (a.farness.empty() ||
          std::memcmp(a.farness.data(), b.farness.data(),
                      a.farness.size() * sizeof(double)) == 0);
}

bool within_1e9(const std::vector<double>& got,
                const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v)
    if (std::abs(got[v] - want[v]) > 1e-9 * std::max(1.0, std::abs(want[v])))
      return false;
  return true;
}

/// At rate 1.0 the estimators are exact. Farness matches exact_farness
/// bitwise on every node flagged exact (at least half of them: nodes the
/// reductions removed are reconstructed, not traversed). Betweenness matches exact_betweenness bitwise where every pair
/// has one shortest path (a tree: the Q64.64 sums are then exact), and to
/// 1e-9 relative on a registry graph, where the oracle's floating-point
/// path-count sums round differently.
void check_exactness(const BatchSpec& s, Outcome& out) {
  const CsrGraph plain = build_dataset(kExactGraph, kExactScale);
  CsrGraph g = plain;
  if (s.storage == AdjacencyStorage::kCompact) g.compress();
  const EstimateOptions o = options_for(s, 1.0, 1, s.storage);
  const EstimateResult est = estimate_centrality(g, o);
  out.check(!est.degraded, "rate-1.0 run degraded");
  const std::string on = std::string(" on ") + kExactGraph;
  if (s.measure == Measure::kFarness) {
    const std::vector<FarnessSum> exact = exact_farness(plain);
    bool ok = est.farness.size() == exact.size();
    std::size_t flagged = 0;
    for (std::size_t v = 0; ok && v < exact.size(); ++v) {
      if (est.exact[v] == 0) continue;
      ok = est.farness[v] == static_cast<double>(exact[v]);
      ++flagged;
    }
    out.check(ok && 2 * flagged >= exact.size(),
              "rate-1.0 farness differs from exact_farness" + on);
    return;
  }
  out.check(within_1e9(est.farness, exact_betweenness(plain)),
            "rate-1.0 betweenness differs from exact_betweenness" + on);
  Rng rng(7);
  const CsrGraph tree = random_tree(300, rng);
  const EstimateResult t = estimate_centrality(tree, options_for(
      s, 1.0, 1, AdjacencyStorage::kPlain));
  const std::vector<double> want = exact_betweenness(tree);
  out.check(t.farness.size() == want.size() &&
                std::memcmp(t.farness.data(), want.data(),
                            want.size() * sizeof(double)) == 0,
            "rate-1.0 betweenness differs bitwise from exact_betweenness "
            "on a random tree");
}

/// Seeded probe nodes per graph with their exact farness, one BFS each.
struct Probes {
  std::vector<std::vector<NodeId>> nodes;
  std::vector<std::vector<double>> exact;
};

Probes farness_oracle(const BatchSpec& s, const Inputs& in,
                      std::uint64_t seed) {
  Probes p;
  for (std::size_t i = 0; i < in.graphs.size(); ++i) {
    const CsrGraph& g = in.graphs[i];
    p.nodes.push_back(pick_probes(g.num_nodes(), s.probes, mix_seed(seed, i)));
    const std::vector<NodeId>& nodes = p.nodes.back();
    std::vector<double> exact(nodes.size());
    const auto np = static_cast<std::int64_t>(nodes.size());
#pragma omp parallel for schedule(dynamic, 4)
    for (std::int64_t k = 0; k < np; ++k)
      exact[k] = static_cast<double>(exact_farness_of(g, nodes[k]));
    p.exact.push_back(std::move(exact));
  }
  return p;
}

/// Mean |estimate / exact - 1| over the probes. Exact-flagged probes must
/// match the oracle bitwise.
double probe_error(const BatchSpec& s, const Probes& p,
                   const std::vector<EstimateResult>& res, Outcome& out) {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    for (std::size_t k = 0; k < p.nodes[i].size(); ++k) {
      const NodeId v = p.nodes[i][k];
      const double est = res[i].farness[v];
      if (res[i].exact[v] != 0)
        out.check(est == p.exact[i][k], "exact-flagged farness of node " +
                                            std::to_string(v) + " on " +
                                            s.graphs[i] + " differs from BFS");
      sum += std::abs(est / p.exact[i][k] - 1.0);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// Mean |estimate / exact - 1| over the top decile of nodes by exact
/// betweenness, on each workload generator at kBcAccuracyScale, averaged
/// over kBcAccuracySeeds estimator seeds drawn from `seed`.
double bc_error(const BatchSpec& s, std::uint64_t seed, Outcome& out) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const std::string& name : s.graphs) {
    const CsrGraph g = build_dataset(name, kBcAccuracyScale);
    const std::vector<double> exact = exact_betweenness(g);
    std::vector<NodeId> order(g.num_nodes());
    std::iota(order.begin(), order.end(), NodeId{0});
    const std::size_t top = std::max<std::size_t>(1, order.size() / 10);
    std::partial_sort(order.begin(), order.begin() + top, order.end(),
                      [&](NodeId a, NodeId b) { return exact[a] > exact[b]; });
    for (int k = 0; k < kBcAccuracySeeds; ++k) {
      const EstimateResult est = estimate_centrality(
          g, options_for(s, s.rate, pass_seed(seed, k),
                         AdjacencyStorage::kPlain));
      out.check(!est.degraded, "accuracy run degraded on " + name);
      for (std::size_t j = 0; j < top; ++j) {
        const NodeId v = order[j];
        if (exact[v] <= 0.0) continue;
        sum += std::abs(est.farness[v] / exact[v] - 1.0);
        ++count;
      }
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// The output checks every batch run makes on one pass's results `res`
/// (estimated with `opts`): sane values, rate-1.0 exactness, and for
/// compact storage bitwise equality with plain storage.
void check_outputs(const BatchSpec& s, const Inputs& in,
                   const std::vector<EstimateResult>& res,
                   const EstimateOptions& opts, Outcome& out) {
  for (std::size_t i = 0; i < res.size(); ++i) {
    bool sane = res[i].farness.size() == in.graphs[i].num_nodes();
    for (double v : res[i].farness) sane = sane && std::isfinite(v) && v >= 0;
    out.check(sane, "non-finite or negative estimate on " + s.graphs[i]);
  }
  check_exactness(s, out);
  if (s.storage != AdjacencyStorage::kCompact) return;
  EstimateOptions plain = opts;
  plain.storage = AdjacencyStorage::kPlain;
  for (std::size_t i = 0; i < res.size(); ++i) {
    const CsrGraph g = build_dataset(s.graphs[i], kScale);
    out.check(same_bits(estimate_centrality(g, plain), res[i]),
              "compact estimate differs from plain on " + s.graphs[i]);
  }
}

double bytes_per_edge(const Inputs& in) {
  std::uint64_t bytes = 0, edges = 0;
  for (const CsrGraph& g : in.graphs) {
    bytes += g.adjacency_bytes();
    edges += g.num_directed_edges();
  }
  return edges == 0 ? 0.0
                    : static_cast<double>(bytes) / static_cast<double>(edges);
}

Outcome run_timed(const BatchSpec& s, const Args& args) {
  Outcome out;
  const Inputs in = set_up(s);
  const bool farness = s.measure == Measure::kFarness;
  const Probes probes = farness ? farness_oracle(s, in, args.seed) : Probes{};
  EstimateOptions opts = options_for(s, s.rate, args.seed, s.storage);
  std::vector<EstimateResult> first;
  std::vector<double> pass_s, call_ms, errors;
  std::vector<std::vector<double>> graph_s(in.graphs.size());
  const auto start = Clock::now();
  // Whole passes until the next one would overrun --seconds (at least two,
  // so every graph's median has something to choose from). Each pass
  // samples with its own seed, so one run averages the sampling error and
  // the sampling-dependent work over several draws.
  for (int pass = 0;; ++pass) {
    opts.seed = pass_seed(args.seed, pass);
    std::vector<EstimateResult> res;
    const auto p0 = Clock::now();
    for (std::size_t i = 0; i < in.graphs.size(); ++i) {
      const auto c0 = Clock::now();
      res.push_back(estimate_centrality(in.graphs[i], opts));
      if (args.inject_delay > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(
            args.inject_delay * seconds_between(c0, Clock::now())));
      graph_s[i].push_back(seconds_between(c0, Clock::now()));
      call_ms.push_back(1e3 * graph_s[i].back());
      ++out.attempted;
      if (res.back().degraded) ++out.failed;
    }
    pass_s.push_back(seconds_between(p0, Clock::now()));
    std::fprintf(stderr, "perfbench: %s pass %zu: %.4f s\n", s.name.c_str(),
                 pass_s.size(), pass_s.back());
    if (farness) errors.push_back(probe_error(s, probes, res, out));
    if (pass == 0) first = std::move(res);
    const double elapsed = seconds_between(start, Clock::now());
    if (pass_s.size() >= 2 && elapsed + median(pass_s) > args.seconds) break;
  }
  // One pass over the workload, from each graph's median call: a burst of
  // outside load in one call does not move it.
  double estimate_s = 0.0;
  for (const std::vector<double>& v : graph_s) estimate_s += median(v);
  double busy_s = 0.0;
  for (double p : pass_s) busy_s += p;
  double error = 0.0;
  for (double e : errors) error += e / static_cast<double>(errors.size());
  out.metrics["peak_rss_mb"] = self_peak_rss_mb();
  opts.seed = pass_seed(args.seed, 0);
  check_outputs(s, in, first, opts, out);
  out.metrics["rel_err_mean"] = farness ? error : bc_error(s, args.seed, out);
  out.metrics["setup_s"] = in.setup_s;
  out.metrics["estimate_s"] = estimate_s;
  out.metrics["request_p50_ms"] = quantile(call_ms, 0.50);
  out.metrics["request_p99_ms"] = quantile(call_ms, 0.99);
  out.metrics["requests_per_s"] = static_cast<double>(call_ms.size()) / busy_s;
  out.metrics["ok_rate"] = 1.0 - static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted);
  return out;
}

// ---- traced run ----------------------------------------------------------

struct StageTimes {
  double reduce = 0, decompose = 0, plan = 0, masses = 0, traverse = 0,
         aggregate = 0;

  double sum() const {
    return reduce + decompose + plan + masses + traverse + aggregate;
  }
  StageTimes& operator+=(const StageTimes& o) {
    reduce += o.reduce;
    decompose += o.decompose;
    plan += o.plan;
    masses += o.masses;
    traverse += o.traverse;
    aggregate += o.aggregate;
    return *this;
  }
};

struct LayerCounts {
  std::uint64_t input_nodes = 0, removed = 0, blocks = 0, cuts = 0,
                sources = 0, mandatory = 0;
};

/// The stage composition of estimate_brics / estimate_on_reduction_budgeted
/// (farness) and estimate_betweenness / estimate_bc_on_reduction_budgeted
/// (betweenness), without a checkpoint manager and with the unlimited
/// default budget: the same stage calls, in the same order, on the same
/// contexts. Each call is a span under `parent`.
EstimateResult traced_estimate(const CsrGraph& g, const EstimateOptions& opts,
                               SpanLog& log, int parent, StageTimes& st,
                               LayerCounts& lc) {
  const bool bc = opts.measure == Measure::kBetweenness;
  EstimateOptions eopts = opts;
  if (bc) eopts.reduce = bc_reduce_options(opts.reduce);
  CancelToken token(eopts.budget.timeout_ms);
  PipelineContext ctx(g, eopts, token);
  const auto timed = [&](const char* name, double& acc, auto&& fn) {
    const int id = log.begin(name, parent);
    auto r = fn();
    log.end(id);
    acc += log.seconds(id);
    return r;
  };

  const ReducedGraph rg =
      timed("reduce", st.reduce, [&] { return ReduceStage{}.run(ctx); });
  PipelineContext rctx(rg.graph, eopts, token);
  rctx.set_phase(ExecPhase::kBcc);
  const Decomposition dec = timed("decompose", st.decompose, [&] {
    return DecomposeStage{}.run(rctx, rg);
  });
  const SamplePlan plan = timed("plan", st.plan, [&] {
    return PlanStage{}.run(rctx, dec, rg.num_present);
  });
  lc.input_nodes += rg.stats.input_nodes;
  lc.removed += rg.stats.input_nodes - rg.stats.reduced_nodes;
  lc.blocks += dec.num_blocks();
  lc.cuts += dec.bcc.num_cut_vertices();
  lc.sources += plan.total_sources();
  lc.mandatory += plan.mandatory_total;

  if (!bc) {
    const TraversalResults trav = timed("traverse", st.traverse, [&] {
      return TraverseStage{}.run(rctx, rg, dec, plan);
    });
    return timed("aggregate", st.aggregate, [&] {
      return AggregateStage{}.run(rctx, rg, dec, plan, trav);
    });
  }
  const BcMasses masses = timed(
      "masses", st.masses, [&] { return compute_bc_masses(rg, dec); });
  const BcTraversalResults trav = timed("traverse", st.traverse, [&] {
    return BcTraverseStage{}.run(rctx, dec, plan, masses);
  });
  return timed("aggregate", st.aggregate, [&] {
    return BcAggregateStage{}.run(rctx, rg, dec, plan, trav, masses);
  });
}

struct TracedPass {
  double wall_s = 0.0;
  StageTimes st;
  LayerCounts lc;
  std::vector<EstimateResult> results;
};

TracedPass traced_pass(const BatchSpec& s, const Inputs& in,
                       const EstimateOptions& opts, int threads,
                       SpanLog& log, bench::BenchArtifact& art) {
  set_threads(threads);
  TracedPass tp;
  const int root = log.begin("pass t" + std::to_string(threads));
  for (std::size_t i = 0; i < in.graphs.size(); ++i) {
    const int est = log.begin("estimate " + s.graphs[i], root);
    StageTimes gst;
    tp.results.push_back(
        traced_estimate(in.graphs[i], opts, log, est, gst, tp.lc));
    log.end(est);
    tp.st += gst;
    art.add_row({s.graphs[i], std::to_string(threads),
                 bench::fmt(gst.reduce, 6), bench::fmt(gst.decompose, 6),
                 bench::fmt(gst.plan, 6), bench::fmt(gst.masses, 6),
                 bench::fmt(gst.traverse, 6), bench::fmt(gst.aggregate, 6),
                 bench::fmt(log.seconds(est), 6)});
  }
  log.end(root);
  tp.wall_s = log.seconds(root);
  return tp;
}

std::uint64_t counter(const MetricsSnapshot& snap, const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

Outcome run_traced(const BatchSpec& s, const Args& args) {
  Outcome out;
  const Inputs in = set_up(s);
  const EstimateOptions opts = options_for(s, s.rate, args.seed, s.storage);
  const std::string base = args.out_dir + "/" + s.name;
  ::setenv("BRICS_BENCH_JSON", (base + ".artifact.json").c_str(), 1);
  ::setenv("BRICS_BENCH_SCALE", "1", 1);
  ::setenv("BRICS_BENCH_REPEATS", "1", 1);
  bench::BenchArtifact art("perfbench-" + s.name);
  art.begin_table({"graph", "threads", "reduce_s", "decompose_s", "plan_s",
                   "masses_s", "traverse_s", "aggregate_s", "estimate_s"});
  SpanLog log;

  // Untraced reference pass: the fidelity oracle and the base of the
  // tracing overhead.
  set_threads(s.threads);
  std::vector<EstimateResult> ref;
  const auto u0 = Clock::now();
  for (const CsrGraph& g : in.graphs) ref.push_back(estimate_centrality(g, opts));
  const double untraced_s = seconds_between(u0, Clock::now());
  for (const EstimateResult& r : ref) {
    ++out.attempted;
    if (r.degraded) ++out.failed;
  }

  // The counted pass: the registry holds exactly this pass's work (plus
  // the self-test's extra kernel call, when asked for).
  MetricsRegistry::global().reset();
  if (args.inject_extra_bfs) {
    TraversalWorkspace ws;
    bfs(in.graphs.front(), 0, ws);
  }
  const TracedPass main = traced_pass(s, in, opts, s.threads, log, art);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const ParallelStats ps =
      collect_parallel_stats(MetricsRegistry::global(), s.threads);
  for (std::size_t i = 0; i < ref.size(); ++i)
    out.check(same_bits(main.results[i], ref[i]),
              "traced composition differs from estimate_centrality on " +
                  s.graphs[i]);

  auto& m = out.metrics;
  m["trace.overhead_s"] = main.wall_s - untraced_s;
  m["trace.residual_s"] = main.wall_s - main.st.sum();
  m["graph.build_s"] = in.build_s;
  m["graph.compress_s"] = in.compress_s;
  m["graph.bytes_per_edge"] = bytes_per_edge(in);
  m["reduce.removed_frac"] = static_cast<double>(main.lc.removed) /
                             static_cast<double>(main.lc.input_nodes);
  m["decompose.blocks"] = static_cast<double>(main.lc.blocks);
  m["decompose.cut_vertices"] = static_cast<double>(main.lc.cuts);
  m["plan.sources"] = static_cast<double>(main.lc.sources);
  m["plan.mandatory_sources"] = static_cast<double>(main.lc.mandatory);
  if (s.measure == Measure::kBetweenness) {
    m["bc.reduce_s"] = main.st.reduce;
    m["bc.decompose_s"] = main.st.decompose;
    m["bc.masses_s"] = main.st.masses;
    m["bc.traverse_s"] = main.st.traverse;
    m["bc.aggregate_s"] = main.st.aggregate;
  } else {
    m["reduce.s"] = main.st.reduce;
    m["decompose.s"] = main.st.decompose;
    m["plan.s"] = main.st.plan;
    m["traverse.s"] = main.st.traverse;
    m["aggregate.s"] = main.st.aggregate;
    m["pipeline.serial_frac"] =
        (main.st.reduce + main.st.decompose + main.st.plan) / main.wall_s;
    const auto edges = counter(snap, "traverse.edges_relaxed");
    m["traverse.edges_relaxed"] = static_cast<double>(edges);
    m["traverse.nodes_settled"] =
        static_cast<double>(counter(snap, "traverse.nodes_settled"));
    m["traverse.edges_per_s"] =
        static_cast<double>(edges) / main.st.traverse;
    m["traverse.efficiency"] = ps.efficiency;
    m["traverse.imbalance"] = ps.imbalance;
    // Where the serial spine binds: the same traced pass at 1 and 2
    // threads. Results must not depend on the thread count.
    for (int t : {1, 2}) {
      const TracedPass tp = traced_pass(s, in, opts, t, log, art);
      for (std::size_t i = 0; i < ref.size(); ++i)
        out.check(same_bits(tp.results[i], ref[i]),
                  "estimate at " + std::to_string(t) +
                      " threads differs on " + s.graphs[i]);
      const std::string sfx = ".s_t" + std::to_string(t);
      m["reduce" + sfx] = tp.st.reduce;
      m["decompose" + sfx] = tp.st.decompose;
      m["plan" + sfx] = tp.st.plan;
      m["traverse" + sfx] = tp.st.traverse;
      m["aggregate" + sfx] = tp.st.aggregate;
    }
    set_threads(s.threads);
  }
  check_outputs(s, in, ref, opts, out);
  if (s.measure == Measure::kFarness)
    probe_error(s, farness_oracle(s, in, args.seed), ref, out);

  write_text_file(base + ".trace.json",
                  "{\"workload\": \"" + s.name + "\", \"seed\": " +
                      std::to_string(args.seed) +
                      ", \"env\": " + env_json(art.to_json()) +
                      ", \"spans\": " + log.to_json_array() + "}");
  return out;
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

Outcome run_batch(const Args& args) {
  const BatchSpec& s = *find_spec(args.workload);
  set_threads(s.threads);
  return args.trace ? run_traced(s, args) : run_timed(s, args);
}

void describe_batch() {
  for (const BatchSpec& s : batch_specs()) {
    for (const std::string& name : s.graphs) {
      const CsrGraph g = build_dataset(name, kScale);
      std::printf("%s graph=%s scale=%g n=%u m=%llu rate=%g storage=%s "
                  "threads=%d measure=%s\n",
                  s.name.c_str(), name.c_str(), kScale, g.num_nodes(),
                  static_cast<unsigned long long>(g.num_edges()), s.rate,
                  s.storage == AdjacencyStorage::kCompact ? "compact"
                                                          : "plain",
                  s.threads, to_string(s.measure));
    }
  }
}

}  // namespace perfbench
