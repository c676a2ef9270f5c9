// bench_suite — the whole figure set as one machine-readable artifact, and
// the paper's tables.
//
// Runs the fig5–fig8 reproduction points plus the Sec. 3/6 ablation grid
// through run::SweepRunner and writes BENCH_suite.json
// ("qmb-bench-suite/1"): one point per experiment with a stable key,
// latency stats, wire counters, and the determinism fingerprint. CI
// uploads the file and tools/benchdiff compares it against
// bench/baseline.json; a latency regression or a fingerprint change shows
// up as a keyed delta instead of a diff of printed tables.
//
//   bench_suite                  # full grid, writes BENCH_suite.json
//   bench_suite --quick          # CI-sized axes (seconds, not minutes)
//   bench_suite --out suite.json --threads 4
//   bench_suite --table fig5     # print one paper table (no JSON)
//
// The simulation is deterministic, so the latency numbers are exact.
// Wall-clock benchmarking of the simulator itself is perfbench/'s job.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "obs/json.hpp"

namespace {

using namespace qmb;
using run::Impl;
using run::Network;

struct SuitePoint {
  std::string key;
  run::ExperimentSpec spec;
};

struct SuiteOptions {
  bool quick = false;
  std::string out = "BENCH_suite.json";
  unsigned threads = 0;
  std::string table;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [--quick] [--out PATH] [--threads T] | --table NAME [--threads T]\n"
      "  --quick       small node axes and fewer iterations (CI)\n"
      "  --out PATH    output file (default BENCH_suite.json)\n"
      "  --threads T   sweep worker threads (default: all cores)\n"
      "  --table NAME  print one paper table instead of writing the suite;\n"
      "                NAME is one of: %s\n",
      argv0, bench::paper_table_names().c_str());
  std::exit(2);
}

/// "fig5/myrinet-l9/nic/barrier/ds/n8" — stable across runs and releases;
/// benchdiff aligns suites on these keys.
std::string key_for(const char* group, const run::ExperimentSpec& s) {
  std::string k = group;
  for (const std::string_view part : {run::to_string(s.network), run::to_string(s.impl),
                                      run::to_string(s.op),
                                      run::algorithm_cli_name(s.algorithm)}) {
    k += '/';
    k += part;
  }
  k += "/n";
  k += std::to_string(s.nodes);
  return k;
}

void add_barrier_grid(std::vector<SuitePoint>& out, const char* group, Network net,
                      const std::vector<Impl>& impls, const std::vector<int>& nodes) {
  for (const Impl impl : impls) {
    for (const int n : nodes) {
      run::ExperimentSpec s =
          bench::barrier_spec(net, n, impl, coll::Algorithm::kDissemination);
      out.push_back({key_for(group, s), s});
    }
  }
}

std::vector<SuitePoint> build_points(bool quick) {
  std::vector<SuitePoint> pts;
  const std::vector<int> small = quick ? std::vector<int>{2, 8}
                                       : std::vector<int>{2, 4, 8, 16};
  const std::vector<int> large = quick ? std::vector<int>{2, 16, 64}
                                       : std::vector<int>{2, 8, 32, 128, 512};

  // Fig. 5: LANai 9.1 cluster — NIC vs host vs prior direct scheme.
  add_barrier_grid(pts, "fig5", Network::kMyrinetL9,
                   {Impl::kNic, Impl::kHost, Impl::kDirect}, small);
  // Fig. 6: LANai-XP cluster, same comparison.
  add_barrier_grid(pts, "fig6", Network::kMyrinetXP,
                   {Impl::kNic, Impl::kHost, Impl::kDirect}, small);
  // Fig. 7: Quadrics — chained-RDMA NIC barrier vs elan_gsync vs hgsync.
  add_barrier_grid(pts, "fig7", Network::kQuadrics,
                   {Impl::kNic, Impl::kGsync, Impl::kHgsync}, small);
  // Fig. 8: scalability of the NIC barrier on both networks.
  add_barrier_grid(pts, "fig8", Network::kMyrinetXP, {Impl::kNic}, large);
  add_barrier_grid(pts, "fig8", Network::kQuadrics, {Impl::kNic}, large);

  // PDES tier: the same NIC barrier sharded over the conservative
  // parallel engine at 8 worker threads. The gate is the fingerprint —
  // the engine's contract is that these points are bit-identical to their
  // sequential twins, so any determinism break in the window/merge logic
  // shows up here as a fingerprint delta even on a single-core runner
  // (events_per_sec stays advisory, like every host-time number).
  {
    const int pdes_n = quick ? 64 : 256;
    for (const Network net :
         {Network::kQuadrics, Network::kMyrinetXP, Network::kInfiniBand}) {
      run::ExperimentSpec s = bench::barrier_spec(
          net, pdes_n, Impl::kNic, coll::Algorithm::kDissemination);
      s.engine_threads = 8;
      pts.push_back({key_for("pdes", s), s});
    }
  }

  // Sec. 9 generalization tier: the NIC collective protocol ported to the
  // IB verbs substrate — RC-transport NIC barrier vs host baseline, plus
  // the NIC barrier's scalability curve on its own key group.
  add_barrier_grid(pts, "ib-barrier", Network::kInfiniBand,
                   {Impl::kNic, Impl::kHost}, small);
  add_barrier_grid(pts, "ib-scale", Network::kInfiniBand, {Impl::kNic}, large);

  // Ablation (Sec. 3/6): each protocol simplification disabled in turn.
  const int abl_nodes = quick ? 8 : 16;
  for (const bench::Ablation& a : bench::ablations()) {
    pts.push_back({std::string("ablation/") + a.slug + "/n" + std::to_string(abl_nodes),
                   bench::ablation_spec(abl_nodes, a.features)});
  }

  // Multi-tenant tier: four concurrent 4-rank barrier groups with
  // fixed-rate arrivals under background flood at 0/25/50/75% of the
  // substrate's sustainable flood throughput, on the two loss-recovering
  // substrates. The workload fingerprint folds per-group p99s, so
  // cross-group interference shifts gate CI like any latency regression.
  for (const Network net : {Network::kMyrinetXP, Network::kInfiniBand}) {
    for (const int pct : {0, 25, 50, 75}) {
      run::ExperimentSpec s = bench::tenancy_spec(net, 8, Impl::kNic, 4, pct);
      pts.push_back({std::string("tenancy/") + std::string(run::to_string(net)) +
                         "/nic/barrier/g4/load" + std::to_string(pct),
                     s});
    }
  }

  // Algorithm zoo tier: every barrier algorithm each substrate's
  // capability model admits, on the schedule-driven NIC executor, so the
  // Tinit/Ttrig scaling of the whole zoo is one keyed artifact. Plus a
  // split-phase overlap sweep: the same dissemination barrier with each
  // rank computing ov microseconds between notify() and wait(), showing
  // how much of the synchronization cost hides behind compute.
  {
    const std::vector<int> algo_nodes = quick ? std::vector<int>{8, 64}
                                              : std::vector<int>{8, 64, 256};
    for (const Network net :
         {Network::kMyrinetXP, Network::kQuadrics, Network::kInfiniBand}) {
      const run::SubstrateCaps& caps = run::substrate_for(net).caps();
      for (const coll::Algorithm alg : caps.barrier_algorithms) {
        for (const int n : algo_nodes) {
          run::ExperimentSpec s = bench::barrier_spec(net, n, Impl::kNic, alg);
          pts.push_back({key_for("algos", s), s});
        }
      }
      for (const int ov : {0, 4, 16}) {
        run::ExperimentSpec s =
            bench::barrier_spec(net, 8, Impl::kNic, coll::Algorithm::kDissemination);
        s.overlap_us = static_cast<double>(ov);
        pts.push_back({key_for("algos", s) + "/ov" + std::to_string(ov), s});
      }
    }
  }

  // Value collectives through the same NIC protocol (paper Sec. 6).
  const int coll_nodes = quick ? 4 : 8;
  for (const coll::OpKind op : {coll::OpKind::kBcast, coll::OpKind::kAllreduce,
                                coll::OpKind::kAllgather}) {
    run::ExperimentSpec s = bench::barrier_spec(Network::kMyrinetXP, coll_nodes,
                                                Impl::kNic,
                                                coll::Algorithm::kDissemination);
    s.op = op;
    pts.push_back({key_for("collectives", s), s});
  }

  // Value-collective algorithm tier: NIC vs host allreduce under every
  // algorithm the capability model admits for the kind, on all three
  // hardware models — the value-op companion to the barrier zoo tier, so
  // "which allreduce schedule wins at which scale" is one keyed artifact.
  for (const Network net :
       {Network::kMyrinetXP, Network::kQuadrics, Network::kInfiniBand}) {
    const run::SubstrateCaps& caps = run::substrate_for(net).caps();
    for (const Impl impl : {Impl::kNic, Impl::kHost}) {
      for (const coll::Algorithm alg :
           run::caps_algorithms(caps, coll::OpKind::kAllreduce)) {
        for (const int n : {8, 64}) {
          run::ExperimentSpec s = bench::barrier_spec(net, n, impl, alg);
          s.op = coll::OpKind::kAllreduce;
          pts.push_back({key_for("vcoll", s), s});
        }
      }
    }
  }
  return pts;
}

SuiteOptions parse(int argc, char** argv) {
  SuiteOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      o.quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      o.out = argv[++i];
    } else if (a == "--threads" && i + 1 < argc) {
      const int t = std::atoi(argv[++i]);
      if (t < 1) usage(argv[0]);
      o.threads = static_cast<unsigned>(t);
    } else if (a == "--table" && i + 1 < argc) {
      o.table = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  // A table prints to stdout; the suite's --quick and --out do not apply.
  if (!o.table.empty() && (o.quick || o.out != SuiteOptions{}.out)) usage(argv[0]);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const SuiteOptions o = parse(argc, argv);
  if (!o.table.empty()) {
    if (!bench::print_paper_table(o.table, run::SweepRunner(o.threads))) usage(argv[0]);
    return 0;
  }
  auto points = build_points(o.quick);
  const int iters = o.quick ? 50 : bench::timed_iters();
  std::vector<run::ExperimentSpec> specs;
  specs.reserve(points.size());
  for (auto& p : points) {
    p.spec.iters = iters;
    specs.push_back(p.spec);
  }

  const run::SweepRunner runner(o.threads);
  const auto results = runner.run(specs);

  obs::JsonValue doc = obs::JsonValue::make_object();
  doc.set("schema", obs::JsonValue::of("qmb-bench-suite/1"));
  doc.set("quick", obs::JsonValue::of(o.quick));
  doc.set("iters", obs::JsonValue::of(static_cast<std::int64_t>(iters)));
  doc.set("warmup", obs::JsonValue::of(static_cast<std::int64_t>(bench::warmup_iters())));
  obs::JsonValue arr = obs::JsonValue::make_array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const run::RunResult& r = results[i];
    obs::JsonValue p = obs::JsonValue::make_object();
    p.set("key", obs::JsonValue::of(points[i].key));
    p.set("impl_name", obs::JsonValue::of(r.impl_name));
    p.set("mean_us", obs::JsonValue::of(r.mean_us()));
    p.set("min_us", obs::JsonValue::of(r.min_us()));
    p.set("max_us", obs::JsonValue::of(r.max_us()));
    p.set("p99_us", obs::JsonValue::of(r.p99_us()));
    p.set("packets_sent", obs::JsonValue::of(r.packets_sent));
    p.set("bytes_sent", obs::JsonValue::of(r.bytes_sent));
    // Host-side throughput observability: wall-clock per point and the
    // simulator's events/sec. Noisy and machine-dependent — benchdiff
    // treats these advisorily, never as a gate.
    p.set("host_ms", obs::JsonValue::of(r.host_seconds * 1e3));
    p.set("events_per_sec", obs::JsonValue::of(r.events_per_sec()));
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(r.fingerprint()));
    p.set("fingerprint", obs::JsonValue::of(fp));
    arr.array.push_back(std::move(p));
  }
  doc.set("points", std::move(arr));

  const std::string text = doc.dump();
  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", o.out.c_str());
    return 2;
  }
  std::fputs(text.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("%zu points -> %s (%s, %d timed iters, %u threads)\n", results.size(),
              o.out.c_str(), o.quick ? "quick" : "full", iters, runner.threads());
  double total_events = 0.0;
  double total_host = 0.0;
  for (const run::RunResult& r : results) {
    total_events += static_cast<double>(r.events_fired);
    total_host += r.host_seconds;
  }
  std::printf("throughput: %.0f events in %.2fs host time = %.0f events/sec\n",
              total_events, total_host,
              total_host > 0.0 ? total_events / total_host : 0.0);
  return 0;
}
