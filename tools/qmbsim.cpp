// qmbsim — command-line driver for the simulator.
//
// Runs any barrier or collective configuration and prints latency and
// protocol statistics, so experiments beyond the committed benchmarks can
// be run without writing code. Single runs and sweeps both route through
// the run:: experiment layer; sweeps execute in parallel across a thread
// pool with per-point results bit-identical to a single-threaded run.
//
//   qmbsim --network myrinet-xp --nodes 8 --impl nic --op barrier
//   qmbsim --network quadrics --nodes 64 --impl hgsync --iters 1000
//   qmbsim --network myrinet-l9 --nodes 16 --impl host --algorithm pe
//   qmbsim --network myrinet-xp --nodes 8 --op allreduce --impl host
//   qmbsim --network myrinet-xp --nodes 8 --drop-prob 0.01 --trace
//   qmbsim --network quadrics --impl nic --sweep 2:1024:x2 --json
//   qmbsim --network myrinet-xp --sweep 2,4,8,16 --threads 4
//   qmbsim --network ib --nodes 64 --impl nic --drop-prob 0.001
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"
#include "run/substrate.hpp"
#include "run/sweep.hpp"

using namespace qmb;

namespace {

struct Options {
  run::ExperimentSpec spec;
  std::vector<int> sweep_nodes;  // empty = single run at spec.nodes
  bool json = false;
  unsigned threads = 0;  // 0 = default_sweep_threads()
  std::string trace_file;    // --trace CSV destination ("" = stdout/stderr)
  std::string metrics_json;  // metric snapshot destination
  std::string chrome_trace;  // Chrome trace_event JSON destination
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --network %s   (default myrinet-xp)\n"
      "  --nodes N                                  (default 8)\n"
      "  --op barrier|bcast|reduce|allreduce|allgather|alltoall (default barrier;\n"
      "         reduce is an alias for allreduce)\n"
      "  --impl nic|host|direct|gsync|hgsync        (default nic;\n"
      "         direct = prior-work NIC scheme, Myrinet barrier only;\n"
      "         gsync/hgsync = Quadrics barrier only)\n"
      "  --algorithm ds|pe|gb|tree|trn|fway|ra      (default ds;\n"
      "         ds = dissemination, pe = pairwise exchange, gb = gather-\n"
      "         broadcast tree, tree = binomial tree, trn = tournament,\n"
      "         fway = f-way dissemination, ra = remote-atomic central\n"
      "         counter, IB only; per-(network, op) support is capability-\n"
      "         gated — value collectives accept the value-correct subset)\n"
      "  --radix R                                  gb tree degree / fway f\n"
      "         (default 0 = the algorithm's own default: gb 2, fway 4)\n"
      "  --overlap US                               split-phase collectives: each\n"
      "         rank start()s (notify()s for barriers), computes US micro-\n"
      "         seconds, then wait()s; measures how much of the operation\n"
      "         hides behind compute\n"
      "  --iters K --warmup W                       (default 1000 / 100)\n"
      "  --seed S --perm                            random rank placement\n"
      "  --drop-prob P                              packet loss (%s)\n"
      "  --fault SPEC                               install a fault rule (repeatable,\n"
      "         loss-capable networks only; rule order = match order). SPEC grammar:\n"
      "           drop:nth=3,src=2,dst=4    dup:p=0.01,seed=7\n"
      "           reorder:nth=2,delay=10us  blackout:from=100us,until=250us\n"
      "  --skew US                                  max per-entry skew in us\n"
      "         (each rank's every entry delays by a seeded uniform draw;\n"
      "         blocking runs only, not with --overlap)\n"
      "  --workload SPEC                            multi-tenant mode: N concurrent\n"
      "         groups issuing a collective mix from an open-loop arrival process,\n"
      "         plus optional background flood traffic. SPEC grammar (see cli.hpp):\n"
      "           groups=8,size=4,mix=barrier+allreduce,arrival=poisson,period=20us\n"
      "           groups=64,size=4,member=stride,flood=8,flood-bytes=4096\n"
      "         prints per-group p50/p99/p999 and a Jain fairness index\n"
      "  --horizon-ms H                             simulated-time watchdog\n"
      "  --trace                                    dump protocol trace CSV\n"
      "  --trace-file PATH                          write the trace CSV to PATH\n"
      "         (without it, --trace goes to stdout, or to stderr when --json\n"
      "         is set so the JSON stream stays parseable)\n"
      "  --metrics-json PATH                        write the metric snapshot\n"
      "         (counters, gauges, log2 histograms) as JSON to PATH\n"
      "  --chrome-trace PATH                        write a Chrome trace_event\n"
      "         JSON timeline to PATH (open in chrome://tracing or Perfetto;\n"
      "         single runs only). Packet hops render as flow arrows between\n"
      "         NIC tracks; summarize per-round latency with:\n"
      "           python3 tools/trace_report.py PATH\n"
      "  --engine-threads T                         conservative-PDES worker\n"
      "         threads for a single run (default 1 = sequential engine).\n"
      "         Results are bit-identical at any thread count; specs with\n"
      "         faults, skew, workloads, tracing or non-NIC impls fall back\n"
      "         to the sequential engine\n"
      "  --engine-domains D                         explicit PDES domain count\n"
      "         (default: auto from --engine-threads). Domain count, not\n"
      "         thread count, decides the window schedule; results are\n"
      "         identical for every thread count at a fixed domain count\n"
      "  --sweep LIST                               node-count axis; LIST is\n"
      "         comma-separated counts and/or ranges: 2,4,8  2:64:x2 (geometric)\n"
      "         2:16:+2 (arithmetic); runs all points in parallel\n"
      "  --threads T                                sweep worker threads\n"
      "                                             (default: all cores,\n"
      "                                             or $QMB_SWEEP_THREADS)\n"
      "  --json                                     one JSON object per run\n",
      argv0, run::substrate_names("|").c_str(), run::loss_capable_names().c_str());
  std::exit(2);
}

/// Parses one --sweep token: "N", "lo:hi:xK" (geometric), or "lo:hi:+K"
/// (arithmetic). "lo:hi" doubles. Returns false on malformed input.
bool parse_sweep_token(const std::string& tok, std::vector<int>& out) {
  const auto c1 = tok.find(':');
  if (c1 == std::string::npos) {
    const int n = std::atoi(tok.c_str());
    if (n < 2) return false;
    out.push_back(n);
    return true;
  }
  const auto c2 = tok.find(':', c1 + 1);
  const int lo = std::atoi(tok.substr(0, c1).c_str());
  const int hi = std::atoi(tok.substr(c1 + 1, c2 == std::string::npos
                                                  ? std::string::npos
                                                  : c2 - c1 - 1)
                               .c_str());
  char mode = 'x';
  int step = 2;
  if (c2 != std::string::npos) {
    const std::string s = tok.substr(c2 + 1);
    if (s.size() < 2 || (s[0] != 'x' && s[0] != '+')) return false;
    mode = s[0];
    step = std::atoi(s.c_str() + 1);
  }
  if (lo < 2 || hi < lo || step < (mode == 'x' ? 2 : 1)) return false;
  for (int n = lo; n <= hi; n = mode == 'x' ? n * step : n + step) out.push_back(n);
  return true;
}

std::vector<int> parse_sweep(const std::string& list, const char* argv0) {
  std::vector<int> nodes;
  std::size_t start = 0;
  while (start <= list.size()) {
    const auto comma = list.find(',', start);
    const std::string tok =
        list.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!parse_sweep_token(tok, nodes)) {
      std::fprintf(stderr, "malformed --sweep element '%s' in '%s'\n", tok.c_str(),
                   list.c_str());
      usage(argv0);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return nodes;
}

Options parse(int argc, char** argv) {
  Options o;
  o.spec.iters = 1000;
  o.spec.warmup = 100;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (a == "--network") {
      const char* v = next("--network");
      const auto n = run::parse_network(v);
      if (!n) {
        std::fprintf(stderr, "unknown --network '%s' (valid: %s)\n", v,
                     run::substrate_names().c_str());
        usage(argv[0]);
      }
      o.spec.network = *n;
    } else if (a == "--nodes") {
      o.spec.nodes = std::atoi(next("--nodes"));
    } else if (a == "--op") {
      const char* v = next("--op");
      const auto k = run::parse_op(v);
      if (!k) {
        std::fprintf(stderr,
                     "unknown --op '%s' (valid: barrier, bcast, reduce, allreduce, "
                     "allgather, alltoall)\n",
                     v);
        usage(argv[0]);
      }
      o.spec.op = *k;
    } else if (a == "--impl") {
      const char* v = next("--impl");
      const auto impl = run::parse_impl(v);
      if (!impl) {
        std::fprintf(stderr,
                     "unknown --impl '%s' (valid: nic, host, direct, gsync, hgsync)\n", v);
        usage(argv[0]);
      }
      o.spec.impl = *impl;
    } else if (a == "--algorithm") {
      const char* v = next("--algorithm");
      const auto alg = run::parse_algorithm(v);
      if (!alg) {
        std::fprintf(stderr,
                     "unknown --algorithm '%s' (valid: ds, pe, gb, tree, trn, fway, "
                     "ra)\n",
                     v);
        usage(argv[0]);
      }
      o.spec.algorithm = *alg;
    } else if (a == "--radix") {
      o.spec.radix = std::atoi(next("--radix"));
    } else if (a == "--overlap") {
      o.spec.overlap_us = std::atof(next("--overlap"));
    } else if (a == "--iters") {
      o.spec.iters = std::atoi(next("--iters"));
    } else if (a == "--warmup") {
      o.spec.warmup = std::atoi(next("--warmup"));
    } else if (a == "--seed") {
      o.spec.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (a == "--perm") {
      o.spec.random_placement = true;
    } else if (a == "--drop-prob") {
      o.spec.drop_prob = std::atof(next("--drop-prob"));
    } else if (a == "--fault") {
      net::FaultSpec f;
      if (const std::string err = cli::parse_fault(next("--fault"), f); !err.empty()) {
        std::fprintf(stderr, "--fault: %s\n", err.c_str());
        usage(argv[0]);
      }
      o.spec.faults.push_back(f);
    } else if (a == "--skew") {
      o.spec.skew_max_us = std::atof(next("--skew"));
    } else if (a == "--workload") {
      if (const std::string err = cli::parse_workload(next("--workload"), o.spec.workload);
          !err.empty()) {
        std::fprintf(stderr, "--workload: %s\n", err.c_str());
        usage(argv[0]);
      }
    } else if (a == "--horizon-ms") {
      o.spec.horizon_ms = std::atol(next("--horizon-ms"));
    } else if (a == "--trace") {
      o.spec.collect_trace = true;
    } else if (a == "--trace-file") {
      o.trace_file = next("--trace-file");
      o.spec.collect_trace = true;
    } else if (a == "--metrics-json") {
      o.metrics_json = next("--metrics-json");
    } else if (a == "--chrome-trace") {
      o.chrome_trace = next("--chrome-trace");
      o.spec.chrome_trace = true;
    } else if (a == "--engine-threads") {
      const int t = std::atoi(next("--engine-threads"));
      if (t < 1) {
        std::fprintf(stderr, "--engine-threads must be >= 1\n");
        usage(argv[0]);
      }
      o.spec.engine_threads = t;
    } else if (a == "--engine-domains") {
      const int d = std::atoi(next("--engine-domains"));
      if (d < 1) {
        std::fprintf(stderr, "--engine-domains must be >= 1\n");
        usage(argv[0]);
      }
      o.spec.engine_domains = d;
    } else if (a == "--sweep") {
      o.sweep_nodes = parse_sweep(next("--sweep"), argv[0]);
    } else if (a == "--threads") {
      const int t = std::atoi(next("--threads"));
      if (t < 1) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        usage(argv[0]);
      }
      o.threads = static_cast<unsigned>(t);
    } else if (a == "--json") {
      o.json = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      usage(argv[0]);
    }
  }
  // Validate the spec up front so a bad --impl/--network pair is reported by
  // name instead of surfacing as a silent exit mid-run. The sweep's node
  // axis replaces --nodes, so validate with its first point when present.
  run::ExperimentSpec probe = o.spec;
  if (!o.sweep_nodes.empty()) probe.nodes = o.sweep_nodes.front();
  if (const std::string err = run::validate(probe); !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    std::exit(2);
  }
  if (!o.sweep_nodes.empty() && !o.chrome_trace.empty()) {
    std::fprintf(stderr, "--chrome-trace applies to single runs only, not --sweep\n");
    std::exit(2);
  }
  return o;
}

/// Writes `text` (plus a trailing newline) to `path`; exits 2 on failure so
/// a bad --trace-file/--metrics-json/--chrome-trace path is loud.
void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(2);
  }
  std::fputs(text.c_str(), f);
  if (text.empty() || text.back() != '\n') std::fputc('\n', f);
  std::fclose(f);
}

void print_result(const run::RunResult& r) {
  std::printf("%s, %d nodes, %s\n", r.impl_name.c_str(), r.spec.nodes,
              std::string(run::to_string(r.spec.network)).c_str());
  std::printf("iterations: %llu\n", static_cast<unsigned long long>(r.iterations));
  std::printf("latency: mean %.2f us, min %.2f us, max %.2f us, p99 %.2f us\n",
              r.mean_us(), r.min_us(), r.max_us(), r.p99_us());
  std::printf("wire: %llu packets, %llu bytes, %llu dropped\n",
              static_cast<unsigned long long>(r.packets_sent),
              static_cast<unsigned long long>(r.bytes_sent),
              static_cast<unsigned long long>(r.packets_dropped));
  std::printf("recovery: %llu NACKs, %llu retransmissions\n",
              static_cast<unsigned long long>(r.nacks),
              static_cast<unsigned long long>(r.retransmissions));
  if (r.crc_dropped > 0) {
    std::printf("crc: %llu corrupted packets discarded at the NICs\n",
                static_cast<unsigned long long>(r.crc_dropped));
  }
  if (r.hw_probes > 0) {
    std::printf("hgsync: %llu probes, %llu failed\n",
                static_cast<unsigned long long>(r.hw_probes),
                static_cast<unsigned long long>(r.hw_failed_probes));
  }
  if (!r.group_stats.empty()) {
    std::printf("workload: %zu groups x %d ranks, %s arrivals, fairness %.4f\n",
                r.group_stats.size(), r.spec.workload.group_size,
                std::string(load::to_string(r.spec.workload.arrival)).c_str(),
                r.fairness);
    if (r.flood_sends > 0) {
      std::printf("flood: %d streams, %llu background messages\n",
                  r.spec.workload.flood_streams,
                  static_cast<unsigned long long>(r.flood_sends));
    }
    std::printf("%-8s %8s %12s %12s %12s %12s %10s\n", "group", "ops", "p50(us)",
                "p99(us)", "p999(us)", "max(us)", "backlog");
    for (const load::GroupStats& g : r.group_stats) {
      std::printf("%-8d %8llu %12.2f %12.2f %12.2f %12.2f %10llu\n", g.group,
                  static_cast<unsigned long long>(g.ops),
                  static_cast<double>(g.p50_picos) * 1e-6,
                  static_cast<double>(g.p99_picos) * 1e-6,
                  static_cast<double>(g.p999_picos) * 1e-6,
                  static_cast<double>(g.max_picos) * 1e-6,
                  static_cast<unsigned long long>(g.backlog_peak));
    }
  }
  std::printf("fingerprint: %016llx\n",
              static_cast<unsigned long long>(r.fingerprint()));
}

int run_single(const Options& o) {
  const auto r = run::run_experiment(o.spec);
  if (o.json) {
    std::printf("%s\n", run::to_json(r).c_str());
  } else {
    print_result(r);
  }
  if (r.trace_dropped > 0) {
    std::fprintf(stderr,
                 "warning: trace ring wrapped, %llu oldest events dropped; exports "
                 "are the tail of the timeline\n",
                 static_cast<unsigned long long>(r.trace_dropped));
  }
  if (o.spec.collect_trace) {
    // The CSV goes to its own file when asked; under --json it goes to
    // stderr so the stdout JSON stream stays parseable line-by-line.
    if (!o.trace_file.empty()) {
      write_file(o.trace_file, r.trace_csv);
    } else {
      std::fputs(r.trace_csv.c_str(), o.json ? stderr : stdout);
    }
  }
  if (!o.metrics_json.empty()) write_file(o.metrics_json, run::metrics_to_json(r.metrics));
  if (!o.chrome_trace.empty()) write_file(o.chrome_trace, r.trace_json);
  return 0;
}

int run_sweep(const Options& o) {
  std::vector<run::ExperimentSpec> specs;
  specs.reserve(o.sweep_nodes.size());
  for (std::size_t i = 0; i < o.sweep_nodes.size(); ++i) {
    run::ExperimentSpec s = o.spec;
    s.nodes = o.sweep_nodes[i];
    // Per-point seeds stay deterministic but decorrelated along the axis.
    s.seed = run::seed_for(o.spec.seed, i);
    specs.push_back(s);
  }
  const run::SweepRunner runner(o.threads);
  const auto results = runner.run(specs);
  if (!o.metrics_json.empty()) {
    // One array element per sweep point, keyed by node count.
    std::string doc = "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i > 0) doc += ',';
      doc += "{\"nodes\":" + std::to_string(results[i].spec.nodes) +
             ",\"metrics\":" + run::metrics_to_json(results[i].metrics) + "}";
    }
    doc += "]";
    write_file(o.metrics_json, doc);
  }
  if (o.json) {
    for (const auto& r : results) std::printf("%s\n", run::to_json(r).c_str());
    return 0;
  }
  std::printf("%s sweep, %s/%s, %zu points, %u threads\n",
              std::string(run::to_string(o.spec.op)).c_str(),
              std::string(run::to_string(o.spec.network)).c_str(),
              std::string(run::to_string(o.spec.impl)).c_str(), results.size(),
              runner.threads());
  std::printf("%-8s %12s %12s %12s %12s %14s %18s\n", "nodes", "mean(us)", "min(us)",
              "max(us)", "p99(us)", "packets", "fingerprint");
  for (const auto& r : results) {
    std::printf("%-8d %12.2f %12.2f %12.2f %12.2f %14llu   %016llx\n", r.spec.nodes,
                r.mean_us(), r.min_us(), r.max_us(), r.p99_us(),
                static_cast<unsigned long long>(r.packets_sent),
                static_cast<unsigned long long>(r.fingerprint()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return o.sweep_nodes.empty() ? run_single(o) : run_sweep(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
