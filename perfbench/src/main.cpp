// qmb_perfbench: runs one benchmark workload for a fixed host-time budget
// and prints its metrics. The last line of stdout is one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
//
// --trace 0 reports the end-to-end metrics, measured through
// run::run_experiment exactly as qmbsim, bench_suite and the fuzzer call it.
// --trace 1 reports the per-layer metrics from the traced driver
// (traced.hpp), which times each layer call from outside the program.
// Exits 1 when any point run failed a correctness check, 2 on usage
// errors and 3 on a build that must not be benchmarked.
//
//   qmb_perfbench --workload scale-seq --seed 1 --seconds 10 --trace 0
//                 [--out record.json]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "machine.hpp"
#include "obs/json.hpp"
#include "run/substrate.hpp"
#include "run/sweep.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace run = qmb::run;
namespace obs = qmb::obs;
using Clock = std::chrono::steady_clock;

// Every timed pass is repeated at least this often, however short
// --seconds is, so each reported host time is a median of several.
constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 2;
// Before every timed pass the set-up is repeated for kSetupSliceS, and at
// least kSetupMinRepeats times. The pass's sample sums, over the points,
// each point's fastest set-up in that slice: other tenants of a shared host
// only ever add time. setup_s is the median of the passes' samples.
constexpr double kSetupSliceS = 0.2;
constexpr int kSetupMinRepeats = 4;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string label(const run::ExperimentSpec& s) {
  const std::string op =
      s.workload.enabled() ? "mix/g" + std::to_string(s.workload.groups)
                           : std::string(run::to_string(s.op));
  std::string l = std::string(run::to_string(s.network)) + "/" +
                  std::string(run::to_string(s.impl)) + "/" + op + "/n" +
                  std::to_string(s.nodes);
  if (s.engine_domains > 1) l += "/pdes" + std::to_string(s.engine_threads) + "t";
  return l;
}

/// One point execution through the public entry point, timed by us (not
/// RunResult::host_seconds, which also covers cluster build and teardown).
struct PointRun {
  run::RunResult r;
  double call_s = 0.0;
  std::string error;  // non-empty when the run threw
};

struct Pass {
  std::vector<PointRun> runs;
  double wall_s = 0.0;
};

PointRun run_point(const run::ExperimentSpec& s) {
  PointRun pr;
  const auto t0 = Clock::now();
  try {
    pr.r = run::run_experiment(s);
  } catch (const std::exception& e) {
    pr.error = e.what();
  }
  pr.call_s = seconds_since(t0);
  return pr;
}

Pass run_pass(const Plan& plan) {
  Pass p;
  const auto t0 = Clock::now();
  p.runs = run::SweepRunner(plan.sweep_threads)
               .map<PointRun>(plan.points.size(),
                              [&](std::size_t i) { return run_point(plan.points[i]); });
  p.wall_s = seconds_since(t0);
  return p;
}

struct TracedPass {
  std::vector<TracedRun> runs;
  std::vector<std::string> errors;
};

TracedPass run_traced_pass(const Plan& plan) {
  TracedPass p;
  p.runs.resize(plan.points.size());
  p.errors.resize(plan.points.size());
  const auto one = [&](std::size_t i) {
    try {
      p.runs[i] = run_traced(plan.points[i]);
    } catch (const std::exception& e) {
      p.errors[i] = e.what();
    }
  };
  run::SweepRunner(plan.sweep_threads).for_each_index(plan.points.size(), one);
  return p;
}

/// Counts point runs and the ones that failed: a throw, value errors,
/// missing completions, or a fingerprint other than the expected one.
class Checker {
 public:
  void check(const std::string& what, const std::string& error, const run::RunResult& r,
             std::optional<std::uint64_t> expected_fp) {
    ++attempted_;
    std::string why;
    if (!error.empty()) {
      why = "threw: " + error;
    } else if (r.value_errors > 0) {
      why = std::to_string(r.value_errors) + " value errors";
    } else if (r.ops_done != r.ops_expected) {
      why = "ops_done " + std::to_string(r.ops_done) + " != ops_expected " +
            std::to_string(r.ops_expected);
    } else if (expected_fp && r.fingerprint() != *expected_fp) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "fingerprint %016llx != expected %016llx",
                    static_cast<unsigned long long>(r.fingerprint()),
                    static_cast<unsigned long long>(*expected_fp));
      why = buf;
    }
    if (why.empty()) return;
    ++failed_;
    std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), why.c_str());
  }
  void pass(const Plan& plan, const Pass& p, const std::vector<std::uint64_t>& ref) {
    for (std::size_t i = 0; i < p.runs.size(); ++i) {
      check(label(plan.points[i]), p.runs[i].error, p.runs[i].r, ref[i]);
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::vector<std::uint64_t> fingerprints(const Pass& p) {
  std::vector<std::uint64_t> fps;
  for (const PointRun& pr : p.runs) fps.push_back(pr.error.empty() ? pr.r.fingerprint() : 0);
  return fps;
}

/// Host seconds to build each point's cluster and executor on a fresh
/// engine (run_on's set-up, without the run), folded into `best` by
/// minimum. Workload points build their executors inside
/// load::run_workload, so only their cluster counts.
void setup_once(const Plan& plan, std::vector<double>& best) {
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    const run::ExperimentSpec& s = plan.points[i];
    qmb::sim::Engine engine;
    const auto t0 = Clock::now();
    auto cluster = run::substrate_for(s.network).build_cluster(engine, s, nullptr);
    engine.set_threads(s.engine_threads);
    std::vector<int> placement = qmb::core::identity_placement(s.nodes);
    if (s.random_placement) {
      qmb::sim::Rng rng(s.seed);
      placement = qmb::core::random_placement(s.nodes, rng);
    }
    std::unique_ptr<qmb::core::Barrier> barrier;
    std::unique_ptr<qmb::core::Collective> op;
    if (!s.workload.enabled()) {
      if (s.op == qmb::coll::OpKind::kBarrier) {
        barrier = cluster->make_barrier(s, std::move(placement));
      } else {
        op = cluster->make_collective(s, std::move(placement));
      }
    }
    best[i] = std::min(best[i], seconds_since(t0));
  }
}

void sample_setup(const Plan& plan, std::vector<double>& samples) {
  std::vector<double> best(plan.points.size(), HUGE_VAL);
  const auto t0 = Clock::now();
  for (int k = 0; k < kSetupMinRepeats || seconds_since(t0) < kSetupSliceS; ++k) {
    setup_once(plan, best);
  }
  samples.push_back(std::accumulate(best.begin(), best.end(), 0.0));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Worst tail over the points: each point's p99 over all its samples (in
/// workload mode, every group's). The highest per-group p99 is an extreme
/// over 16 groups and swings by tens of percent between seeds; it is
/// reported per layer as load.worst_group_p99_us instead.
double worst_p99_us(const std::vector<PointRun>& runs) {
  std::int64_t worst = 0;
  for (const PointRun& pr : runs) worst = std::max(worst, pr.r.p99_picos);
  return static_cast<double>(worst) * 1e-6;
}

double geomean_latency_us(const std::vector<PointRun>& runs) {
  double log_sum = 0.0;
  for (const PointRun& pr : runs) log_sum += std::log(pr.r.mean_us());
  return std::exp(log_sum / static_cast<double>(runs.size()));
}

/// The paper-anchor points, run and checked; returns paper_err_pct.
double anchor_error(Checker& checker) {
  const std::vector<run::ExperimentSpec> specs = anchor_specs();
  std::vector<double> means;
  for (const run::ExperimentSpec& s : specs) {
    const PointRun pr = run_point(s);
    checker.check("anchor " + label(s), pr.error, pr.r, std::nullopt);
    means.push_back(pr.error.empty() ? pr.r.mean_us() : 0.0);
  }
  const double err = paper_err_pct(means);
  std::printf("# paper anchors: mean abs error %.3f %%\n", err);
  return err;
}

/// Sequential twins of the PDES points must reproduce their fingerprints.
void check_twins(const Plan& plan, const std::vector<std::uint64_t>& ref, Checker& checker) {
  for (const Twin& t : plan.twins) {
    const PointRun pr = run_point(t.sequential);
    checker.check("sequential twin of " + label(plan.points[t.point]), pr.error, pr.r,
                  ref[t.point]);
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::uint64_t>> point_fps;
};

void record_points(const Plan& plan, const Pass& p, Outcome& out) {
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    const run::RunResult& r = p.runs[i].r;
    out.point_fps.emplace_back(label(plan.points[i]), r.fingerprint());
    if (plan.points.size() <= 8) {
      std::printf("# point %-32s mean %.3f us  p99 %.3f us  %llu events  %.3f s\n",
                  label(plan.points[i]).c_str(), r.mean_us(), r.p99_us(),
                  static_cast<unsigned long long>(r.events_fired), p.runs[i].call_s);
    }
  }
}

Outcome end_to_end(const Plan& plan, double seconds, Checker& checker) {
  Outcome out;
  // The first pass warms caches and fixes the reference fingerprints every
  // later pass (and every sequential twin) must reproduce.
  const Pass warm = run_pass(plan);
  const std::vector<std::uint64_t> ref = fingerprints(warm);
  checker.pass(plan, warm, ref);
  record_points(plan, warm, out);
  check_twins(plan, ref, checker);
  const double paper_err = anchor_error(checker);

  // Host time is noisy call to call, so each point's time is the median of
  // its calls over all passes; throughput is total ops over their sum.
  std::vector<std::vector<double>> call_s(plan.points.size());
  std::vector<double> setups;
  int passes = 0;
  const auto t0 = Clock::now();
  while (passes < kMinPasses || seconds_since(t0) < seconds) {
    sample_setup(plan, setups);
    const Pass p = run_pass(plan);
    checker.pass(plan, p, ref);
    for (std::size_t i = 0; i < p.runs.size(); ++i) call_s[i].push_back(p.runs[i].call_s);
    ++passes;
  }
  std::printf("# %d timed passes in %.2f s\n", passes, seconds_since(t0));
  double ops = 0.0;
  double busy = 0.0;
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    ops += static_cast<double>(warm.runs[i].r.ops_done);
    busy += median(call_s[i]);
  }

  out.metrics = {
      {"rank_ops_per_s", ops / busy, "ops/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_latency_us", geomean_latency_us(warm.runs), "sim_us"},
      {"sim_p99_us", worst_p99_us(warm.runs), "sim_us"},
      {"paper_err_pct", paper_err, "%"},
  };
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Outcome per_layer(const Plan& plan, double seconds, Checker& checker) {
  Outcome out;
  // The warm pass fixes the reference every traced run must reproduce.
  const Pass real = run_pass(plan);
  const std::vector<std::uint64_t> ref = fingerprints(real);
  checker.pass(plan, real, ref);
  record_points(plan, real, out);

  std::vector<double> build, make, loop, teardown, wall, busy, ns_per_event, overhead, speedup;
  double events_total = 0.0;
  for (const PointRun& pr : real.runs) events_total += static_cast<double>(pr.r.events_fired);
  const auto t0 = Clock::now();
  while (static_cast<int>(build.size()) < kMinTracedPasses || seconds_since(t0) < seconds) {
    const TracedPass tp = run_traced_pass(plan);
    const Pass up = run_pass(plan);
    checker.pass(plan, up, ref);
    Spans sum;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
      checker.check("traced " + label(plan.points[i]), tp.errors[i], tp.runs[i].result, ref[i]);
      sum.build_s += tp.runs[i].spans.build_s;
      sum.make_s += tp.runs[i].spans.make_s;
      sum.loop_s += tp.runs[i].spans.loop_s;
      sum.teardown_s += tp.runs[i].spans.teardown_s;
    }
    double up_busy = 0.0;
    for (const PointRun& pr : up.runs) up_busy += pr.call_s;
    build.push_back(sum.build_s);
    make.push_back(sum.make_s);
    loop.push_back(sum.loop_s);
    teardown.push_back(sum.teardown_s);
    wall.push_back(up.wall_s);
    busy.push_back(up_busy);
    ns_per_event.push_back(ratio(sum.loop_s * 1e9, events_total));
    overhead.push_back((sum.total() / up_busy - 1.0) * 100.0);
    if (!plan.twins.empty()) {
      double seq_loop = 0.0;
      double par_loop = 0.0;
      for (const Twin& t : plan.twins) {
        TracedRun seq;
        std::string error;
        try {
          seq = run_traced(t.sequential);
        } catch (const std::exception& e) {
          error = e.what();
        }
        checker.check("sequential twin of " + label(plan.points[t.point]), error, seq.result,
                      ref[t.point]);
        seq_loop += seq.spans.loop_s;
        par_loop += tp.runs[t.point].spans.loop_s;
      }
      speedup.push_back(ratio(seq_loop, par_loop));
    }
  }
  std::printf("# %zu traced passes in %.2f s\n", build.size(), seconds_since(t0));

  // Counters are deterministic: read them from the reference pass.
  const auto total = [&](const char* name) {
    double t = 0.0;
    for (const PointRun& pr : real.runs) t += static_cast<double>(metric_total(pr.r.metrics, name));
    return t;
  };
  double ops = 0.0, scheduled = 0.0, windows = 0.0, domain_events = 0.0, imbalance = 1.0;
  double backlog_peak = 0.0, fairness = 1.0, prescheduled = 0.0, flood = 0.0;
  double worst_group_p99_us = 0.0;
  int domains = 1;
  for (const PointRun& pr : real.runs) {
    const run::RunResult& r = pr.r;
    ops += static_cast<double>(r.ops_done);
    scheduled += static_cast<double>(r.events_scheduled);
    domains = std::max(domains, r.pdes_domains);
    windows += static_cast<double>(r.pdes_windows);
    if (!r.pdes_domain_events.empty()) {
      double sum = 0.0, peak = 0.0;
      for (const std::uint64_t e : r.pdes_domain_events) {
        sum += static_cast<double>(e);
        peak = std::max(peak, static_cast<double>(e));
      }
      domain_events += sum;
      imbalance = std::max(
          imbalance, peak / (sum / static_cast<double>(r.pdes_domain_events.size())));
    }
    const qmb::load::WorkloadSpec& w = r.spec.workload;
    if (w.enabled()) {
      for (const qmb::load::GroupStats& g : r.group_stats) {
        backlog_peak = std::max(backlog_peak, static_cast<double>(g.backlog_peak));
        worst_group_p99_us =
            std::max(worst_group_p99_us, static_cast<double>(g.p99_picos) * 1e-6);
      }
      fairness = std::min(fairness, r.fairness);
      flood += static_cast<double>(r.flood_sends);
      if (w.arrival != qmb::load::Arrival::kClosed) {
        prescheduled += static_cast<double>(w.groups) * (r.spec.warmup + r.spec.iters);
      }
    }
  }
  const auto counters = [&](std::initializer_list<const char*> names) {
    for (const char* name : names) out.metrics.push_back({name, total(name), "count"});
  };
  out.metrics = {
      {"run.build_s", median(build), "s"},
      {"run.make_s", median(make), "s"},
      {"run.loop_s", median(loop), "s"},
      {"run.teardown_s", median(teardown), "s"},
      {"run.sweep_wall_s", median(wall), "s"},
      {"run.sweep_busy_s", median(busy), "s"},
      {"sim.events_fired", events_total, "count"},
      {"sim.events_scheduled", scheduled, "count"},
      {"sim.events_per_rank_op", ratio(events_total, ops), "events/op"},
      {"sim.host_ns_per_event", median(ns_per_event), "ns/event"},
      {"sim.pdes_domains", static_cast<double>(domains), "count"},
      {"sim.pdes_windows", windows, "count"},
      {"sim.pdes_events_per_window", ratio(domain_events, windows), "events/window"},
      {"sim.pdes_domain_imbalance", imbalance, "max/mean"},
      {"sim.pdes_speedup", speedup.empty() ? 1.0 : median(speedup), "x"},
  };
  const auto add = [&](const char* name, double value, const char* unit) {
    out.metrics.push_back({name, value, unit});
  };
  counters({"fabric.packets_sent", "fabric.bytes_sent", "fabric.packets_dropped",
            "fault.dropped"});
  add("fabric.packets_per_rank_op", ratio(total("fabric.packets_sent"), ops), "packets/op");
  counters({"mcp.data_packets_sent", "mcp.acks_sent", "mcp.retransmissions",
            "mcp.buffer_stalls"});
  add("mcp.retx_ratio", ratio(total("mcp.retransmissions"), total("mcp.data_packets_sent")),
      "ratio");
  counters({"coll.msgs_sent", "coll.nacks_sent", "coll.retransmissions", "coll.early_buffered",
            "coll.duplicates"});
  add("coll.retx_ratio", ratio(total("coll.retransmissions"), total("coll.msgs_sent")), "ratio");
  counters({"elan.rdma_issued", "elan.events_fired", "elan.host_notifies", "hw.probes_sent"});
  add("hw.failed_probe_ratio", ratio(total("hw.failed_probes"), total("hw.probes_sent")),
      "ratio");
  counters({"ib.writes_posted", "ib.acks_sent", "ib.retransmissions", "ib.rto_fires"});
  add("ib.retx_ratio", ratio(total("ib.retransmissions"), total("ib.writes_posted")), "ratio");
  add("load.flood_sends", flood, "count");
  add("load.backlog_peak", backlog_peak, "count");
  add("load.fairness", fairness, "jain");
  add("load.prescheduled_arrivals", prescheduled, "count");
  add("load.worst_group_p99_us", worst_group_p99_us, "sim_us");
  add("trace.overhead_pct", median(overhead), "%");
  return out;
}

struct Options {
  Workload workload = Workload::kScaleSeq;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: qmb_perfbench --workload <scale-seq|scale-pdes|"
               "paper-sweep|tenancy-lossy> --seed N --seconds S --trace 0|1 "
               "[--out FILE]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& o, std::string& err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + a;
      return false;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      const auto w = parse_workload(v);
      if (!w) {
        err = "unknown workload '" + v + "'";
        return false;
      }
      o.workload = *w;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o.trace = v != "0";
    } else if (a == "--out") {
      o.out_path = v;
    } else {
      err = "unknown option " + a;
      return false;
    }
  }
  if (!have_workload) err = "--workload is required";
  return have_workload;
}

obs::JsonValue metrics_json(const std::vector<Metric>& metrics) {
  obs::JsonValue m = obs::JsonValue::make_object();
  for (const Metric& x : metrics) {
    obs::JsonValue v = obs::JsonValue::make_object();
    v.set("value", obs::JsonValue::of(x.value));
    v.set("unit", obs::JsonValue::of(x.unit));
    m.set(x.name, std::move(v));
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (std::string err; !parse(argc, argv, opt, err)) return usage(err.c_str());
  if (const std::string why = build_problem(); !why.empty()) {
    std::fprintf(stderr, "error: refusing to benchmark this build: %s\n", why.c_str());
    return 3;
  }
  const MachineId machine = machine_id();
  const Plan plan = plan_for(opt.workload, opt.seed, machine.nproc);
  std::printf("# machine %s\n", machine.to_json().c_str());
  std::printf("# workload %s seed %llu: %zu points, %zu sequential twins\n",
              std::string(to_string(opt.workload)).c_str(),
              static_cast<unsigned long long>(opt.seed), plan.points.size(),
              plan.twins.size());
  std::fflush(stdout);

  Checker checker;
  Outcome out = opt.trace ? per_layer(plan, opt.seconds, checker)
                          : end_to_end(plan, opt.seconds, checker);
  const bool correct = checker.failed() == 0;

  for (const Metric& m : out.metrics) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!opt.out_path.empty()) {
    obs::JsonValue rec = obs::JsonValue::make_object();
    rec.set("schema", obs::JsonValue::of("qmb-perfbench/1"));
    rec.set("workload", obs::JsonValue::of(to_string(opt.workload)));
    rec.set("seed", obs::JsonValue::of(std::to_string(opt.seed)));
    rec.set("trace", obs::JsonValue::of(opt.trace));
    rec.set("machine", obs::JsonValue::parse(machine.to_json()));
    rec.set("correct", obs::JsonValue::of(correct));
    // Poisson inter-arrival draws go through libm, which may round
    // differently under another compiler or C library.
    const bool poisson = std::any_of(plan.points.begin(), plan.points.end(), [](const auto& s) {
      return s.workload.enabled() && s.workload.arrival == qmb::load::Arrival::kPoisson;
    });
    rec.set("poisson_arrivals", obs::JsonValue::of(poisson));
    rec.set("metrics", metrics_json(out.metrics));
    obs::JsonValue points = obs::JsonValue::make_object();
    for (const auto& [name, fp] : out.point_fps) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
      points.set(name, obs::JsonValue::of(buf));
    }
    rec.set("fingerprints", std::move(points));
    std::ofstream(opt.out_path) << rec.dump() << "\n";
  }

  obs::JsonValue result = obs::JsonValue::make_object();
  result.set("correct", obs::JsonValue::of(correct));
  result.set("attempted", obs::JsonValue::of(checker.attempted()));
  result.set("failed", obs::JsonValue::of(checker.failed()));
  result.set("metrics", metrics_json(out.metrics));
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
