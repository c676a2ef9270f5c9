#include "traced.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/cluster.hpp"
#include "load/runner.hpp"
#include "run/substrate.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace run = qmb::run;
namespace sim = qmb::sim;

namespace {

using Clock = std::chrono::steady_clock;

/// Times one layer call into `seconds`.
class Stage {
 public:
  explicit Stage(double& seconds) : seconds_(seconds), start_(Clock::now()) {}
  ~Stage() { seconds_ = std::chrono::duration<double>(Clock::now() - start_).count(); }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  double& seconds_;
  Clock::time_point start_;
};

/// run_on's fill_latency, minus the post-run histogram registration
/// (not a fingerprint input).
void fill_latency(run::RunResult& out, const qmb::core::BarrierRunResult& r) {
  out.iterations = r.iterations;
  out.mean_picos = r.mean.picos();
  out.min_picos = r.per_iteration.min().picos();
  out.max_picos = r.per_iteration.max().picos();
  out.p99_picos = r.per_iteration.percentile(99).picos();
}

/// run_on's fill_engine: the named counters the fingerprint digests, and
/// the registry snapshot the per-layer metrics read.
void fill_engine(run::RunResult& out, const sim::Engine& engine) {
  out.events_scheduled = engine.events_scheduled();
  out.events_fired = engine.events_fired();
  const qmb::obs::MetricRegistry& reg = engine.metrics();
  out.packets_sent = reg.total("fabric.packets_sent");
  out.bytes_sent = reg.total("fabric.bytes_sent");
  out.packets_dropped = reg.total("fabric.packets_dropped");
  out.nacks = reg.total("coll.nacks_sent") + reg.total("ib.naks_sent");
  out.retransmissions = reg.total("coll.retransmissions") +
                        reg.total("mcp.retransmissions") + reg.total("ib.retransmissions");
  out.hw_probes = reg.total("hw.probes_sent");
  out.hw_failed_probes = reg.total("hw.failed_probes");
  out.crc_dropped = reg.total("nic.crc_dropped");
  out.metrics = reg.snapshot();
}

bool needs_single_span(const run::ExperimentSpec& s) {
  const bool value_op = !s.workload.enabled() && s.op != qmb::coll::OpKind::kBarrier;
  return value_op || s.skew_max_us > 0.0 || s.overlap_us >= 0.0 || s.collect_trace ||
         s.chrome_trace;
}

}  // namespace

std::uint64_t metric_total(const std::vector<qmb::obs::MetricValue>& m,
                           std::string_view name) {
  std::uint64_t total = 0;
  for (const qmb::obs::MetricValue& v : m) {
    if (v.name == name) total += v.value;
  }
  return total;
}

TracedRun run_traced(const run::ExperimentSpec& s) {
  if (const std::string err = run::validate(s); !err.empty()) {
    throw std::invalid_argument(err);
  }
  TracedRun tr;
  if (needs_single_span(s)) {
    tr.single_span = true;
    {
      Stage st(tr.spans.loop_s);
      tr.result = run::run_experiment(s);
    }
    return tr;
  }

  run::RunResult& out = tr.result;
  out.spec = s;
  auto engine = std::make_unique<sim::Engine>();
  std::unique_ptr<run::SubstrateCluster> cluster;
  std::unique_ptr<qmb::core::Barrier> barrier;
  std::vector<int> placement;
  {
    Stage st(tr.spans.build_s);
    cluster = run::substrate_for(s.network).build_cluster(*engine, s, nullptr);
    engine->set_threads(s.engine_threads);
    if (s.drop_prob > 0) {
      cluster->fabric().faults().add_random_rule(std::nullopt, std::nullopt, s.drop_prob,
                                                 s.seed);
    }
    cluster->fabric().faults().install(s.faults);
    if (s.random_placement) {
      sim::Rng rng(s.seed);
      placement = qmb::core::random_placement(s.nodes, rng);
    } else {
      placement = qmb::core::identity_placement(s.nodes);
    }
  }
  if (s.workload.enabled()) {
    out.ops_expected = static_cast<std::uint64_t>(s.workload.groups) *
                       static_cast<std::uint64_t>(s.workload.group_size) *
                       static_cast<std::uint64_t>(s.warmup + s.iters);
    qmb::load::WorkloadOutcome wo;
    {
      Stage st(tr.spans.loop_s);
      wo = qmb::load::run_workload(*engine, *cluster, s);
    }
    out.impl_name = wo.impl_name;
    qmb::core::BarrierRunResult agg;
    agg.per_iteration = std::move(wo.latency);
    agg.iterations = agg.per_iteration.count();
    agg.mean = agg.per_iteration.mean();
    fill_latency(out, agg);
    out.value_errors = wo.value_errors;
    out.group_stats = std::move(wo.groups);
    out.fairness = wo.fairness;
    out.flood_sends = wo.flood_sends;
    out.ops_done = wo.ops_done;
  } else {
    out.ops_expected =
        static_cast<std::uint64_t>(s.nodes) * static_cast<std::uint64_t>(s.warmup + s.iters);
    std::vector<int> rank_domain;
    if (cluster->fabric().domains() > 1) {
      for (const int node : placement) {
        rank_domain.push_back(cluster->fabric().domain_of(qmb::net::NicAddr(node)));
      }
    }
    {
      Stage st(tr.spans.make_s);
      barrier = cluster->make_barrier(s, std::move(placement));
    }
    out.impl_name = std::string(barrier->name());
    qmb::core::BarrierRunResult r;
    {
      Stage st(tr.spans.loop_s);
      r = qmb::core::run_consecutive_barriers(*engine, *barrier, s.warmup, s.iters,
                                              sim::SimDuration::zero(), 0,
                                              sim::milliseconds(s.horizon_ms),
                                              rank_domain.empty() ? nullptr : &rank_domain);
    }
    fill_latency(out, r);
    out.ops_done = out.ops_expected;  // the runner throws otherwise
  }
  fill_engine(out, *engine);
  out.pdes_domains = cluster->fabric().domains();
  out.pdes_windows = engine->windows_run();
  if (engine->domains() > 1) {
    for (int d = 0; d < engine->domains(); ++d) {
      out.pdes_domain_events.push_back(engine->domain_events_fired(d));
    }
  }
  {
    Stage st(tr.spans.teardown_s);
    barrier.reset();
    cluster.reset();
    engine.reset();
  }
  return tr;
}

}  // namespace perfbench
