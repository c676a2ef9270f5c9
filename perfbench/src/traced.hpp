// Traced driver: rebuilds one experiment point from the layers' public
// functions instead of calling run::run_experiment, and times each layer
// boundary from outside the program:
//
//   build     Substrate::build_cluster, engine threads, drop rule, fault
//             plan and placement (run_on's order)
//   make      SubstrateCluster::make_barrier
//   loop      core::run_consecutive_barriers, or load::run_workload
//   teardown  destroying the executor, the cluster and the engine
//
// The result it assembles must equal run_experiment's for the same spec:
// fingerprint, mean and events_fired (perfbench_test checks this for one
// point of every workload).
//
// Gaps, left for tracing inside the program:
//  - value collectives (bcast/allreduce/...) have no public runner; the
//    run layer's run_collective is file-local. Such points, and any spec
//    using skew, split-phase overlap or trace capture, run through
//    run_experiment as one span, recorded as `loop`.
//  - in workload mode the per-group executors are built inside
//    load::run_workload, so their construction is part of `loop`.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "run/experiment.hpp"

namespace perfbench {

/// Host seconds spent in each layer call of one point.
struct Spans {
  double build_s = 0.0;
  double make_s = 0.0;
  double loop_s = 0.0;
  double teardown_s = 0.0;
  [[nodiscard]] double total() const { return build_s + make_s + loop_s + teardown_s; }
};

struct TracedRun {
  qmb::run::RunResult result;
  Spans spans;
  /// True when the point ran through run_experiment as a single span.
  bool single_span = false;
};

/// Runs `spec` layer by layer, timing each layer call. Throws like
/// run_experiment.
[[nodiscard]] TracedRun run_traced(const qmb::run::ExperimentSpec& spec);

/// Sum of a counter in a metric snapshot (0 when absent).
[[nodiscard]] std::uint64_t metric_total(const std::vector<qmb::obs::MetricValue>& m,
                                         std::string_view name);

}  // namespace perfbench
