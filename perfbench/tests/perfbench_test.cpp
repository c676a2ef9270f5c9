// The benchmark's own tests: the traced driver must reproduce the real run,
// workloads must be pure functions of their seed, and the sequential and
// PDES scale workloads must be twins. Points keep their workload's shape
// (network, node count, groups, loss) but run fewer iterations, so the
// suite finishes in seconds.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "run/experiment.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using qmb::run::ExperimentSpec;
using qmb::run::RunResult;

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

ExperimentSpec shortened(ExperimentSpec s) {
  if (s.workload.enabled()) {
    s.warmup = 10;
    s.iters = 150;
  } else {
    s.warmup = std::min(s.warmup, 2);
    s.iters = std::min(s.iters, 3);
  }
  return s;
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.mean_picos, b.mean_picos);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.ops_done, b.ops_done);
}

class EveryWorkload : public ::testing::TestWithParam<Workload> {};

TEST_P(EveryWorkload, TracedDriverReproducesRunExperiment) {
  const Plan plan = plan_for(GetParam(), 7, nproc());
  ASSERT_FALSE(plan.points.empty());
  const ExperimentSpec s = shortened(plan.points.front());
  const RunResult real = qmb::run::run_experiment(s);
  const TracedRun traced = run_traced(s);
  EXPECT_FALSE(traced.single_span);
  expect_same_run(real, traced.result);
  EXPECT_EQ(real.pdes_domains, traced.result.pdes_domains);
  EXPECT_EQ(real.pdes_windows, traced.result.pdes_windows);
  EXPECT_GT(traced.spans.build_s, 0.0);
  EXPECT_GT(traced.spans.loop_s, 0.0);
  EXPECT_GT(traced.spans.teardown_s, 0.0);
}

TEST_P(EveryWorkload, SameSeedSamePointsAndResults) {
  const Plan a = plan_for(GetParam(), 11, nproc());
  const Plan b = plan_for(GetParam(), 11, nproc());
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].seed, b.points[i].seed);
    EXPECT_EQ(a.points[i].nodes, b.points[i].nodes);
    EXPECT_EQ(a.points[i].workload, b.points[i].workload);
  }
  const ExperimentSpec s = shortened(a.points.back());
  expect_same_run(qmb::run::run_experiment(s), qmb::run::run_experiment(s));
}

INSTANTIATE_TEST_SUITE_P(Perfbench, EveryWorkload, ::testing::ValuesIn(all_workloads()),
                         [](const auto& info) {
                           std::string n(to_string(info.param));
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(Perfbench, ValueCollectivePointRunsAsOneSpan) {
  const Plan plan = plan_for(Workload::kPaperSweep, 3, nproc());
  const auto it = std::find_if(plan.points.begin(), plan.points.end(), [](const auto& s) {
    return s.op != qmb::coll::OpKind::kBarrier;
  });
  ASSERT_NE(it, plan.points.end());
  const ExperimentSpec s = shortened(*it);
  const TracedRun traced = run_traced(s);
  EXPECT_TRUE(traced.single_span);
  expect_same_run(qmb::run::run_experiment(s), traced.result);
}

TEST(Perfbench, SecondSeedChangesTenancyArrivals) {
  const ExperimentSpec a = shortened(plan_for(Workload::kTenancyLossy, 1, nproc()).points[0]);
  const ExperimentSpec b = shortened(plan_for(Workload::kTenancyLossy, 2, nproc()).points[0]);
  EXPECT_NE(a.seed, b.seed);
  const RunResult ra = qmb::run::run_experiment(a);
  const RunResult rb = qmb::run::run_experiment(b);
  EXPECT_NE(ra.fingerprint(), rb.fingerprint());
  ASSERT_FALSE(ra.group_stats.empty());
  ASSERT_EQ(ra.group_stats.size(), rb.group_stats.size());
  // Different Poisson draws move the groups' arrival -> completion spans.
  bool any_makespan_differs = false;
  for (std::size_t g = 0; g < ra.group_stats.size(); ++g) {
    any_makespan_differs |= ra.group_stats[g].makespan_picos != rb.group_stats[g].makespan_picos;
  }
  EXPECT_TRUE(any_makespan_differs);
}

TEST(Perfbench, ScaleSeqAndScalePdesAreTwins) {
  const Plan seq = plan_for(Workload::kScaleSeq, 5, nproc());
  const Plan par = plan_for(Workload::kScalePdes, 5, std::max(2u, nproc()));
  ASSERT_EQ(seq.points.size(), par.points.size());
  ASSERT_EQ(par.twins.size(), par.points.size());
  for (std::size_t i = 0; i < seq.points.size(); ++i) {
    EXPECT_EQ(seq.points[i].engine_threads, 1);
    EXPECT_EQ(seq.points[i].engine_domains, 0);
    EXPECT_GT(par.points[i].engine_threads, 1);
    EXPECT_EQ(par.twins[i].sequential.seed, seq.points[i].seed);
    const RunResult rs = qmb::run::run_experiment(shortened(seq.points[i]));
    const RunResult rp = qmb::run::run_experiment(shortened(par.points[i]));
    EXPECT_GT(rp.pdes_domains, 1);
    EXPECT_EQ(rs.fingerprint(), rp.fingerprint());
  }
}

TEST(Perfbench, PlansStayWithinTheHost) {
  for (const Workload w : all_workloads()) {
    const Plan p = plan_for(w, 1, 1);
    EXPECT_EQ(p.sweep_threads, 1u);
    for (const ExperimentSpec& s : p.points) {
      EXPECT_EQ(s.engine_threads, 1);
      EXPECT_EQ(qmb::run::validate(s), "");
    }
    // The PDES workloads keep their windowed engine on a single core.
    if (w == Workload::kScalePdes) {
      EXPECT_EQ(p.twins.size(), p.points.size());
    }
  }
  const Plan sweep = plan_for(Workload::kPaperSweep, 1, 64);
  EXPECT_EQ(sweep.points.size(), 11u * 15u + 12u + 1u);
  EXPECT_EQ(sweep.twins.size(), 1u);
}

TEST(Perfbench, PaperErrorIsZeroOnTheAnchorsThemselves) {
  // Latencies that reproduce every anchor exactly: factors built on top.
  std::vector<double> means(anchor_specs().size(), 1.0);
  for (const Anchor& a : anchors()) {
    if (!a.den) means[a.num] = a.paper;
  }
  for (const Anchor& a : anchors()) {
    if (a.den) means[a.num] = a.paper * means[*a.den];
  }
  EXPECT_NEAR(paper_err_pct(means), 0.0, 1e-9);
  means[0] *= 1.1;  // the 14.20 us anchor off by 10 %, which also moves its factor
  EXPECT_GT(paper_err_pct(means), 1.0);
}

}  // namespace
