// Pins the operation-window counters that RunResult::fingerprint() does not
// fold in: how many arrivals each NIC engine classified as early, duplicate
// or stale, and how many operations it completed. The fingerprint only
// proves event order; these exact totals prove every engine still counts
// the same arrivals the same way. One fixed-seed point per substrate, with
// entry skew everywhere and wire loss where the substrate can recover it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "run/experiment.hpp"

namespace qmb::run {
namespace {

std::map<std::string, std::uint64_t> counters(const ExperimentSpec& spec) {
  const RunResult r = run_experiment(spec);
  std::map<std::string, std::uint64_t> out;
  for (const obs::MetricValue& m : r.metrics) {
    if (m.kind == obs::MetricKind::kCounter) out[m.name] = m.value;
  }
  return out;
}

ExperimentSpec point(Network net, double drop_prob) {
  ExperimentSpec s;
  s.network = net;
  s.nodes = 8;
  s.impl = Impl::kNic;
  s.iters = 40;
  s.warmup = 5;
  s.seed = 7;
  s.skew_max_us = 6.0;
  s.drop_prob = drop_prob;
  return s;
}

TEST(WindowCounters, MyrinetSkewAndLoss) {
  auto c = counters(point(Network::kMyrinetXP, 0.01));
  EXPECT_EQ(c["coll.early_buffered"], 115u);
  EXPECT_EQ(c["coll.duplicates"], 11u);
  EXPECT_EQ(c["coll.stale_dropped"], 27u);
  EXPECT_EQ(c["coll.ops_completed"], 360u);
}

TEST(WindowCounters, QuadricsSkew) {
  auto c = counters(point(Network::kQuadrics, 0.0));
  EXPECT_EQ(c["elan.early_buffered"], 146u);
  EXPECT_EQ(c["elan.barrier_ops_completed"], 360u);
}

TEST(WindowCounters, IbSkewAndLoss) {
  auto c = counters(point(Network::kInfiniBand, 0.01));
  EXPECT_EQ(c["ib.early_buffered"], 193u);
  EXPECT_EQ(c["ib.ops_completed"], 360u);
}

}  // namespace
}  // namespace qmb::run
