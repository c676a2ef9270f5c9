// Cluster builders, placement helpers, and the benchmark runner.
#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace qmb::core {
namespace {

using sim::Engine;

TEST(MyriCluster, BuildsRequestedNodeCount) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 8);
  EXPECT_EQ(c.size(), 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(c.node(i).index(), i);
  EXPECT_EQ(c.fabric().attached_nics(), 8u);
}

TEST(MyriCluster, RejectsTooFewNodes) {
  Engine e;
  EXPECT_THROW(MyriCluster(e, myri::lanaixp_cluster(), 1), std::invalid_argument);
}

TEST(MyriCluster, LargeClusterUsesClosTopology) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 64);
  EXPECT_EQ(c.size(), 64);
  // A 64-node Clos has tree structure: nodes in different 16-node groups
  // merge above level 1.
  EXPECT_GT(c.fabric().topology().merge_level(net::NicAddr(0), net::NicAddr(63)), 1);
}

TEST(MyriCluster, GroupIdsAreUnique) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  std::set<std::uint32_t> ids;
  for (int i = 0; i < 10; ++i) ids.insert(c.next_group_id());
  EXPECT_EQ(ids.size(), 10u);
}

TEST(ElanCluster, AlwaysAtLeastTwoLevels) {
  Engine e;
  ElanCluster c(e, elan::elan3_cluster(), 2);
  // Elite-16 is a dimension-two quaternary fat tree even half-populated.
  EXPECT_EQ(c.fabric().topology().top_level(), 2);
}

TEST(Placement, IdentityIsIota) {
  const auto p = identity_placement(5);
  EXPECT_EQ(p, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Placement, RandomIsAPermutation) {
  sim::Rng rng(3);
  const auto p = random_placement(16, rng);
  std::set<int> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 15);
}

TEST(Runner, CollectsExactlyItersSamples) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  const auto r = run_consecutive_barriers(e, *b, 3, 7);
  EXPECT_EQ(r.iterations, 7u);
  EXPECT_EQ(r.per_iteration.count(), 7u);
  EXPECT_EQ(r.mean, r.per_iteration.mean());
}

TEST(Runner, ZeroWarmupWorks) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  const auto r = run_consecutive_barriers(e, *b, 0, 3);
  EXPECT_EQ(r.per_iteration.count(), 3u);
  // First sample includes cold start from t=0.
  EXPECT_GT(r.per_iteration.max().picos(), 0);
}

TEST(Runner, ThrowsOnDeadlockedBarrier) {
  // A barrier that never completes must be detected by the watchdog, not
  // hang, and the error must say where the run stuck. Build one with a
  // wrapper whose odd ranks enter only their first operation.
  struct HalfBarrier final : Collective {
    Collective& inner;
    std::vector<int> entries;
    explicit HalfBarrier(Collective& c)
        : inner(c), entries(static_cast<std::size_t>(c.size()), 0) {}
    void enter(int rank, std::int64_t value, DoneFn done) override {
      if (rank % 2 == 0 || entries[static_cast<std::size_t>(rank)]++ == 0) {
        inner.enter(rank, value, std::move(done));
      }
      // Later odd-rank entries are swallowed: their done never fires.
    }
    std::string_view name() const override { return "half"; }
    int size() const override { return inner.size(); }
    coll::OpKind kind() const override { return inner.kind(); }
  };
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  HalfBarrier half(b->collective());
  OpRunPlan plan;
  plan.warmup = 1;
  plan.iters = 1;
  try {
    (void)run_consecutive_ops(e, half, plan);
    FAIL() << "a deadlocked run must throw";
  } catch (const std::runtime_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("barrier run did not complete"), std::string::npos) << what;
    EXPECT_NE(what.find("4 of 4 ranks unfinished"), std::string::npos) << what;
    EXPECT_NE(what.find("first is rank 0 after 1 of 2 iterations"), std::string::npos) << what;
  }
}

TEST(Factories, AllMyriKindsConstruct) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  for (const auto kind : {MyriBarrierKind::kHost, MyriBarrierKind::kNicDirect,
                          MyriBarrierKind::kNicCollective}) {
    auto b = c.make_barrier(kind, coll::Algorithm::kDissemination);
    EXPECT_EQ(b->size(), 4);
    EXPECT_FALSE(b->name().empty());
  }
}

TEST(Factories, AllElanKindsConstruct) {
  Engine e;
  ElanCluster c(e, elan::elan3_cluster(), 4);
  for (const auto kind : {ElanBarrierKind::kGsyncTree, ElanBarrierKind::kHardware,
                          ElanBarrierKind::kNicChained}) {
    auto b = c.make_barrier(kind, coll::Algorithm::kDissemination);
    EXPECT_EQ(b->size(), 4);
    EXPECT_FALSE(b->name().empty());
  }
}

// ---------- split-phase notify/wait ----------

TEST(SplitPhase, NotifyComputeWaitCompletesAllRanks) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  int done = 0;
  for (int r = 0; r < b->size(); ++r) b->notify(r);
  for (int r = 0; r < b->size(); ++r) b->wait(r, [&done] { ++done; });
  e.run();
  EXPECT_EQ(done, 4);
}

TEST(SplitPhase, WaitAfterProtocolFinishedCompletesImmediately) {
  // All ranks notify, the engine runs to quiescence (the protocol finishes
  // with no waiter parked), and only then does the host wait(): the kReady
  // path must complete synchronously, without another engine step.
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  b->notify(0);
  b->notify(1);
  e.run();
  int done = 0;
  b->wait(0, [&done] { ++done; });
  b->wait(1, [&done] { ++done; });
  EXPECT_EQ(done, 2);
}

TEST(SplitPhase, DoubleNotifyThrows) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  b->notify(0);
  EXPECT_THROW(b->notify(0), std::logic_error);
}

TEST(SplitPhase, WaitWithoutNotifyThrows) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  EXPECT_THROW(b->wait(0, [] {}), std::logic_error);
}

TEST(SplitPhase, DoubleWaitThrows) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  b->notify(0);
  b->wait(0, [] {});
  EXPECT_THROW(b->wait(0, [] {}), std::logic_error);
}

TEST(SplitPhase, RankOutOfRangeThrows) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 2);
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  EXPECT_THROW(b->notify(-1), std::logic_error);
  EXPECT_THROW(b->notify(2), std::logic_error);
}

TEST(SplitPhase, RunnerOverlapDominatesIterationCost) {
  // With compute overlap far above the 4-node barrier latency, each
  // iteration's visible cost is essentially the overlap itself.
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  OpRunPlan plan;
  plan.warmup = 1;
  plan.iters = 5;
  plan.overlap = sim::microseconds(500);
  const auto r = run_consecutive_ops(e, b->collective(), plan);
  EXPECT_EQ(r.iterations, 5u);
  EXPECT_GE(r.mean, *plan.overlap);
  EXPECT_LT(r.mean, *plan.overlap + sim::microseconds(100));
}

TEST(SplitPhase, RunnerZeroOverlapMatchesBlockingRunner) {
  // overlap == 0 degenerates to the blocking runner's cost structure: same
  // barrier, comparable mean (split-phase adds no protocol work).
  Engine e1;
  MyriCluster c1(e1, myri::lanaixp_cluster(), 4);
  auto b1 = c1.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  const auto blocking = run_consecutive_barriers(e1, *b1, 1, 5);
  Engine e2;
  MyriCluster c2(e2, myri::lanaixp_cluster(), 4);
  auto b2 = c2.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination);
  OpRunPlan plan;
  plan.warmup = 1;
  plan.iters = 5;
  plan.overlap = sim::SimDuration::zero();
  const auto split = run_consecutive_ops(e2, b2->collective(), plan);
  EXPECT_EQ(split.iterations, blocking.iterations);
  EXPECT_EQ(split.mean, blocking.mean);
}

TEST(Factories, PlacementMustCoverCluster) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  // A 4-rank barrier on 4 nodes with a permuted placement works.
  auto b = c.make_barrier(MyriBarrierKind::kNicCollective, coll::Algorithm::kDissemination,
                          {3, 2, 1, 0});
  const auto r = run_consecutive_barriers(e, *b, 0, 2);
  EXPECT_EQ(r.iterations, 2u);
}

// ---------- a barrier is a collective ----------

struct BarrierOutcome {
  std::vector<sim::SimDuration> series;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_fired = 0;
  std::string name;
};

/// Runs the same n8 barrier twice on fresh clusters: through make_barrier
/// and run_consecutive_barriers, then through make_collective at kBarrier
/// and run_consecutive_ops. Both must drive the identical executor.
template <class Cluster, class Config, class Kind>
void expect_same_barrier(const Config& cfg, Kind kind, const coll::CollSpec& spec,
                         bool same_name = true) {
  constexpr int kWarmup = 5;
  constexpr int kIters = 20;
  BarrierOutcome via_barrier;
  {
    Engine e;
    Cluster c(e, cfg, 8);
    auto b = c.make_barrier(kind, coll::Algorithm::kDissemination);
    const auto r = run_consecutive_barriers(e, *b, kWarmup, kIters);
    via_barrier = {r.per_iteration.samples(), e.events_scheduled(), e.events_fired(),
                   std::string(b->name())};
  }
  BarrierOutcome via_collective;
  {
    Engine e;
    Cluster c(e, cfg, 8);
    auto op = make_collective(c, spec);
    ASSERT_EQ(op->kind(), coll::OpKind::kBarrier);
    OpRunPlan plan;
    plan.warmup = kWarmup;
    plan.iters = kIters;
    const auto r = run_consecutive_ops(e, *op, plan);
    EXPECT_EQ(r.value_errors, 0u);
    via_collective = {r.per_iteration.samples(), e.events_scheduled(), e.events_fired(),
                      std::string(op->name())};
  }
  ASSERT_EQ(via_barrier.series.size(), static_cast<std::size_t>(kIters));
  EXPECT_TRUE(via_barrier.series == via_collective.series) << via_barrier.name;
  EXPECT_EQ(via_barrier.events_scheduled, via_collective.events_scheduled) << via_barrier.name;
  EXPECT_EQ(via_barrier.events_fired, via_collective.events_fired) << via_barrier.name;
  if (same_name) {
    EXPECT_EQ(via_barrier.name, via_collective.name);
  }
}

coll::CollSpec barrier_spec(coll::Engine engine,
                            coll::Algorithm algorithm = coll::Algorithm::kDissemination,
                            int radix = 0) {
  coll::CollSpec spec;  // op defaults to kBarrier
  spec.engine = engine;
  spec.algorithm = algorithm;
  spec.radix = radix;
  return spec;
}

TEST(BarrierIsACollective, MyrinetNic) {
  expect_same_barrier<MyriCluster>(myri::lanaixp_cluster(), MyriBarrierKind::kNicCollective,
                                   barrier_spec(coll::Engine::kNic));
}

TEST(BarrierIsACollective, MyrinetHost) {
  expect_same_barrier<MyriCluster>(myri::lanaixp_cluster(), MyriBarrierKind::kHost,
                                   barrier_spec(coll::Engine::kHost));
}

TEST(BarrierIsACollective, QuadricsNic) {
  expect_same_barrier<ElanCluster>(elan::elan3_cluster(), ElanBarrierKind::kNicChained,
                                   barrier_spec(coll::Engine::kNic));
}

TEST(BarrierIsACollective, QuadricsHost) {
  // Quadrics' host barrier is elan_gsync's fixed gather-broadcast tree of
  // degree 4; only its name differs from the generic host executor's.
  expect_same_barrier<ElanCluster>(
      elan::elan3_cluster(), ElanBarrierKind::kGsyncTree,
      barrier_spec(coll::Engine::kHost, coll::Algorithm::kGatherBroadcast, 4),
      /*same_name=*/false);
}

TEST(BarrierIsACollective, IbNic) {
  expect_same_barrier<IbCluster>(ib::ib_cluster(), IbBarrierKind::kNicCollective,
                                 barrier_spec(coll::Engine::kNic));
}

TEST(BarrierIsACollective, IbHost) {
  expect_same_barrier<IbCluster>(ib::ib_cluster(), IbBarrierKind::kHost,
                                 barrier_spec(coll::Engine::kHost));
}

TEST(BarrierIsACollective, NamesMatchTheBarrierFactories) {
  Engine e;
  MyriCluster c(e, myri::lanaixp_cluster(), 4);
  EXPECT_EQ(make_collective(c, barrier_spec(coll::Engine::kNic))->name(),
            "myri-nic-coll-dissemination");
  EXPECT_EQ(make_collective(c, barrier_spec(coll::Engine::kHost))->name(),
            "myri-host-dissemination");
  coll::CollSpec allreduce = barrier_spec(coll::Engine::kNic);
  allreduce.op = coll::OpKind::kAllreduce;
  EXPECT_EQ(make_collective(c, allreduce)->name(), "myri-nic-allreduce");
}

}  // namespace
}  // namespace qmb::core
