// The multi-tenant workload subsystem's contracts: deterministic arrival
// processes, placement injectivity, spec validation (group-slot budget and
// flood admission), JSON round-trips that survive >2^53 seeds, and the
// run-layer guarantees — thread-count-invariant fingerprints, overlapping
// groups that all complete, and flood interference that actually shows up
// in the tail.
#include "load/workload.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "load/generator.hpp"
#include "run/sweep.hpp"

namespace qmb::load {
namespace {

// --- arrival processes -----------------------------------------------------

TEST(ArrivalProcess, FixedRateIsAPeriodicClock) {
  WorkloadSpec w;
  w.arrival = Arrival::kFixedRate;
  w.period_us = 10.0;
  ArrivalProcess p(w, 1);
  EXPECT_EQ(p.next().picos(), sim::microseconds(10).picos());
  EXPECT_EQ(p.next().picos(), sim::microseconds(20).picos());
  EXPECT_EQ(p.next().picos(), sim::microseconds(30).picos());
}

TEST(ArrivalProcess, BurstFoldsOntoOnWindows) {
  WorkloadSpec w;
  w.arrival = Arrival::kBurst;
  w.period_us = 5.0;
  w.burst_on_us = 10.0;
  w.burst_off_us = 90.0;
  ArrivalProcess p(w, 1);
  // Virtual clock 5us lands inside window 0; 10us rolls into window 1,
  // which starts after the 90us silence.
  EXPECT_EQ(p.next().picos(), sim::microseconds(5).picos());
  EXPECT_EQ(p.next().picos(), sim::microseconds(100).picos());
  EXPECT_EQ(p.next().picos(), sim::microseconds(105).picos());
  EXPECT_EQ(p.next().picos(), sim::microseconds(200).picos());
}

TEST(ArrivalProcess, PoissonIsSeedDeterministicAndMonotone) {
  WorkloadSpec w;
  w.arrival = Arrival::kPoisson;
  w.period_us = 7.0;
  ArrivalProcess a(w, 42);
  ArrivalProcess b(w, 42);
  sim::SimTime prev = sim::SimTime::zero();
  for (int i = 0; i < 200; ++i) {
    const sim::SimTime ta = a.next();
    EXPECT_EQ(ta.picos(), b.next().picos());
    EXPECT_GT(ta.picos(), prev.picos());  // gaps are clamped to >= 1 ps
    prev = ta;
  }
}

// --- fairness and placement ------------------------------------------------

TEST(JainIndex, BoundsAndDegenerates) {
  EXPECT_DOUBLE_EQ(jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({3.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
  const double mixed = jain_index({1.0, 2.0, 3.0});
  EXPECT_GT(mixed, 1.0 / 3.0);
  EXPECT_LT(mixed, 1.0);
}

TEST(GroupPlacement, EveryMembershipIsInjectivePerGroup) {
  WorkloadSpec w;
  w.groups = 6;
  w.group_size = 4;
  for (const Membership m :
       {Membership::kBlock, Membership::kStride, Membership::kRandom}) {
    w.membership = m;
    for (int g = 0; g < w.groups; ++g) {
      std::vector<int> p = group_placement(w, g, 16, 99);
      ASSERT_EQ(p.size(), 4u);
      for (std::size_t i = 0; i < p.size(); ++i) {
        EXPECT_GE(p[i], 0);
        EXPECT_LT(p[i], 16);
        for (std::size_t j = i + 1; j < p.size(); ++j) EXPECT_NE(p[i], p[j]);
      }
    }
  }
}

TEST(GroupPlacement, RandomIsSeedDeterministic) {
  WorkloadSpec w;
  w.groups = 3;
  w.group_size = 5;
  w.membership = Membership::kRandom;
  EXPECT_EQ(group_placement(w, 2, 12, 7), group_placement(w, 2, 12, 7));
  EXPECT_NE(group_placement(w, 0, 12, 7), group_placement(w, 1, 12, 7));
}

// --- validation ------------------------------------------------------------

TEST(ValidateWorkload, RejectsExecutorBudgetBeyondSubstrateSlots) {
  WorkloadSpec w;
  w.groups = 64;
  w.group_size = 2;
  w.mix = {coll::OpKind::kBarrier, coll::OpKind::kAllreduce};  // 128 slots
  const std::string err = validate_workload(w, 256, 127);
  EXPECT_NE(err.find("concurrent group slots"), std::string::npos) << err;
  w.mix = {coll::OpKind::kBarrier};  // 64 slots: fits
  EXPECT_EQ(validate_workload(w, 256, 127), "");
}

TEST(ValidateWorkload, GroupFieldAdmitsThousandsOfSlots) {
  // The widened 11-bit BarrierTag group field raises the substrate ceiling
  // to 2047 concurrent slots: 2047 single-op groups fit, 2048 do not.
  WorkloadSpec w;
  w.groups = 2047;
  w.group_size = 2;
  w.mix = {coll::OpKind::kBarrier};
  EXPECT_EQ(validate_workload(w, 4096, 2047), "");
  w.groups = 2048;
  const std::string err = validate_workload(w, 4096, 2047);
  EXPECT_NE(err.find("2047"), std::string::npos) << err;
  EXPECT_NE(err.find("11 bits"), std::string::npos) << err;
}

TEST(ValidateWorkload, RejectsWithinGroupNodeCollision) {
  WorkloadSpec w;
  w.groups = 2;
  w.group_size = 4;
  w.membership = Membership::kStride;  // rank r -> (g + 2r) % 4: collides
  const std::string err = validate_workload(w, 4, 127);
  EXPECT_NE(err.find("on one node"), std::string::npos) << err;
}

TEST(ValidateExperiment, RejectsSaturatingFlood) {
  run::ExperimentSpec s;
  s.network = run::Network::kMyrinetXP;
  s.nodes = 8;
  s.workload.groups = 2;
  s.workload.flood_streams = 1;
  s.workload.flood_bytes = 4096;
  s.workload.flood_period_us = 1.0;  // far above the sender MCP service rate
  const std::string err = run::validate(s);
  EXPECT_NE(err.find("saturates"), std::string::npos) << err;
  s.workload.flood_period_us = 50.0;
  EXPECT_EQ(run::validate(s), "");
}

// --- JSON ------------------------------------------------------------------

TEST(WorkloadJson, RoundTripsEveryFieldIncludingHugeSeeds) {
  WorkloadSpec w;
  w.groups = 17;
  w.group_size = 3;
  w.membership = Membership::kRandom;
  w.mix = {coll::OpKind::kAllgather, coll::OpKind::kBarrier, coll::OpKind::kBcast};
  w.arrival = Arrival::kBurst;
  w.period_us = 12.5;
  w.burst_on_us = 150.0;
  w.burst_off_us = 450.0;
  w.flood_streams = 3;
  w.flood_bytes = 2048;
  w.flood_period_us = 18.25;
  w.flood_random = true;
  w.seed = (1ULL << 63) + 12345;  // u64 beyond double's 2^53 integer range
  // Through the tree AND through serialized text: the seed rides as a
  // decimal string, so no double round-trip can truncate it.
  EXPECT_EQ(workload_from_json(workload_to_json(w)), w);
  const obs::JsonValue reparsed = obs::JsonValue::parse(workload_to_json(w).dump());
  EXPECT_EQ(workload_from_json(reparsed), w);
}

TEST(WorkloadJson, MissingFieldsKeepDefaults) {
  const obs::JsonValue v = obs::JsonValue::parse(R"({"groups": 5})");
  const WorkloadSpec w = workload_from_json(v);
  EXPECT_EQ(w.groups, 5);
  EXPECT_EQ(w.group_size, WorkloadSpec{}.group_size);
  EXPECT_EQ(w.arrival, WorkloadSpec{}.arrival);
  EXPECT_EQ(w.seed, 0u);
}

// --- run-layer guarantees --------------------------------------------------

run::ExperimentSpec tenant_spec(run::Network net, run::Impl impl) {
  run::ExperimentSpec s;
  s.network = net;
  s.nodes = 8;
  s.impl = impl;
  s.iters = 15;
  s.warmup = 3;
  s.workload.groups = 3;
  s.workload.group_size = 4;
  s.workload.mix = {coll::OpKind::kBarrier, coll::OpKind::kAllreduce};
  s.workload.arrival = Arrival::kFixedRate;
  s.workload.period_us = 25.0;
  s.workload.flood_streams = 1;
  s.workload.flood_bytes = 1024;
  s.workload.flood_period_us = 40.0;
  s.workload.seed = 11;
  return s;
}

TEST(WorkloadRun, FingerprintIsThreadCountInvariant) {
  const std::vector<run::ExperimentSpec> specs = {
      tenant_spec(run::Network::kMyrinetXP, run::Impl::kNic),
      tenant_spec(run::Network::kInfiniBand, run::Impl::kHost),
      tenant_spec(run::Network::kQuadrics, run::Impl::kNic),
  };
  const auto serial = run::SweepRunner(1).run(specs);
  const auto parallel = run::SweepRunner(4).run(specs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].fingerprint(), parallel[i].fingerprint()) << specs[i].nodes;
    EXPECT_EQ(serial[i].fingerprint(), run::run_experiment(specs[i]).fingerprint());
  }
}

TEST(WorkloadRun, FullyOverlappingGroupsAllComplete) {
  run::ExperimentSpec s;
  s.network = run::Network::kMyrinetXP;
  s.nodes = 4;
  s.impl = run::Impl::kNic;
  s.iters = 20;
  s.warmup = 4;
  s.workload.groups = 2;  // block membership: both groups own nodes 0-3
  s.workload.group_size = 4;
  s.workload.mix = {coll::OpKind::kBarrier, coll::OpKind::kAllreduce};
  s.workload.arrival = Arrival::kClosed;
  const run::RunResult r = run::run_experiment(s);
  ASSERT_EQ(r.group_stats.size(), 2u);
  for (const GroupStats& g : r.group_stats) {
    EXPECT_EQ(g.ops, static_cast<std::uint64_t>(s.iters));
    EXPECT_GT(g.p99_picos, 0);
  }
  EXPECT_EQ(r.value_errors, 0u);  // every allreduce returned the exact sum
  EXPECT_GT(r.fairness, 0.9);     // symmetric groups: near-perfect fairness
}

TEST(WorkloadRun, FloodInterferenceRaisesTailLatency) {
  run::ExperimentSpec quiet;
  quiet.network = run::Network::kMyrinetXP;
  quiet.nodes = 8;
  quiet.impl = run::Impl::kNic;
  quiet.iters = 40;
  quiet.warmup = 5;
  quiet.workload.groups = 4;
  quiet.workload.group_size = 4;
  quiet.workload.arrival = Arrival::kClosed;
  run::ExperimentSpec loaded = quiet;
  loaded.workload.flood_streams = 1;
  loaded.workload.flood_bytes = 4096;
  loaded.workload.flood_period_us = 12.0;  // ~84% of the sender MCP capacity
  const run::RunResult q = run::run_experiment(quiet);
  const run::RunResult l = run::run_experiment(loaded);
  EXPECT_GT(l.p99_picos, q.p99_picos);
  EXPECT_GT(l.flood_sends, 0u);
  EXPECT_EQ(q.flood_sends, 0u);
}

// Open-loop arrivals beside flood traffic under wire loss: ACK and
// retransmit timers are armed and cancelled constantly, so the engine's
// run_until loop finds a cancelled entry on top of the event queue several
// hundred times per run (572 on myrinet-xp, 462 on ib).
// Fixed-rate arrivals draw nothing through libm, so these pins hold under
// every compiler; any change to them is a change in what the simulation did.
run::ExperimentSpec lossy_open_loop_spec(run::Network net) {
  run::ExperimentSpec s;
  s.network = net;
  s.nodes = 16;
  s.impl = run::Impl::kNic;
  s.iters = 300;
  s.warmup = 5;
  s.seed = 7;
  s.drop_prob = 0.001;
  s.workload.groups = 4;
  s.workload.group_size = 4;
  s.workload.mix = {coll::OpKind::kBarrier, coll::OpKind::kAllreduce};
  s.workload.arrival = Arrival::kFixedRate;
  s.workload.period_us = 30.0;
  s.workload.flood_streams = 1;
  s.workload.flood_bytes = 2048;
  s.workload.flood_period_us = 40.0;
  s.workload.seed = 3;
  return s;
}

TEST(WorkloadRun, LossyOpenLoopIsPinned) {
  struct Pin {
    run::Network net;
    std::uint64_t events_scheduled;
    std::uint64_t events_fired;
    std::uint64_t retransmissions;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {run::Network::kMyrinetXP, 68910, 63798, 9, 0x573567b6fc6ee87fULL},
      {run::Network::kInfiniBand, 91355, 81378, 11, 0xaa1b3a85778d3537ULL},
  };
  for (const Pin& p : pins) {
    const run::RunResult r = run::run_experiment(lossy_open_loop_spec(p.net));
    const std::string net(run::to_string(p.net));
    EXPECT_GT(r.packets_dropped, 0u) << net;
    EXPECT_EQ(r.value_errors, 0u) << net;
    EXPECT_EQ(r.events_scheduled, p.events_scheduled) << net;
    EXPECT_EQ(r.events_fired, p.events_fired) << net;
    EXPECT_EQ(r.retransmissions, p.retransmissions) << net;
    EXPECT_EQ(r.fingerprint(), p.fingerprint) << net << std::hex << " 0x" << r.fingerprint();
  }
}

}  // namespace
}  // namespace qmb::load
