// Randomized-order property tests of the schedule executors: a collective's
// result and completion must not depend on the order in which messages
// happen to arrive (the network may interleave them arbitrarily), and the
// payload semantics must be exactly those of an in-step fold.
//
// These properties are the ones that catch fold-ordering bugs: an early
// arrival folded at arrival time (instead of at step consumption) yields
// order-dependent allreduce results.
//
// The edge-matching property is the one the executor's dense wait index
// rests on: every send of every generator lands on exactly one wait, so an
// arrival's (peer, tag) names one bit of the receiver's arrival words.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "sim/rng.hpp"
#include "window_harness.hpp"

namespace qmb::coll {
namespace {

struct WireMsg {
  int src, dst;
  std::uint32_t tag;
  std::int64_t value;
};

/// Executes one operation over all ranks with message delivery order chosen
/// by `rng`: any pending message may be delivered next. Returns per-rank
/// results; fails the test on non-completion.
std::vector<std::int64_t> run_shuffled(const GroupSchedule& g, OpKind kind, ReduceOp op,
                                       const std::vector<std::int64_t>& inputs,
                                       sim::Rng& rng) {
  const int n = g.size;
  std::vector<std::int64_t> results(static_cast<std::size_t>(n), -999);
  std::vector<std::unique_ptr<core::WindowHarness>> windows(static_cast<std::size_t>(n));
  std::deque<WireMsg> wire;

  for (int r = 0; r < n; ++r) {
    windows[static_cast<std::size_t>(r)] = std::make_unique<core::WindowHarness>(
        g.ranks[static_cast<std::size_t>(r)],
        [&wire, r](std::uint32_t, const Edge& e, std::int64_t v) {
          wire.push_back({r, e.peer, e.tag, v});
        },
        [&results, r](std::uint32_t, std::int64_t result) {
          results[static_cast<std::size_t>(r)] = result;
        },
        kind, op);
  }
  // Ranks start in random order too.
  const auto start_order = rng.permutation(static_cast<std::size_t>(n));
  for (const auto r : start_order) {
    windows[r]->start(inputs[r]);
  }
  while (!wire.empty()) {
    const auto pick = rng.next_below(wire.size());
    const WireMsg m = wire[pick];
    wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));
    windows[static_cast<std::size_t>(m.dst)]->on_arrival(0, m.src, m.tag, m.value);
  }
  return results;
}

struct PropCase {
  OpKind kind;
  int n;
};

class OrderInvariance : public ::testing::TestWithParam<PropCase> {};

TEST_P(OrderInvariance, ResultIndependentOfDeliveryOrder) {
  const auto& p = GetParam();
  GroupSchedule g;
  std::vector<std::int64_t> inputs;
  std::int64_t expected = 0;
  switch (p.kind) {
    case OpKind::kBarrier:
      g = make_barrier_schedule(Algorithm::kDissemination, p.n);
      inputs.assign(static_cast<std::size_t>(p.n), 0);
      expected = 0;
      break;
    case OpKind::kBcast:
      g = make_bcast_schedule(p.n, 0);
      inputs.assign(static_cast<std::size_t>(p.n), 0);
      inputs[0] = 777;
      expected = 777;
      break;
    case OpKind::kAllreduce:
      g = make_allreduce_schedule(p.n);
      for (int r = 0; r < p.n; ++r) {
        inputs.push_back(5 * r - 7);
        expected += 5 * r - 7;
      }
      break;
    case OpKind::kAllgather:
      g = make_allgather_schedule(p.n);
      for (int r = 0; r < p.n; ++r) inputs.push_back(std::int64_t{1} << r);
      expected = (std::int64_t{1} << p.n) - 1;
      break;
    case OpKind::kAlltoall:
      g = make_alltoall_schedule(p.n);
      for (int r = 0; r < p.n; ++r) inputs.push_back(std::int64_t{1} << r);
      expected = (std::int64_t{1} << p.n) - 1;
      break;
  }

  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    sim::Rng rng(seed);
    const auto results = run_shuffled(g, p.kind, ReduceOp::kSum, inputs, rng);
    for (int r = 0; r < p.n; ++r) {
      ASSERT_EQ(results[static_cast<std::size_t>(r)], expected)
          << "kind=" << static_cast<int>(p.kind) << " n=" << p.n << " seed=" << seed
          << " rank=" << r;
    }
  }
}

std::vector<PropCase> prop_cases() {
  std::vector<PropCase> cases;
  for (const auto kind : {OpKind::kBarrier, OpKind::kBcast, OpKind::kAllreduce,
                          OpKind::kAllgather, OpKind::kAlltoall}) {
    for (const int n : {2, 3, 5, 8, 11, 16}) cases.push_back({kind, n});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OrderInvariance, ::testing::ValuesIn(prop_cases()),
                         [](const ::testing::TestParamInfo<PropCase>& info) {
                           const char* k = "";
                           switch (info.param.kind) {
                             case OpKind::kBarrier: k = "barrier"; break;
                             case OpKind::kBcast: k = "bcast"; break;
                             case OpKind::kAllreduce: k = "allreduce"; break;
                             case OpKind::kAllgather: k = "allgather"; break;
                             case OpKind::kAlltoall: k = "alltoall"; break;
                           }
                           return std::string(k) + "_n" + std::to_string(info.param.n);
                         });

TEST(OrderInvariance, MinMaxReductionsToo) {
  for (const auto op : {ReduceOp::kMin, ReduceOp::kMax}) {
    const int n = 7;
    const auto g = make_allreduce_schedule(n);
    std::vector<std::int64_t> inputs;
    for (int r = 0; r < n; ++r) inputs.push_back((r * 13) % 9 - 4);
    std::int64_t expected = inputs[0];
    for (const auto v : inputs) {
      expected = op == ReduceOp::kMin ? std::min(expected, v) : std::max(expected, v);
    }
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      sim::Rng rng(seed);
      const auto results = run_shuffled(g, OpKind::kAllreduce, op, inputs, rng);
      for (int r = 0; r < n; ++r) {
        ASSERT_EQ(results[static_cast<std::size_t>(r)], expected) << "seed " << seed;
      }
    }
  }
}

TEST(OrderInvariance, TwoOverlappingOperationsStayIsolated) {
  // Run two consecutive allreduces where the second op's messages race the
  // first's completion; results must match their own operation regardless
  // of interleaving.
  const int n = 4;
  const auto g = make_allreduce_schedule(n);
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    sim::Rng rng(seed);
    std::vector<std::vector<std::int64_t>> results(2);
    std::vector<std::unique_ptr<core::WindowHarness>> windows(n);
    struct SeqMsg {
      std::uint32_t seq;
      int src, dst;
      std::uint32_t tag;
      std::int64_t value;
    };
    std::deque<SeqMsg> wire;
    for (int r = 0; r < n; ++r) {
      windows[static_cast<std::size_t>(r)] = std::make_unique<core::WindowHarness>(
          g.ranks[static_cast<std::size_t>(r)],
          [&wire, r](std::uint32_t seq, const Edge& e, std::int64_t v) {
            wire.push_back({seq, r, e.peer, e.tag, v});
          },
          [&results, &windows, r](std::uint32_t seq, std::int64_t result) {
            results[seq].push_back(result);
            if (seq == 0) {
              // Enter the next operation immediately on completion.
              windows[static_cast<std::size_t>(r)]->start(100 + r);
            }
          },
          OpKind::kAllreduce, ReduceOp::kSum);
    }
    for (int r = 0; r < n; ++r) windows[static_cast<std::size_t>(r)]->start(r + 1);
    while (!wire.empty()) {
      const auto pick = rng.next_below(wire.size());
      const SeqMsg m = wire[pick];
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));
      windows[static_cast<std::size_t>(m.dst)]->on_arrival(m.seq, m.src, m.tag, m.value);
    }
    ASSERT_EQ(results[0].size(), 4u) << "seed " << seed;
    ASSERT_EQ(results[1].size(), 4u) << "seed " << seed;
    for (const auto v : results[0]) EXPECT_EQ(v, 10);           // 1+2+3+4
    for (const auto v : results[1]) EXPECT_EQ(v, 406);          // 100..103 summed
  }
}

/// Schedule edges as (rank, peer, tag) triples, sorted: `sends` holds
/// (sender, receiver, tag), `waits` holds (waiter, expected sender, tag).
struct EdgeSets {
  std::vector<std::tuple<int, int, std::uint32_t>> sends, waits;
};

EdgeSets edge_sets(const GroupSchedule& g) {
  EdgeSets e;
  for (int r = 0; r < g.size; ++r) {
    for (const Step& st : g.ranks[static_cast<std::size_t>(r)].steps) {
      for (const Edge& s : st.sends) e.sends.emplace_back(r, s.peer, s.tag);
      for (const Edge& w : st.waits) e.waits.emplace_back(r, w.peer, w.tag);
    }
  }
  std::sort(e.sends.begin(), e.sends.end());
  std::sort(e.waits.begin(), e.waits.end());
  return e;
}

/// Empty when every send i -> p (tag t) matches exactly one wait (i, t) at
/// p, no rank waits twice on one (peer, tag) and no rank sends twice on
/// one; otherwise the first offending edge.
std::string edge_mismatch(const GroupSchedule& g) {
  const EdgeSets e = edge_sets(g);
  const auto show = [](const char* what, const std::tuple<int, int, std::uint32_t>& t) {
    return std::string(what) + " rank " + std::to_string(std::get<0>(t)) + " peer " +
           std::to_string(std::get<1>(t)) + " tag " + std::to_string(std::get<2>(t));
  };
  if (const auto it = std::adjacent_find(e.waits.begin(), e.waits.end());
      it != e.waits.end()) {
    return show("repeated wait:", *it);
  }
  if (const auto it = std::adjacent_find(e.sends.begin(), e.sends.end());
      it != e.sends.end()) {
    return show("repeated send:", *it);
  }
  for (const auto& [from, to, tag] : e.sends) {
    if (!std::binary_search(e.waits.begin(), e.waits.end(), std::make_tuple(to, from, tag))) {
      return show("unmatched send:", {from, to, tag});
    }
  }
  if (e.sends.size() != e.waits.size()) {
    return "a wait has no matching send (" + std::to_string(e.waits.size()) + " waits, " +
           std::to_string(e.sends.size()) + " sends)";
  }
  return {};
}

TEST(EdgeMatching, EverySendMatchesExactlyOneWait) {
  std::vector<std::pair<std::string, GroupSchedule>> schedules;
  const auto add = [&](std::string name, GroupSchedule g) {
    schedules.emplace_back(std::move(name), std::move(g));
  };
  for (int n = 1; n <= 70; ++n) {
    const std::string at = " n=" + std::to_string(n);
    for (const Algorithm a : kBarrierAlgorithms) {
      for (const int radix : {0, 2, 3, 5, 8}) {
        add(std::string(to_string(a)) + " radix=" + std::to_string(radix) + at,
            make_barrier_schedule(a, n, radix));
      }
    }
    for (const int root : {0, 1, n / 2, n - 1}) {
      if (root >= n) continue;
      const std::string r = " root=" + std::to_string(root) + at;
      add("bcast d=2" + r, make_bcast_schedule(n, root, 2));
      add("bcast d=3" + r, make_bcast_schedule(n, root, 3));
      add("binomial bcast" + r, make_binomial_bcast_schedule(n, root));
    }
    add("allreduce" + at, make_allreduce_schedule(n));
    add("fway allreduce" + at, make_fway_allreduce_schedule(n));
    add("allgather" + at, make_allgather_schedule(n));
    add("alltoall" + at, make_alltoall_schedule(n));
  }
  for (const int n : {1024, 4096}) {
    for (const Algorithm a : kBarrierAlgorithms) {
      add(std::string(to_string(a)) + " n=" + std::to_string(n), make_barrier_schedule(a, n));
    }
  }
  std::size_t widest = 0;
  for (const auto& [name, g] : schedules) {
    ASSERT_EQ(edge_mismatch(g), "") << name;
    for (const RankSchedule& r : g.ranks) {
      widest = std::max(widest, static_cast<std::size_t>(r.total_waits()));
    }
  }
  // The remote-atomic root waits on every other rank: one operation's
  // arrival words must span far more than 64 bits.
  EXPECT_EQ(widest, 4095u);
}

TEST(EdgeMatching, DetectsRepeatedAndUnmatchedEdges) {
  GroupSchedule g = make_barrier_schedule(Algorithm::kDissemination, 4);
  ASSERT_EQ(edge_mismatch(g), "");
  GroupSchedule repeated = g;
  repeated.ranks[0].steps[1].waits.push_back(repeated.ranks[0].steps[0].waits[0]);
  EXPECT_NE(edge_mismatch(repeated).find("repeated wait"), std::string::npos);
  GroupSchedule unmatched = g;
  unmatched.ranks[0].steps[0].sends[0].tag = 7;
  EXPECT_NE(edge_mismatch(unmatched).find("unmatched send"), std::string::npos);
}

}  // namespace
}  // namespace qmb::coll
