// The two-deep operation window (core::GroupWindow), driven directly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "window_harness.hpp"

namespace qmb::core {
namespace {

struct Sent {
  std::uint32_t seq;
  coll::Edge edge;
  std::int64_t value;
};

struct Harness {
  coll::GroupSchedule schedule;
  std::vector<Sent> sent;
  std::vector<std::pair<std::uint32_t, std::int64_t>> completed;
  std::unique_ptr<WindowHarness> window;

  explicit Harness(int n, int rank, coll::OpKind kind = coll::OpKind::kBarrier,
                   coll::Algorithm alg = coll::Algorithm::kDissemination) {
    schedule = coll::make_barrier_schedule(alg, n);
    window = std::make_unique<WindowHarness>(
        schedule.ranks[static_cast<std::size_t>(rank)],
        [this](std::uint32_t seq, const coll::Edge& e, std::int64_t v) {
          sent.push_back({seq, e, v});
        },
        [this](std::uint32_t seq, std::int64_t result) {
          completed.emplace_back(seq, result);
        },
        kind);
  }
};

TEST(OpWindow, SequentialOperationsComplete) {
  Harness h(4, 0);
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    EXPECT_EQ(h.window->start(), seq);
    h.window->on_arrival(seq, 3, 0);
    h.window->on_arrival(seq, 2, 1);
    ASSERT_EQ(h.completed.size(), seq + 1);
    EXPECT_EQ(h.completed.back().first, seq);
    EXPECT_TRUE(h.window->is_complete(seq));
  }
}

TEST(OpWindow, EarlyArrivalForNextOperationBuffered) {
  Harness h(4, 0);
  h.window->start();
  // Messages for operation 1 land while operation 0 is still running.
  h.window->on_arrival(1, 3, 0);
  h.window->on_arrival(1, 2, 1);
  EXPECT_TRUE(h.completed.empty());
  h.window->on_arrival(0, 3, 0);
  h.window->on_arrival(0, 2, 1);
  ASSERT_EQ(h.completed.size(), 1u);
  // Operation 1 completes instantly from the buffer.
  h.window->start();
  ASSERT_EQ(h.completed.size(), 2u);
  EXPECT_EQ(h.completed[1].first, 1u);
}

TEST(OpWindow, StaleArrivalIgnored) {
  Harness h(4, 0);
  h.window->start();
  h.window->on_arrival(0, 3, 0);
  h.window->on_arrival(0, 2, 1);
  h.window->start();  // seq 1
  // A late retransmission for completed operation 0.
  h.window->on_arrival(0, 3, 0);
  EXPECT_EQ(h.completed.size(), 1u);  // no double completion
}

TEST(OpWindow, OvertakenWindowThrows) {
  Harness h(4, 0);
  h.window->start();  // seq 0, incomplete, occupies slot 0
  // seq 2 maps to the same slot while it is busy: protocol violation.
  EXPECT_THROW(h.window->on_arrival(2, 3, 0), std::logic_error);
}

TEST(OpWindow, DuplicateArrivalHarmless) {
  Harness h(4, 0, coll::OpKind::kAllreduce);
  h.window->start(10);
  h.window->on_arrival(0, 3, 0, 5);
  h.window->on_arrival(0, 3, 0, 5);  // retransmission
  h.window->on_arrival(0, 2, 1, 7);
  ASSERT_EQ(h.completed.size(), 1u);
  EXPECT_EQ(h.completed[0].second, 22);  // 10 + 5 + 7, no double count
}

TEST(OpWindow, EarlyValueNotFoldedIntoSameStepSend) {
  // Rank 0 of a 4-rank PE allreduce: step-0 partner is rank 1. If rank 1's
  // value arrives before we start, our step-0 send to rank 1 must still
  // carry only our own contribution.
  coll::GroupSchedule g = coll::make_barrier_schedule(coll::Algorithm::kPairwiseExchange, 4);
  std::vector<Sent> sent;
  WindowHarness w(
      g.ranks[0],
      [&](std::uint32_t seq, const coll::Edge& e, std::int64_t v) {
        sent.push_back({seq, e, v});
      },
      [](std::uint32_t, std::int64_t) {}, coll::OpKind::kAllreduce);
  w.on_arrival(0, 1, 0, 100);  // partner's value, early
  w.start(1);
  ASSERT_GE(sent.size(), 1u);
  EXPECT_EQ(sent[0].edge.peer, 1);
  EXPECT_EQ(sent[0].value, 1);  // own value only
  // The step-1 send to rank 2 carries the combined pair value.
  ASSERT_GE(sent.size(), 2u);
  EXPECT_EQ(sent[1].edge.peer, 2);
  EXPECT_EQ(sent[1].value, 101);
}

TEST(OpWindow, DuplicatedEarlyArrivalFoldsFirstValue) {
  // Rank 0 of a 4-rank PE allreduce waits on rank 1 (tag 0), then rank 2
  // (tag 1). A retransmitted early message carrying a different payload
  // must not replace the first copy.
  Harness h(4, 0, coll::OpKind::kAllreduce, coll::Algorithm::kPairwiseExchange);
  EXPECT_EQ(h.window->on_arrival(0, 1, 0, 100), Arrival::kEarly);
  EXPECT_EQ(h.window->on_arrival(0, 1, 0, 900), Arrival::kEarly);
  h.window->start(1);
  EXPECT_EQ(h.window->last_start_duplicates(), 1);
  EXPECT_EQ(h.window->on_arrival(0, 2, 1, 5), Arrival::kDelivered);
  ASSERT_EQ(h.completed.size(), 1u);
  EXPECT_EQ(h.completed[0].second, 106);  // 1 + 100 + 5: the first copy folded
}

TEST(OpWindow, DuplicatedRunningArrivalFoldsFirstValue) {
  Harness h(4, 0, coll::OpKind::kAllreduce, coll::Algorithm::kPairwiseExchange);
  h.window->start(1);
  EXPECT_EQ(h.window->on_arrival(0, 2, 1, 30), Arrival::kDelivered);  // a step ahead
  EXPECT_EQ(h.window->on_arrival(0, 2, 1, 70), Arrival::kDuplicate);
  EXPECT_EQ(h.window->on_arrival(0, 1, 0, 4), Arrival::kDelivered);
  ASSERT_EQ(h.completed.size(), 1u);
  EXPECT_EQ(h.completed[0].second, 35);
}

TEST(OpWindow, AllreduceWithEarlyAndDuplicateArrivalsIsPinned) {
  // Rank 0 of a 6-rank allreduce: absorb rank 4's registration (kTagPre),
  // exchange with rank 1 (tag 0) and rank 2 (tag 1), release rank 4 with
  // the result (kTagPost). Three overlapping operations, with early,
  // duplicated and stale arrivals carrying conflicting payloads; every
  // sent value and result below is pinned.
  const coll::GroupSchedule g = coll::make_allreduce_schedule(6);
  std::vector<Sent> sent;
  std::vector<std::pair<std::uint32_t, std::int64_t>> done;
  WindowHarness w(
      g.ranks[0],
      [&](std::uint32_t seq, const coll::Edge& e, std::int64_t v) {
        sent.push_back({seq, e, v});
      },
      [&](std::uint32_t seq, std::int64_t r) { done.emplace_back(seq, r); },
      coll::OpKind::kAllreduce);
  using coll::kTagPre;
  w.on_arrival(0, 4, kTagPre, 1);
  w.on_arrival(0, 4, kTagPre, 2);  // duplicate, different payload
  w.start(10);                     // pre consumed: 11; sends 11 to rank 1
  w.on_arrival(0, 2, 1, 7);        // a step early
  w.on_arrival(1, 1, 0, 50);       // operation 1, early
  w.on_arrival(0, 1, 0, 3);        // 14; sends 14 to rank 2; then + 7 = 21
  w.on_arrival(0, 1, 0, 4);        // stale
  w.start(11);                     // op 1 blocks on its pre step
  w.on_arrival(1, 4, kTagPre, 60);
  w.on_arrival(1, 4, kTagPre, 61);  // duplicate
  w.on_arrival(2, 4, kTagPre, 5);   // operation 2, early
  w.on_arrival(2, 4, kTagPre, 6);   // operation 2, early duplicate
  w.on_arrival(1, 2, 1, 9);
  w.start(12);
  w.on_arrival(2, 1, 0, -3);
  w.on_arrival(2, 2, 1, 100);
  w.on_arrival(2, 2, 1, -100);  // stale
  const std::vector<std::pair<std::uint32_t, std::int64_t>> want_done = {
      {0, 21}, {1, 130}, {2, 114}};
  EXPECT_EQ(done, want_done);
  std::vector<std::int64_t> values;
  for (const Sent& s : sent) values.push_back(s.value);
  const std::vector<std::int64_t> want_values = {11, 14, 21, 71, 121, 130, 17, 14, 114};
  EXPECT_EQ(values, want_values);
  EXPECT_EQ(sent.back().edge, (coll::Edge{4, coll::kTagPost}));
}

TEST(OpWindow, ArrivalMatchingNoWaitThrows) {
  Harness h(4, 0);  // rank 0 waits on (3, tag 0) and (2, tag 1) only
  h.window->start();
  EXPECT_THROW(h.window->on_arrival(0, 1, 0), std::logic_error);
  EXPECT_THROW(h.window->on_arrival(0, 3, 1), std::logic_error);
  EXPECT_THROW(h.window->on_arrival(1, 2, 0), std::logic_error);  // also when early
}

TEST(OpWindow, NextSeqAdvances) {
  Harness h(2, 0);
  EXPECT_EQ(h.window->next_seq(), 0u);
  h.window->start();
  EXPECT_EQ(h.window->next_seq(), 1u);
}


TEST(GroupWindow, ClassifiesEveryArrival) {
  Harness h(4, 0);
  // Rank 0 of a 4-rank dissemination waits on rank 3 (tag 0), then rank 2.
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kEarly);  // not started yet
  h.window->start();
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kDuplicate);  // replayed already
  EXPECT_EQ(h.window->on_arrival(1, 3, 0), Arrival::kEarly);      // peer one op ahead
  EXPECT_EQ(h.window->on_arrival(0, 2, 1), Arrival::kDelivered);
  EXPECT_EQ(h.window->on_arrival(0, 2, 1), Arrival::kStale);  // op 0 completed
  h.window->start();  // op 1
  EXPECT_EQ(h.window->on_arrival(0, 2, 1), Arrival::kStale);  // slot 0 not yet recycled
  EXPECT_EQ(h.window->on_arrival(1, 2, 1), Arrival::kDelivered);
  h.window->start();  // op 2 recycles slot 0
  EXPECT_EQ(h.window->on_arrival(0, 3, 0), Arrival::kStale);  // older than the slot's op
}

TEST(GroupWindow, StartCountsReplayedDuplicates) {
  Harness h(4, 0);
  h.window->on_arrival(0, 3, 0);
  h.window->on_arrival(0, 3, 0);  // the same edge buffered twice
  h.window->start();
  EXPECT_EQ(h.window->last_start_duplicates(), 1);
}

struct CountingSlot {
  int uses = 0;
  void clear() { uses = 0; }
};

TEST(GroupWindow, HooksRunInOrderAndSlotStateClearsOnRecycle) {
  const coll::GroupSchedule g = coll::make_barrier_schedule(coll::Algorithm::kDissemination, 2);
  GroupWindow<CountingSlot> w(g.ranks[0], coll::OpKind::kBarrier, coll::ReduceOp::kSum);
  using Op = GroupWindow<CountingSlot>::Op;
  std::string log;
  const auto run_op = [&] {
    Op& op = w.enter(0);
    ++op.state.uses;
    w.start(
        op, [&](Op& o, const coll::Edge&) { log += "send" + std::to_string(o.seq) + " "; },
        [&](Op& o) {
          EXPECT_TRUE(o.complete);
          log += "done" + std::to_string(o.seq) + " ";
        },
        [&](Op& o) { log += "start" + std::to_string(o.seq) + " "; });
    w.arrive(op.seq, 1, 0, 0);
    return op.state.uses;
  };
  EXPECT_EQ(run_op(), 1);
  EXPECT_EQ(run_op(), 1);
  EXPECT_EQ(run_op(), 1);  // slot 0 again: its state was cleared, not carried
  EXPECT_EQ(log, "start0 send0 done0 start1 send1 done1 start2 send2 done2 ");
  ASSERT_NE(w.find(2), nullptr);
  EXPECT_EQ(w.find(0), nullptr);
}

}  // namespace
}  // namespace qmb::core
