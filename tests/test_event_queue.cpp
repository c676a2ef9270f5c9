#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace qmb::sim {
namespace {

SimTime at_us(std::int64_t us) { return SimTime(us * 1'000'000); }

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(at_us(30), [&] { order.push_back(3); });
  q.push(at_us(10), [&] { order.push_back(1); });
  q.push(at_us(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.push(at_us(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  q.push(at_us(1), [&] { ++fired; });
  const EventId victim = q.push(at_us(2), [&] { fired += 100; });
  q.push(at_us(3), [&] { ++fired; });
  EXPECT_TRUE(q.cancel(victim));
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(at_us(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.push(at_us(1), [] {});
  q.pop().cb();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  const EventId a = q.push(at_us(1), [] {});
  q.push(at_us(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelledTop) {
  EventQueue q;
  const EventId first = q.push(at_us(1), [] {});
  q.push(at_us(5), [] {});
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(*q.next_time(), at_us(1));
  q.cancel(first);
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(*q.next_time(), at_us(5));
}

TEST(EventQueue, NextTimeDropsCancelledTop) {
  // Ten entries stay below kCompactFloor, so only next_time() itself can
  // remove the cancelled top: it pops it rather than scanning around it.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(q.push(at_us(10 - i), [] {}));
  ASSERT_EQ(q.heap_entries(), 10u);
  EXPECT_TRUE(q.cancel(ids.back()));  // the earliest, at 1 us
  EXPECT_EQ(q.heap_entries(), 10u);
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(*q.next_time(), at_us(2));
  EXPECT_EQ(q.heap_entries(), 9u);
  EXPECT_EQ(q.size(), 9u);
}

TEST(EventQueue, NextTimeEmptyIsNullopt) {
  EventQueue q;
  EXPECT_FALSE(q.next_time().has_value());
}

TEST(EventQueue, PopSkipsTombstones) {
  EventQueue q;
  const EventId a = q.push(at_us(1), [] {});
  const EventId b = q.push(at_us(2), [] {});
  int fired = 0;
  q.push(at_us(3), [&] { fired = 3; });
  q.cancel(a);
  q.cancel(b);
  const auto f = q.pop();
  EXPECT_EQ(f.at, at_us(3));
  f.cb();
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MassCancelCompactsHeap) {
  // Cancelling most of a large heap must sweep the dead entries out; the
  // compaction invariant is that past the floor, dead entries never
  // outnumber live ones.
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(1000);
  for (int i = 0; i < 1000; ++i) ids.push_back(q.push(at_us(100 + i), [] {}));
  for (int i = 0; i < 990; ++i) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(q.size(), 10u);
  EXPECT_LE(q.heap_entries(), 64u);  // swept, not just tombstoned
  int fired = 0;
  while (!q.empty()) {
    auto f = q.pop();
    f.cb();
    ++fired;
  }
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, CompactionBoundHoldsAcrossPopsAndPushes) {
  // Neither firing nor scheduling cancels anything, but both shift the
  // dead/live ratio: popping the live events in front of buried dead ones,
  // or pushing a nearly all-dead small heap across the floor.
  EventQueue q;
  std::vector<EventId> far;
  for (int i = 0; i < 100; ++i) q.push(at_us(1 + i), [] {});
  for (int i = 0; i < 100; ++i) far.push_back(q.push(at_us(1000 + i), [] {}));
  for (int i = 0; i < 99; ++i) q.cancel(far[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.heap_entries(), 200u);  // 99 dead of 200: not yet due a sweep
  for (int i = 0; i < 100; ++i) {
    q.pop();
    EXPECT_LE(q.heap_entries(), std::max<std::size_t>(64, 2 * q.size()));
  }
  EXPECT_EQ(q.size(), 1u);

  EventQueue small;
  std::vector<EventId> ids;
  for (int i = 0; i < 63; ++i) ids.push_back(small.push(at_us(100 + i), [] {}));
  for (int i = 0; i < 62; ++i) small.cancel(ids[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 3; ++i) {
    small.push(at_us(200 + i), [] {});
    EXPECT_LE(small.heap_entries(), std::max<std::size_t>(64, 2 * small.size()));
  }
}

TEST(EventQueue, SmallHeapSkipsCompaction) {
  // Below the compaction floor, cancels just tombstone — no sweep churn.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(q.push(at_us(i + 1), [] {}));
  for (int i = 0; i < 19; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.heap_entries(), 20u);
}

TEST(EventQueue, StaleIdAfterSlotReuseFails) {
  // A cancelled id's generation no longer matches its slot's, so it can
  // never cancel a later event, including one that inherits the slot once
  // the dead entry has left the queue.
  EventQueue q;
  const EventId stale = q.push(at_us(1), [] {});
  EXPECT_TRUE(q.cancel(stale));
  int fired = 0;
  const EventId fresh = q.push(at_us(2), [&] { ++fired; });
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.cancel(fresh));  // already fired
}

TEST(EventQueue, StaleIdAfterPopAndSlotReuseFails) {
  EventQueue q;
  const EventId popped = q.push(at_us(1), [] {});
  q.pop().cb();
  int fired = 0;
  q.push(at_us(2), [&] { ++fired; });  // reuses popped's slot
  EXPECT_FALSE(q.cancel(popped));
  q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelRePushStress) {
  // Timeout-heavy protocol pattern: arm a batch of timeouts, cancel nearly
  // all of them (acks arrived), re-arm, repeat. The heap must stay bounded
  // and the survivors must all fire.
  EventQueue q;
  int fired = 0;
  std::vector<EventId> timeouts;
  for (int round = 0; round < 100; ++round) {
    timeouts.clear();
    for (int i = 0; i < 100; ++i) {
      timeouts.push_back(q.push(at_us(1'000'000 + round * 100 + i), [&] { ++fired; }));
    }
    // 99 of 100 timeouts are cancelled by their acks.
    for (int i = 0; i < 99; ++i) EXPECT_TRUE(q.cancel(timeouts[static_cast<std::size_t>(i)]));
    EXPECT_LE(q.heap_entries(), std::max<std::size_t>(64, 2 * q.size()));
  }
  EXPECT_EQ(q.size(), 100u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(q.total_scheduled(), 100u * 100u);
}

TEST(EventQueue, MoveOnlyAndLargeCapturesWork) {
  // Callbacks beyond the inline buffer fall back to the heap; move-only
  // captures are fine because the callback type is move-only itself.
  EventQueue q;
  auto big = std::make_unique<std::array<int, 64>>();
  for (int i = 0; i < 64; ++i) (*big)[static_cast<std::size_t>(i)] = i;
  std::array<char, 128> blob{};
  blob[0] = 42;
  blob[127] = 7;
  int sum = 0;
  q.push(at_us(1), [big = std::move(big), &sum] { sum += (*big)[63]; });
  q.push(at_us(2), [blob, &sum] { sum += blob[0] + blob[127]; });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(sum, 63 + 42 + 7);
}

TEST(EventQueue, StressInterleavedPushCancelPop) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      ids.push_back(q.push(at_us(round * 100 + i), [&] { ++fired; }));
    }
    // Cancel every third pending id.
    for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
    ids.clear();
    while (!q.empty() && q.size() > 5) q.pop().cb();
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_GT(fired, 0);
  EXPECT_EQ(q.total_scheduled(), 50u * 20u);
}

TEST(EventQueue, MatchesOrderedSetReference) {
  // Randomized differential check against a std::set<(at, seq)> model:
  // pushes with deliberate equal-time ties, cancels aimed at the earliest
  // event (so dead entries keep surfacing on top) and at arbitrary, possibly
  // stale ids, next_time() and pop(). Raw engine output only, so the op
  // sequence is the same under every standard library.
  EventQueue q;
  std::set<std::pair<SimTime, std::uint64_t>> ref;
  std::vector<std::pair<EventId, SimTime>> issued;  // index = push order
  std::uint64_t fired = ~std::uint64_t{0};
  std::mt19937_64 rng(0x5eed);
  for (int step = 0; step < 60'000; ++step) {
    // Phases of 2000 steps cycle through growth, a cancel storm and a drain,
    // as {push, cancel} percentages; pops take the rest up to 95.
    static constexpr std::uint64_t kMix[3][2] = {{55, 15}, {20, 60}, {25, 15}};
    const auto [push_pct, cancel_pct] = kMix[(step / 2'000) % 3];
    const std::uint64_t r = rng() % 100;
    if (r < push_pct) {
      const SimTime at = at_us(static_cast<std::int64_t>(rng() % 40));
      const std::uint64_t seq = issued.size();
      issued.emplace_back(q.push(at, [&fired, seq] { fired = seq; }), at);
      ref.emplace(at, seq);
    } else if (r < push_pct + cancel_pct && !issued.empty()) {
      // A third of the cancels hit the earliest live event, a third a live
      // one at a random time, the rest any id ever issued (often stale);
      // the model says whether the cancel must succeed.
      const std::uint64_t pick = rng() % 3;
      std::uint64_t seq = rng() % issued.size();
      if (pick == 0 && !ref.empty()) seq = ref.begin()->second;
      if (pick == 1) {
        const auto it = ref.lower_bound({at_us(static_cast<std::int64_t>(rng() % 40)), 0});
        if (it != ref.end()) seq = it->second;
      }
      const bool pending = ref.erase({issued[seq].second, seq}) == 1;
      EXPECT_EQ(q.cancel(issued[seq].first), pending) << "step " << step;
    } else if (r >= push_pct + cancel_pct && r < 95 && !ref.empty()) {
      const auto [at, seq] = *ref.begin();
      ref.erase(ref.begin());
      EventQueue::Fired f = q.pop();
      f.cb();
      EXPECT_EQ(f.at, at) << "step " << step;
      EXPECT_EQ(fired, seq) << "step " << step;
    }
    // Every step, the 5 % that do nothing else included, checks the model.
    const std::optional<SimTime> want =
        ref.empty() ? std::nullopt : std::optional<SimTime>(ref.begin()->first);
    ASSERT_EQ(q.next_time(), want) << "step " << step;
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    ASSERT_LE(q.heap_entries(), std::max<std::size_t>(64, 2 * q.size())) << "step " << step;
  }
  EXPECT_EQ(q.total_scheduled(), issued.size());
}

TEST(EventQueue, MatchesOrderedSetReferenceAcrossTiers) {
  // The same differential check with pushes that span the near heap and
  // the far tier: times are drawn from a few hundred distinct instants
  // over a wide range, so ties straddle every horizon the queue picks;
  // growth phases push thousands of entries (the heap spills its later
  // half), drains run it dry (the far tier refills it), and cancel storms
  // kill far entries as well as near ones and trigger compaction across
  // both tiers.
  EventQueue q;
  std::set<std::pair<SimTime, std::uint64_t>> ref;
  std::vector<std::pair<EventId, SimTime>> issued;  // index = push order
  std::uint64_t fired = ~std::uint64_t{0};
  std::mt19937_64 rng(0x7165);
  SimTime floor = SimTime::zero();  // last popped instant
  for (int step = 0; step < 120'000; ++step) {
    static constexpr std::uint64_t kMix[4][2] = {{80, 5}, {10, 10}, {15, 75}, {45, 10}};
    const auto [push_pct, cancel_pct] = kMix[(step / 5'000) % 4];
    const std::uint64_t r = rng() % 100;
    if (r < push_pct) {
      // Half near the front (within 8 us of the last pop), half anywhere
      // up to 2 ms ahead, on a 1 us grid so equal instants are common.
      const std::int64_t ahead =
          rng() % 2 == 0 ? static_cast<std::int64_t>(rng() % 8)
                         : static_cast<std::int64_t>(rng() % 2'000);
      const SimTime at = floor + SimDuration(ahead * 1'000'000);
      const std::uint64_t seq = issued.size();
      issued.emplace_back(q.push(at, [&fired, seq] { fired = seq; }), at);
      ref.emplace(at, seq);
    } else if (r < push_pct + cancel_pct && !issued.empty()) {
      // Half the cancels hit the latest live event (far-tier entries in a
      // growth phase), the rest any id ever issued, often stale.
      std::uint64_t seq = rng() % issued.size();
      if (rng() % 2 == 0 && !ref.empty()) seq = std::prev(ref.end())->second;
      const bool pending = ref.erase({issued[seq].second, seq}) == 1;
      ASSERT_EQ(q.cancel(issued[seq].first), pending) << "step " << step;
    } else if (!ref.empty()) {
      const auto [at, seq] = *ref.begin();
      ref.erase(ref.begin());
      EventQueue::Fired f = q.pop();
      f.cb();
      ASSERT_EQ(f.at, at) << "step " << step;
      ASSERT_EQ(fired, seq) << "step " << step;
      floor = at;
    }
    const std::optional<SimTime> want =
        ref.empty() ? std::nullopt : std::optional<SimTime>(ref.begin()->first);
    ASSERT_EQ(q.next_time(), want) << "step " << step;
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    ASSERT_LE(q.heap_entries(), std::max<std::size_t>(64, 2 * q.size())) << "step " << step;
  }
  EXPECT_EQ(q.total_scheduled(), issued.size());
}

/// The full sharded ordering key, as a tuple a std::set orders the same
/// way the queue must: (at, path, lineage, seq).
using KeyedRef = std::tuple<SimTime, std::array<SimTime, SchedPath::kDepth>, std::uint64_t,
                            std::uint64_t>;

/// Pushes, cancels and pops with random paths and lineages from small
/// ranges (so every level of the key breaks some ties) and checks each pop
/// against a std::set over the full key. With few `instants`, nearly every
/// pop is decided by the path/lineage/seq part of the key.
void check_keyed_against_reference(std::uint64_t seed, std::int64_t instants, int steps) {
  EventQueue q;
  std::set<KeyedRef> ref;
  std::vector<std::pair<EventId, KeyedRef>> issued;  // index = push order
  std::uint64_t fired = ~std::uint64_t{0};
  std::mt19937_64 rng(seed);
  SimTime floor = SimTime::zero();
  for (int step = 0; step < steps; ++step) {
    static constexpr std::uint64_t kMix[3][2] = {{70, 10}, {20, 50}, {25, 10}};
    const auto [push_pct, cancel_pct] = kMix[(step / 3'000) % 3];
    const std::uint64_t r = rng() % 100;
    if (r < push_pct) {
      const SimTime at = floor + SimDuration(static_cast<std::int64_t>(
                                     rng() % static_cast<std::uint64_t>(instants)) *
                                 1'000'000);
      SchedPath path;
      for (SimTime& hop : path.hops) hop = at_us(static_cast<std::int64_t>(rng() % 3));
      const std::uint64_t lineage = rng() % 3;
      const std::uint64_t seq = issued.size();
      const KeyedRef key{at, path.hops, lineage, seq};
      issued.emplace_back(
          q.push(at, [&fired, seq] { fired = seq; }, path.hops[0], lineage, &path), key);
      ref.insert(key);
    } else if (r < push_pct + cancel_pct && !issued.empty()) {
      const std::uint64_t seq = rng() % issued.size();
      const bool pending = ref.erase(issued[seq].second) == 1;
      ASSERT_EQ(q.cancel(issued[seq].first), pending) << "step " << step;
    } else if (!ref.empty()) {
      const KeyedRef want = *ref.begin();
      ref.erase(ref.begin());
      EventQueue::Fired f = q.pop();
      f.cb();
      ASSERT_EQ(f.at, std::get<0>(want)) << "step " << step;
      ASSERT_EQ(f.path.hops, std::get<1>(want)) << "step " << step;
      ASSERT_EQ(f.sched, std::get<1>(want)[0]) << "step " << step;
      ASSERT_EQ(f.lineage, std::get<2>(want)) << "step " << step;
      ASSERT_EQ(fired, std::get<3>(want)) << "step " << step;
      floor = f.at;
    }
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    ASSERT_LE(q.heap_entries(), std::max<std::size_t>(64, 2 * q.size())) << "step " << step;
  }
  EXPECT_EQ(q.total_scheduled(), issued.size());
}

TEST(EventQueue, KeyedMatchesOrderedSetReference) {
  check_keyed_against_reference(0xbeef, 3'000, 60'000);
}

TEST(EventQueue, KeyedTiesMatchOrderedSetReference) {
  check_keyed_against_reference(0xcafe, 2, 30'000);
}

TEST(EventQueue, CancelledSlotIsNotReusedWhileQueued) {
  // A cancelled entry keeps its slot until it leaves the queue. If cancel()
  // recycled the slot at once, the next push would overwrite the slot's
  // path/lineage while the dead entry still sits in the heap under the old
  // key, and sifts through that entry would misorder live ones. All entries
  // share one instant here, so only the side-array key orders them.
  EventQueue q;
  std::set<std::pair<std::uint64_t, std::uint64_t>> ref;  // (lineage, seq)
  std::vector<EventId> ids;
  std::vector<std::uint64_t> lineages;
  std::uint64_t fired = 0;
  std::mt19937_64 rng(0x51a7);
  const SchedPath path{{at_us(1)}};
  auto push = [&] {
    const std::uint64_t lineage = 1 + rng() % 1'000;
    const std::uint64_t seq = ids.size();
    ids.push_back(q.push(at_us(9), [&fired, seq] { fired = seq; }, at_us(1), lineage, &path));
    lineages.push_back(lineage);
    ref.emplace(lineage, seq);
  };
  for (int i = 0; i < 40; ++i) push();
  for (int round = 0; round < 2'000; ++round) {
    // Cancel a random live entry, then push into the freed capacity.
    const std::uint64_t victim = rng() % ids.size();
    if (ref.erase({lineages[victim], victim}) == 1) {
      EXPECT_TRUE(q.cancel(ids[victim]));
    }
    push();
    if (round % 3 == 0) {
      const auto [lineage, seq] = *ref.begin();
      ref.erase(ref.begin());
      const EventQueue::Fired f = q.pop();
      f.cb();
      ASSERT_EQ(f.lineage, lineage) << "round " << round;
      ASSERT_EQ(fired, seq) << "round " << round;
    }
  }
  while (!ref.empty()) {
    const auto [lineage, seq] = *ref.begin();
    ref.erase(ref.begin());
    q.pop().cb();
    ASSERT_EQ(fired, seq);
  }
  EXPECT_TRUE(q.empty());
}

// The (time, insertion) tie-break is a contract the PDES engine builds on
// (see the header comment): equal-key events fire exactly in push() order,
// cancellation never reorders survivors, and the extended sharded key
// (at, path, lineage, seq) degenerates to (at, seq) when the extras are
// left at their zero defaults.
TEST(TieBreakContract, SurvivorsKeepInsertionOrderAcrossCancels) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.push(at_us(7), [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);  // evens die
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(2 * i + 1));
  }
}

TEST(TieBreakContract, ShardedKeyOrdersBeforeInsertion) {
  // sched (path.hops[0]) dominates seq: a later push with an earlier sched
  // fires first — this is how a sharded queue replays the sequential
  // insertion order for events pushed out-of-band at window boundaries.
  EventQueue q;
  std::vector<int> order;
  q.push(at_us(9), [&] { order.push_back(0); }, at_us(5));
  q.push(at_us(9), [&] { order.push_back(1); }, at_us(3));
  // Equal sched: deeper path hops (the ancestors' scheduling instants)
  // decide before lineage and before insertion order.
  const SchedPath deep_late{{at_us(3), at_us(2)}};
  const SchedPath deep_early{{at_us(3), at_us(1)}};
  q.push(at_us(9), [&] { order.push_back(2); }, at_us(3), 7, &deep_late);
  q.push(at_us(9), [&] { order.push_back(3); }, at_us(3), 6, &deep_early);
  // Equal path: the anchor lineage stamp decides, ascending.
  const SchedPath flat{{at_us(4)}};
  q.push(at_us(9), [&] { order.push_back(4); }, at_us(4), 9, &flat);
  q.push(at_us(9), [&] { order.push_back(5); }, at_us(4), 8, &flat);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 5, 4, 0}));
}

TEST(TieBreakContract, PopEchoesPathAndLineage) {
  EventQueue q;
  const SchedPath p{{at_us(2), at_us(1)}};
  q.push(at_us(5), [] {}, at_us(2), 42, &p);
  const EventQueue::Fired f = q.pop();
  EXPECT_EQ(f.sched, at_us(2));
  EXPECT_EQ(f.lineage, 42u);
  EXPECT_EQ(f.path, p);
}

}  // namespace
}  // namespace qmb::sim
