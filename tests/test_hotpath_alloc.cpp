// Zero-allocation assertions for the fabric packet hot path and the
// collective operation window.
//
// The whole test binary's operator new/delete are replaced with counting
// versions (every variant, including sized/aligned/nothrow, so the count is
// exact regardless of which overloads the toolchain picks). After a warmup
// sweep that populates the route cache, grows the event queue to its peak,
// and touches every (src, dst) pair, an identical steady-state sweep —
// injection, traversal, delivery, payload transport — must perform exactly
// zero heap allocations. This is the load-bearing claim behind the route
// cache, the inline PacketPayload, and the enlarged sim::Callback inline
// storage: regressing any of them makes this count non-zero.
//
// The same holds one layer up: once both slots of a GroupWindow have run an
// operation, further operations (early arrivals included) reuse the slots'
// arrival words, payload arrays and early buffers without allocating.
//
// And one layer down: a warmed sim::EventQueue pushes, cancels and pops —
// far-tier spills and refills included — without allocating, and a fresh
// queue holds no memory at all (every engine of a sweep builds one).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/schedule.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "window_harness.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* raw_alloc(std::size_t size) {
  note_alloc();
  return std::malloc(size != 0 ? size : 1);
}

void* raw_aligned_alloc(std::size_t size, std::size_t align) {
  note_alloc();
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return checked(raw_alloc(size)); }
void* operator new[](std::size_t size) { return checked(raw_alloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return raw_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return raw_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return checked(raw_aligned_alloc(size, static_cast<std::size_t>(align)));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked(raw_aligned_alloc(size, static_cast<std::size_t>(align)));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return raw_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return raw_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace qmb::net {
namespace {

using namespace qmb::sim::literals;

struct PingBody {
  std::uint64_t round = 0;
};

constexpr int kNics = 8;

/// One self-sustaining delivery sweep: every NIC re-injects to a rotating
/// destination until its budget runs out. Mirrors a steady-state barrier
/// round's fabric load (every NIC both sending and receiving each step).
void run_sweep(sim::Engine& engine, Fabric& fabric, std::vector<int>& remaining,
               int packets_per_nic) {
  for (int i = 0; i < kNics; ++i) remaining[static_cast<std::size_t>(i)] = packets_per_nic;
  for (int i = 0; i < kNics; ++i) {
    fabric.send(Packet(NicAddr(i), NicAddr((i + 1) % kNics), 64, PingBody{}));
  }
  engine.run();
}

TEST(HotpathAlloc, SteadyStateSweepPerformsZeroAllocations) {
  sim::Engine engine;
  Fabric fabric(engine, std::make_unique<SingleCrossbar>(kNics),
                FabricParams{LinkParams{300_ns, 2.0e9}, SwitchParams{300_ns}});
  std::vector<int> remaining(kNics, 0);
  for (int i = 0; i < kNics; ++i) {
    fabric.attach([&fabric, &remaining, i](Packet&& p) {
      auto& left = remaining[static_cast<std::size_t>(i)];
      if (left == 0) return;
      --left;
      const auto* ping = body_as<PingBody>(p);
      const std::uint64_t round = ping != nullptr ? ping->round + 1 : 0;
      int dst = static_cast<int>((static_cast<std::uint64_t>(i) + round) %
                                 static_cast<std::uint64_t>(kNics));
      if (dst == i) dst = (dst + 1) % kNics;
      fabric.send(Packet(NicAddr(i), NicAddr(dst), 64, PingBody{round}));
    });
  }

  // Warm every (src, dst) route slot explicitly, then run a full sweep so
  // the event queue reaches its steady-state capacity.
  for (int s = 0; s < kNics; ++s) {
    for (int d = 0; d < kNics; ++d) {
      if (s == d) continue;
      fabric.send(Packet(NicAddr(s), NicAddr(d), 64, PingBody{}));
    }
  }
  engine.run();
  run_sweep(engine, fabric, remaining, 200);
  const std::uint64_t delivered_warm = fabric.packets_delivered();
  ASSERT_GT(delivered_warm, 0u);
  // The crossbar is a structured topology: every route comes from the
  // cache's computed O(1) fill, so the memo table never grows at all.
  EXPECT_EQ(fabric.route_cache().entries(), 0u);
  EXPECT_GT(fabric.route_cache().computed(), 0u);

  // Sanity: the counter itself works. Direct operator-new calls cannot be
  // elided the way a new-expression can.
  g_allocs.store(0);
  g_counting.store(true);
  ::operator delete(::operator new(sizeof(int)));
  g_counting.store(false);
  ASSERT_EQ(g_allocs.load(), 1u);

  // The measured, identical sweep: zero allocations allowed.
  g_allocs.store(0);
  g_counting.store(true);
  run_sweep(engine, fabric, remaining, 200);
  g_counting.store(false);
  const std::uint64_t allocs = g_allocs.load();
  const std::uint64_t delivered = fabric.packets_delivered() - delivered_warm;

  EXPECT_GT(delivered, static_cast<std::uint64_t>(kNics) * 200u - 1u);
  EXPECT_EQ(allocs, 0u) << "steady-state packet path allocated " << allocs
                        << " times over " << delivered << " deliveries";
  EXPECT_EQ(fabric.route_cache().entries(), 0u)
      << "measured sweep should not memoize routes on a structured topology";
}

}  // namespace
}  // namespace qmb::net

namespace qmb::core {
namespace {

/// Runs `ops` operations of rank 0 of `g` through a WindowHarness. Every
/// other operation first receives all of its successor's messages early,
/// so the next start() replays a full early buffer.
void run_window_ops(WindowHarness& w, const coll::RankSchedule& rank0, int ops) {
  for (int i = 0; i < ops; ++i) {
    const std::uint32_t seq = w.start(i);
    if (i % 2 == 0) {
      for (const coll::Step& st : rank0.steps) {
        for (const coll::Edge& e : st.waits) w.on_arrival(seq + 1, e.peer, e.tag, 3);
      }
    }
    for (const coll::Step& st : rank0.steps) {
      for (const coll::Edge& e : st.waits) w.on_arrival(seq, e.peer, e.tag, 2);
    }
    ASSERT_TRUE(w.is_complete(seq));
  }
}

struct WindowCase {
  const char* name;
  coll::GroupSchedule schedule;
  coll::OpKind kind;
};

TEST(HotpathAlloc, SteadyStateWindowOpsPerformZeroAllocations) {
  const WindowCase cases[] = {
      {"n64 dissemination barrier",
       coll::make_barrier_schedule(coll::Algorithm::kDissemination, 64),
       coll::OpKind::kBarrier},
      {"n64 allreduce", coll::make_allreduce_schedule(64), coll::OpKind::kAllreduce},
  };
  for (const WindowCase& c : cases) {
    const coll::RankSchedule& rank0 = c.schedule.ranks[0];
    std::uint64_t sends = 0;
    std::uint64_t completions = 0;
    WindowHarness w(
        rank0, [&](std::uint32_t, const coll::Edge&, std::int64_t) { ++sends; },
        [&](std::uint32_t, std::int64_t) { ++completions; }, c.kind);
    run_window_ops(w, rank0, 4);  // both slots bound and grown

    g_allocs.store(0);
    g_counting.store(true);
    run_window_ops(w, rank0, 100);
    g_counting.store(false);
    const std::uint64_t allocs = g_allocs.load();

    EXPECT_EQ(completions, 104u) << c.name;
    EXPECT_EQ(sends, 104u * static_cast<std::uint64_t>(rank0.total_sends())) << c.name;
    EXPECT_EQ(allocs, 0u) << c.name << ": 100 window operations allocated " << allocs
                          << " times";
  }
}

}  // namespace
}  // namespace qmb::core

namespace qmb::sim {
namespace {

/// One queue workout: a burst of 6000 pushes spread over 60 ms (far more
/// than the heap keeps, so its later part spills to the far tier), a third
/// of them cancelled, then a drain that refills the heap from the far tier
/// again and again while every fired event schedules a near-term successor
/// half the time.
void queue_cycle(EventQueue& q, std::vector<EventId>& ids, std::uint64_t& fired) {
  ids.clear();
  SimTime now = SimTime::zero();
  for (int i = 0; i < 6'000; ++i) {
    const SimTime at(static_cast<std::int64_t>((i * 7'919) % 6'000) * 10'000'000);
    ids.push_back(q.push(at, [&fired] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  std::uint64_t n = 0;
  while (!q.empty()) {
    EventQueue::Fired f = q.pop();
    now = f.at;
    f.cb();
    if (++n % 2 == 0 && n < 8'000) q.push(now + SimDuration(1'000'000), [&fired] { ++fired; });
  }
}

TEST(HotpathAlloc, ConstructingAnEventQueueAllocatesNothing) {
  g_allocs.store(0);
  g_counting.store(true);
  {
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.heap_entries(), 0u);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocs.load(), 0u) << "EventQueue's constructor allocated";
}

TEST(HotpathAlloc, SteadyStateEventQueuePerformsZeroAllocations) {
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(6'000);
  std::uint64_t fired = 0;
  queue_cycle(q, ids, fired);  // grows every vector to its peak
  const std::uint64_t warm_fired = fired;

  g_allocs.store(0);
  g_counting.store(true);
  queue_cycle(q, ids, fired);
  g_counting.store(false);
  const std::uint64_t allocs = g_allocs.load();

  EXPECT_EQ(fired - warm_fired, warm_fired);
  EXPECT_GT(warm_fired, 6'000u);
  EXPECT_EQ(allocs, 0u) << "a warmed queue allocated " << allocs << " times over "
                        << warm_fired << " events";
}

}  // namespace
}  // namespace qmb::sim
