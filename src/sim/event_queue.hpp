// Cancellable pending-event queue for the discrete-event engine.
//
// Two tiers keyed on (time, sequence). Entries due soon sit in a 4-ary
// min-heap of 24-byte (at, seq, slot, gen) records; entries after a
// horizon (the fence) sit unsorted in a far tier, so work scheduled long
// ahead (a load run's pre-drawn arrivals, far timers) costs one append
// instead of sifting every pop through it. When the heap runs dry, the
// earliest share of the far tier moves into it (nth_element on time, with
// every entry tied with the last one moved, so ties never straddle the
// fence); a heap grown past its bound spills its later half back. The
// sequence number breaks ties in insertion order, which makes the whole
// simulation deterministic: two events scheduled for the same instant
// always fire in the order they were scheduled.
//
// The (time, insertion) tie-break is a CONTRACT, not an implementation
// detail: the parallel (PDES) engine partitions the simulation into
// per-domain queues and must merge cross-domain work back into an order
// that reproduces this sequential tie-break. Concretely:
//   1. pop() returns live events in strictly non-decreasing key order —
//      equal-key events fire exactly in push() order;
//   2. seq is assigned at push() time and never reordered by cancellation
//      or compaction;
//   3. total_scheduled() counts every push ever made, so two executions
//      that schedule the same events agree on it regardless of interleaving
//      with pops.
//
// Sharded queues extend the key to (at, path, lineage, seq): path is the
// bounded causal-ancestry record (SchedPath — the event's own scheduling
// instant followed by its ancestors'), and lineage is the coordinator's
// injection stamp of the causal chain's anchor (the cross-domain delivery
// — or 0 for chains rooted in the pre-run setup). This reproduces the
// sequential engine's insertion order without global sequencing: a
// sequential run assigns seq in execution order, which is nondecreasing in
// scheduling instant — and within one instant, insertion order equals the
// pushers' execution order, which the comparator recovers recursively from
// the ancestors' scheduling instants (hops[1..]). Chains that are fully
// time-symmetric past kDepth are ordered by the anchor stamp, which the
// coordinator assigns in merge order — itself the senders' sequential
// order, inductively. Sequential queues leave path/lineage zero, so the
// extended comparator degenerates to the historical (at, seq) bit-for-bit;
// path and lineage live in a per-slot side array that exists only once a
// push carries a non-zero one, and is read only when two times tie.
// Window merges sort deferred cross-domain sends by the same
// (emit, path, lineage) key, falling back to (domain, per-domain order)
// only for pre-run-rooted ties — where domain blocks are ascending so that
// fallback is rank order, matching the sequential setup loop.
// test_event_queue's TieBreakContract test pins this down.
//
// Cancellation is O(1) and allocation-free: every live event owns a slot in
// a generation table; cancelling bumps the slot's generation, which orphans
// the queued entry. The slot returns to the free list only when its entry
// leaves the queue, never at cancel(): a sharded queue keeps path and
// lineage per slot, and a recycled slot would change a buried dead entry's
// key under the heap. Orphans are popped off the top when they surface —
// by next_time() as well as pop(), so the front upkeep is amortized
// O(log n) per cancel — or swept from both tiers by compaction when dead
// entries outnumber live ones (NACK-timeout storms cancel thousands of
// armed retransmit timers and must not leave the queue full of corpses).
// No hashing and no per-event allocation in the common case: callbacks are
// small-buffer-optimized (sim::Callback) and slots are recycled through a
// free list.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace qmb::sim {

using EventCallback = Callback;

/// Bounded causal-ancestry record for sharded queues: the scheduling
/// instants of an event and its nearest ancestors (hops[0] = the event's
/// own sched, hops[1] = its parent's, ...). The window merge compares these
/// lexicographically to order equal-instant cross-domain sends the way the
/// sequential engine inserted their emitting events; beyond kDepth the
/// chains are time-symmetric and the anchor lineage stamp decides (see the
/// tie-break contract above). Sequential queues never populate paths.
struct SchedPath {
  static constexpr std::size_t kDepth = 4;
  std::array<SimTime, kDepth> hops{};

  friend bool operator==(const SchedPath&, const SchedPath&) = default;
};

/// Identifies a scheduled event so it can be cancelled. An id is a
/// (slot, generation) pair: slots are reused, generations are not, so a
/// stale id can never cancel a later event that inherited its slot. A
/// sharded engine additionally stamps the owning domain so cancel() can
/// find the right per-domain queue (0 for sequential engines).
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return slot_ != kInvalidSlot; }
  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class EventQueue;
  friend class Engine;
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;
  constexpr EventId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kInvalidSlot;
  std::uint32_t gen_ = 0;
  std::uint32_t shard_ = 0;
};

class EventQueue {
 public:
  /// Enqueues a callback to fire at absolute time `at`. The ordering key is
  /// (at, path, lineage, seq) — see the tie-break contract above; the
  /// sequential engine passes the zero defaults, which makes the key
  /// degenerate to the historical (at, seq). When `path` is null, a path of
  /// {sched, 0, 0, 0} is stored (path.hops[0] is always the sched instant).
  EventId push(SimTime at, EventCallback cb, SimTime sched = SimTime::zero(),
               std::uint64_t lineage = 0, const SchedPath* path = nullptr);

  /// Cancels a pending event. Returns false if it already fired, was already
  /// cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// Time of the earliest live event, or nullopt when empty. Pops any
  /// cancelled entries off the heap top first and refills the heap from the
  /// far tier when it runs dry (neither reorders live events), hence
  /// non-const.
  [[nodiscard]] std::optional<SimTime> next_time() {
    if (heap_.empty() || !is_live(heap_.front())) settle_front();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().at;
  }

  /// Removes and returns the earliest live event. Precondition: !empty().
  /// sched/lineage echo what push() recorded, so a sharded engine can
  /// propagate the running event's causal stamp to whatever it schedules.
  struct Fired {
    SimTime at;
    EventCallback cb;
    SimTime sched;
    std::uint64_t lineage;
    SchedPath path;
  };
  Fired pop();

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Total events ever scheduled; useful as a cheap determinism fingerprint.
  [[nodiscard]] std::uint64_t total_scheduled() const { return next_seq_ - 1; }

  /// Entries currently held by both tiers, live plus cancelled-but-unswept.
  /// Exposed so tests can assert the compaction invariant: after every
  /// push, cancel and pop, a queue of kCompactFloor or more entries holds no
  /// more dead entries than live ones.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size() + far_.size(); }

 private:
  // Queue entries carry only what orders a sequential queue, (at, seq),
  // plus the slot that owns the callback and the generation that says
  // whether the entry is still live: 24 bytes, so a 4-ary sift reads a
  // node's four children from about one and a half cache lines. The
  // callback lives in the slot table (stable storage, one move in and one
  // out per event); a sharded queue's path and lineage live in slot_key_.
  struct Entry {
    SimTime at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  // The sharded part of the key, per slot. A slot belongs to one queued
  // entry from push() until that entry leaves the queue (fired, popped
  // dead or swept), never just until cancel(), so a buried dead entry's
  // key cannot change under it and break the heap order of live ones.
  struct SlotKey {
    SchedPath path;
    std::uint64_t lineage = 0;
  };

  // Below this many entries the dead-entry ratio is irrelevant; avoids
  // re-heapifying tiny queues on every other cancel.
  static constexpr std::size_t kCompactFloor = 64;
  // A heap larger than this spills its later half to the far tier.
  static constexpr std::size_t kSpillAbove = 1024;
  // A heap that runs dry takes the earliest 1/kRefillShare of the far tier,
  // at least kRefillMin entries.
  static constexpr std::size_t kRefillShare = 16;
  static constexpr std::size_t kRefillMin = 256;

  [[nodiscard]] bool is_live(const Entry& e) const { return slot_gen_[e.slot] == e.gen; }
  template <bool kKeyed>
  [[nodiscard]] bool before(const Entry& a, const Entry& b) const;
  template <bool kKeyed>
  void sift_up(std::size_t i, Entry e);
  template <bool kKeyed>
  void sift_down(std::size_t i, Entry e);
  void heap_push(const Entry& e);
  void heap_pop_front();
  void make_heap();

  void settle_front();
  void refill();
  void spill();
  void compact_if_stale();
  void drop(const Entry& e) { free_slots_.push_back(e.slot); }

  // The heap holds every entry at or before fence_, the far tier (unsorted)
  // every entry after it. fence_ is SimTime::max() until the first spill
  // and again after a refill that empties the far tier.
  std::vector<Entry> heap_;
  std::vector<Entry> far_;
  SimTime fence_ = SimTime::max();
  std::size_t spill_above_ = kSpillAbove;

  std::vector<std::uint32_t> slot_gen_;    // slot -> generation of its current owner
  std::vector<EventCallback> slot_cb_;     // slot -> the pending callback
  std::vector<SlotKey> slot_key_;          // slot -> path/lineage; empty until keyed_
  std::vector<std::uint32_t> free_slots_;  // slots whose entry has left the queue
  bool keyed_ = false;  // some push carried a non-zero path or lineage
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace qmb::sim
