#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace qmb::sim {

EventId EventQueue::push(SimTime at, EventCallback cb, SimTime sched,
                         std::uint64_t lineage, const SchedPath* path) {
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_gen_.size());
    slot_gen_.push_back(0);
    slot_cb_.emplace_back();
  }
  slot_cb_[slot] = std::move(cb);
  const SchedPath key = path != nullptr ? *path : SchedPath{{sched}};
  heap_.push_back(Entry{at, key, lineage, seq, slot, slot_gen_[slot]});
  std::push_heap(heap_.begin(), heap_.end());
  ++live_;
  compact_if_stale();
  return EventId(slot, slot_gen_[slot]);
}

void EventQueue::release_slot(std::uint32_t slot) {
  ++slot_gen_[slot];  // orphans the heap entry and invalidates outstanding ids
  slot_cb_[slot] = EventCallback{};  // cancelled callbacks release captures now
  free_slots_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slot_gen_.size() || slot_gen_[id.slot_] != id.gen_) {
    return false;
  }
  release_slot(id.slot_);
  --live_;
  compact_if_stale();
  return true;
}

void EventQueue::compact_if_stale() {
  // Sweep once dead entries exceed half the heap: mass cancellation (e.g. a
  // NACK-timeout storm being acked) must return memory pressure to O(live)
  // rather than O(ever-scheduled). Amortized O(1) per cancel: a sweep costs
  // O(n) but at least n/2 cancels funded it. push() and pop() check too —
  // firing live events past buried dead ones, or pushing across the floor,
  // shifts the ratio without any cancel.
  if (heap_.size() < kCompactFloor || heap_.size() <= 2 * live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::make_heap(heap_.begin(), heap_.end());
}

void EventQueue::drop_dead_front() {
  // Each dead entry is popped at most once, so the upkeep is amortized
  // O(log n) per cancel whichever of next_time()/pop() meets it first.
  while (!heap_.empty() && !is_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  }
}

std::optional<SimTime> EventQueue::next_time() {
  drop_dead_front();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().at;
}

EventQueue::Fired EventQueue::pop() {
  drop_dead_front();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  std::pop_heap(heap_.begin(), heap_.end());
  const Entry e = heap_.back();
  heap_.pop_back();
  EventCallback cb = std::move(slot_cb_[e.slot]);
  release_slot(e.slot);
  --live_;
  compact_if_stale();
  return Fired{e.at, std::move(cb), e.path.hops[0], e.lineage, e.path};
}

}  // namespace qmb::sim
