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
    if (keyed_) slot_key_.emplace_back();
  }
  slot_cb_[slot] = std::move(cb);
  const SchedPath key = path != nullptr ? *path : SchedPath{{sched}};
  if (!keyed_ && (lineage != 0 || key != SchedPath{})) {
    // Every key so far was zero, so the heap order stays valid under the
    // keyed comparison; only slots pushed from now on need their keys.
    keyed_ = true;
    slot_key_.resize(slot_gen_.size());
  }
  if (keyed_) slot_key_[slot] = SlotKey{key, lineage};
  const Entry e{at, seq, slot, slot_gen_[slot]};
  if (at > fence_) {
    far_.push_back(e);
  } else {
    heap_push(e);
    if (heap_.size() > spill_above_) spill();
  }
  ++live_;
  compact_if_stale();
  return EventId(slot, e.gen);
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slot_gen_.size() || slot_gen_[id.slot_] != id.gen_) {
    return false;
  }
  // The bump orphans the queued entry and invalidates the id; the slot
  // itself stays with the dead entry until the entry leaves the queue.
  ++slot_gen_[id.slot_];
  slot_cb_[id.slot_] = EventCallback{};  // cancelled callbacks release captures now
  --live_;
  compact_if_stale();
  return true;
}

EventQueue::Fired EventQueue::pop() {
  if (heap_.empty() || !is_live(heap_.front())) settle_front();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const Entry e = heap_.front();
  heap_pop_front();
  Fired f{e.at, std::move(slot_cb_[e.slot]), SimTime::zero(), 0, SchedPath{}};
  if (keyed_) {
    const SlotKey& k = slot_key_[e.slot];
    f.sched = k.path.hops[0];
    f.lineage = k.lineage;
    f.path = k.path;
  }
  ++slot_gen_[e.slot];  // invalidates the fired event's id
  free_slots_.push_back(e.slot);
  --live_;
  compact_if_stale();
  return f;
}

void EventQueue::settle_front() {
  // Each dead entry is popped at most once, so the upkeep is amortized
  // O(log n) per cancel whichever of next_time()/pop() meets it first.
  while (true) {
    while (!heap_.empty() && !is_live(heap_.front())) {
      drop(heap_.front());
      heap_pop_front();
    }
    if (!heap_.empty() || far_.empty()) return;
    refill();
  }
}

void EventQueue::refill() {
  // The heap is empty. Move the earliest share of the far tier into it,
  // together with every entry tied with the latest one moved, so the far
  // tier again holds only entries after the new fence. nth_element gathers
  // the batch at the back, where it leaves the vector without shifting.
  const std::size_t batch = std::max(kRefillMin, far_.size() / kRefillShare);
  std::size_t keep = 0;
  if (far_.size() > batch) {
    keep = far_.size() - batch;
    const auto later = [](const Entry& a, const Entry& b) { return a.at > b.at; };
    std::nth_element(far_.begin(), far_.begin() + static_cast<std::ptrdiff_t>(keep),
                     far_.end(), later);
    fence_ = far_[keep].at;
    const auto ties = std::partition(
        far_.begin(), far_.begin() + static_cast<std::ptrdiff_t>(keep),
        [this](const Entry& e) { return e.at != fence_; });
    keep = static_cast<std::size_t>(ties - far_.begin());
  } else {
    fence_ = SimTime::max();
  }
  for (std::size_t i = keep; i < far_.size(); ++i) {
    if (is_live(far_[i])) {
      heap_.push_back(far_[i]);
    } else {
      drop(far_[i]);
    }
  }
  far_.resize(keep);
  make_heap();
  spill_above_ = kSpillAbove;
}

void EventQueue::spill() {
  // Move every entry at or after the median instant to the far tier. When
  // the median is also the minimum (a wide barrier step's ties), nothing
  // could stay behind, so the heap keeps growing and the next try waits
  // until it has doubled.
  const std::size_t n = heap_.size();
  const SimTime earliest = heap_.front().at;
  const auto mid = heap_.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(heap_.begin(), mid, heap_.end(),
                   [](const Entry& a, const Entry& b) { return a.at < b.at; });
  const SimTime median = mid->at;
  if (median == earliest) {
    make_heap();
    spill_above_ = 2 * n;
    return;
  }
  const auto stay = std::partition(heap_.begin(), heap_.end(),
                                   [median](const Entry& e) { return e.at < median; });
  for (auto it = stay; it != heap_.end(); ++it) {
    if (is_live(*it)) {
      far_.push_back(*it);
    } else {
      drop(*it);
    }
  }
  heap_.erase(stay, heap_.end());
  fence_ = median - picoseconds(1);
  make_heap();
  spill_above_ = kSpillAbove;
}

void EventQueue::compact_if_stale() {
  // Sweep once dead entries exceed half the queue: mass cancellation (e.g. a
  // NACK-timeout storm being acked) must return memory pressure to O(live)
  // rather than O(ever-scheduled). Amortized O(1) per cancel: a sweep costs
  // O(n) but at least n/2 cancels funded it. push() and pop() check too —
  // firing live events past buried dead ones, or pushing across the floor,
  // shifts the ratio without any cancel.
  const std::size_t entries = heap_entries();
  if (entries < kCompactFloor || entries <= 2 * live_) return;
  for (std::vector<Entry>* tier : {&heap_, &far_}) {
    std::size_t kept = 0;
    for (const Entry& e : *tier) {
      if (is_live(e)) {
        (*tier)[kept++] = e;
      } else {
        drop(e);
      }
    }
    tier->resize(kept);
  }
  make_heap();
}

// --- 4-ary min-heap on (at, path, lineage, seq) ---

template <bool kKeyed>
bool EventQueue::before(const Entry& a, const Entry& b) const {
  if (a.at != b.at) return a.at < b.at;
  if constexpr (kKeyed) {
    // Sequential queues never get here: their keys are all zero.
    const SlotKey& ka = slot_key_[a.slot];
    const SlotKey& kb = slot_key_[b.slot];
    for (std::size_t h = 0; h < SchedPath::kDepth; ++h) {
      if (ka.path.hops[h] != kb.path.hops[h]) return ka.path.hops[h] < kb.path.hops[h];
    }
    if (ka.lineage != kb.lineage) return ka.lineage < kb.lineage;
  }
  return a.seq < b.seq;
}

template <bool kKeyed>
void EventQueue::sift_up(std::size_t i, Entry e) {
  Entry* h = heap_.data();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before<kKeyed>(e, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

template <bool kKeyed>
void EventQueue::sift_down(std::size_t i, Entry e) {
  Entry* h = heap_.data();
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before<kKeyed>(h[c], h[best])) best = c;
    }
    if (!before<kKeyed>(h[best], e)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = e;
}

void EventQueue::heap_push(const Entry& e) {
  heap_.push_back(e);
  if (keyed_) {
    sift_up<true>(heap_.size() - 1, e);
  } else {
    sift_up<false>(heap_.size() - 1, e);
  }
}

void EventQueue::heap_pop_front() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  if (keyed_) {
    sift_down<true>(0, last);
  } else {
    sift_down<false>(0, last);
  }
}

void EventQueue::make_heap() {
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
    if (keyed_) {
      sift_down<true>(i, heap_[i]);
    } else {
      sift_down<false>(i, heap_[i]);
    }
  }
}

}  // namespace qmb::sim
