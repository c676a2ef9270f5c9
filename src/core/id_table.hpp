// Per-NIC table of objects keyed by small integer ids: the collective
// groups a NIC joined (myri::CollectiveEngine, elan::Nic, ib::Hca) and an
// IB HCA's per-peer queue pairs.
//
// A NIC holds few entries, so the ids live sorted in one small vector and
// a lookup is a binary search over a few contiguous words. Ids come from
// cluster-wide spaces (the group counter, node numbers), so a table
// indexed by id would cost every NIC O(largest id) slots; this costs
// O(entries). Each entry is allocated once and never moves: executors and
// timers point into it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace qmb::core {

template <class T>
class IdTable {
 public:
  /// Constructs the entry registered under `id` from `args`. The id must
  /// not be registered yet (engines check contains() and report it).
  template <class... Args>
  T& emplace(std::uint32_t id, Args&&... args) {
    auto entry = std::make_unique<T>(std::forward<Args>(args)...);
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    const auto at = it - ids_.begin();
    ids_.insert(it, id);
    return **entries_.insert(entries_.begin() + at, std::move(entry));
  }

  /// The entry registered under `id`, or null.
  [[nodiscard]] T* find(std::uint32_t id) const {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) return nullptr;
    return entries_[static_cast<std::size_t>(it - ids_.begin())].get();
  }

  [[nodiscard]] bool contains(std::uint32_t id) const { return find(id) != nullptr; }

  /// The entry registered under `id`, default-constructed on first use.
  T& operator[](std::uint32_t id) {
    if (T* t = find(id)) return *t;
    return emplace(id);
  }

 private:
  std::vector<std::uint32_t> ids_;           // sorted
  std::vector<std::unique_ptr<T>> entries_;  // entries_[i] is ids_[i]'s
};

}  // namespace qmb::core
