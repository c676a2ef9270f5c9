// Per-NIC registry of collective groups, shared by the three NIC engines
// (myri::CollectiveEngine, elan::Nic, ib::Hca).
//
// A NIC is a member of few groups, so the ids live sorted in one small
// vector and a lookup is a binary search over a few contiguous words.
// Group ids come from a cluster-wide counter, so a table indexed by id
// would cost every NIC O(largest id) slots; this costs O(groups joined).
// Each group is allocated once and never moves: executors and timers
// point into its operation window.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace qmb::core {

template <class Group>
class GroupTable {
 public:
  /// Constructs the group registered under `id` from `args`. The id must
  /// not be registered yet (engines check contains() and report it).
  template <class... Args>
  Group& emplace(std::uint32_t id, Args&&... args) {
    auto group = std::make_unique<Group>(std::forward<Args>(args)...);
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    const auto at = it - ids_.begin();
    ids_.insert(it, id);
    return **groups_.insert(groups_.begin() + at, std::move(group));
  }

  /// The group registered under `id`, or null.
  [[nodiscard]] Group* find(std::uint32_t id) const {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) return nullptr;
    return groups_[static_cast<std::size_t>(it - ids_.begin())].get();
  }

  [[nodiscard]] bool contains(std::uint32_t id) const { return find(id) != nullptr; }

 private:
  std::vector<std::uint32_t> ids_;              // sorted
  std::vector<std::unique_ptr<Group>> groups_;  // groups_[i] is ids_[i]'s
};

}  // namespace qmb::core
