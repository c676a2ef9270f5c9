#include "load/group_manager.hpp"

#include <cassert>
#include <memory>
#include <utility>

namespace qmb::load {

GroupManager::GroupManager(run::SubstrateCluster& cluster,
                           const run::ExperimentSpec& spec)
    : spec_(spec), kinds_(distinct_kinds(spec.workload)) {
  const WorkloadSpec& w = spec.workload;
  assert(w.enabled());
  groups_.reserve(static_cast<std::size_t>(w.groups));
  const std::uint64_t seed = w.seed != 0 ? w.seed : spec.seed;
  for (int g = 0; g < w.groups; ++g) {
    Group grp;
    grp.placement = group_placement(w, g, spec.nodes, seed);
    grp.execs.reserve(kinds_.size());
    for (const coll::OpKind kind : kinds_) {
      // Each executor claims its own group id (and thus NIC slot/send
      // queue) from the cluster as it is built — same mechanism as a
      // single-group run, just many of them.
      Exec e;
      e.kind = kind;
      run::ExperimentSpec sub = spec;
      sub.op = kind;
      if (kind != spec.op) {
        // --algorithm binds to --op; other kinds in the mix run their
        // default pattern (the chosen schedule may not exist for them).
        sub.algorithm = coll::Algorithm::kDissemination;
        sub.radix = 0;
      }
      e.op = cluster.make_collective(sub, grp.placement);
      if (impl_name_.empty()) impl_name_ = e.op->name();
      grp.execs.push_back(std::move(e));
    }
    groups_.push_back(std::move(grp));
  }
}

coll::OpKind GroupManager::kind_of(int g, int op_index) const {
  const std::vector<coll::OpKind>& mix = spec_.workload.mix;
  return mix[static_cast<std::size_t>(g + op_index) % mix.size()];
}

const std::vector<int>& GroupManager::placement(int g) const {
  return groups_.at(static_cast<std::size_t>(g)).placement;
}

void GroupManager::enter(int g, int op_index, int rank, std::int64_t value,
                         std::function<void(std::int64_t)> done) {
  Group& grp = groups_.at(static_cast<std::size_t>(g));
  const coll::OpKind kind = kind_of(g, op_index);
  for (Exec& e : grp.execs) {
    if (e.kind != kind) continue;
    e.op->enter(rank, kind == coll::OpKind::kBarrier ? 0 : value, std::move(done));
    return;
  }
  assert(false && "kind_of returned a kind with no executor");
}

}  // namespace qmb::load
