#include <utility>

#include "core/cluster.hpp"
#include "core/quadrics_barriers.hpp"

namespace qmb::core {

ElanHwBarrier::ElanHwBarrier(ElanCluster& cluster)
    : cluster_(cluster), size_(cluster.size()) {}

void ElanHwBarrier::enter(int rank, std::int64_t /*value*/, DoneFn done) {
  cluster_.node(rank).hgsync_enter([done = std::move(done)] {
    if (done) done(0);
  });
}

}  // namespace qmb::core
