// The Quadrics hardware barrier compared in Fig. 7. The paper's chained-
// RDMA NIC barrier and elan_gsync (the host-level tree) are kBarrier
// executors of core::make_collective.
#pragma once

#include "core/collectives.hpp"

namespace qmb::core {

class ElanCluster;

/// elan_hgsync(): the hardware broadcast + network test-and-set barrier.
/// Fast and N-independent, but only when processes arrive together; a
/// straggler forces probe retries (paper Secs. 4.1 and 8.2). A kBarrier
/// collective: it ignores the entered value and completes with 0.
class ElanHwBarrier final : public Collective {
 public:
  explicit ElanHwBarrier(ElanCluster& cluster);

  void enter(int rank, std::int64_t value, DoneFn done) override;
  [[nodiscard]] std::string_view name() const override { return "elan-hgsync"; }
  [[nodiscard]] int size() const override { return size_; }
  [[nodiscard]] coll::OpKind kind() const override { return coll::OpKind::kBarrier; }

 private:
  ElanCluster& cluster_;
  int size_;
};

}  // namespace qmb::core
