// Value-carrying collectives over the NIC collective protocol — the
// paper's Sec. 9 future work ("whether other collective communication
// operations, such as Allgather ... could benefit from similar NIC-level
// implementations"), plus host-based counterparts for comparison.
//
// Each rank contributes one logical value: a broadcast payload, a reduction
// operand, or an allgather/alltoall contribution mask (bit r = rank r's
// item; the simulator checks set union, a real implementation would ship
// the items). `payload_bytes` sets the simulated size of one contribution:
// at the default 8 bytes everything rides the padded static send packet
// (Sec. 6.2); larger contributions fall back to pool buffers and host DMA
// on Myrinet, while Elan RDMA carries any size to host memory directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/coll_spec.hpp"
#include "core/schedule.hpp"
#include "core/split_phase.hpp"

namespace qmb::core {

class MyriCluster;
class ElanCluster;
class IbCluster;

/// A cluster-wide value collective. Ranks enter with a contribution and
/// receive the operation's result in their completion callback.
///
/// Two entry styles share one protocol engine (mirroring Barrier):
///
///  * enter(rank, value, done)  — blocking style: `done(result)` fires when
///                                the operation completes for the rank.
///  * start(rank, value) /
///    wait(rank, done)          — GASNet-style split phase: start() launches
///                                the rank's participation and returns; the
///                                rank computes, then wait() completes at
///                                once (the result already landed under the
///                                compute) or parks until it does.
class Collective {
 public:
  virtual ~Collective() = default;

  using DoneFn = std::function<void(std::int64_t result)>;

  /// Rank `rank` enters with `value`; `done(result)` runs on its host.
  /// A rank must not re-enter before its previous completion.
  virtual void enter(int rank, std::int64_t value, DoneFn done) = 0;

  /// Split phase, part 1: starts `rank`'s participation with `value`
  /// without blocking. Throws std::logic_error on a double start (a start
  /// with no intervening wait completion).
  void start(int rank, std::int64_t value) {
    split_.begin(rank, size());
    enter(rank, value,
          [this, rank](std::int64_t result) { split_.complete(rank, size(), result); });
  }

  /// Split phase, part 2: `done(result)` runs when the operation started
  /// earlier completes for `rank` — immediately if it already has. Throws
  /// std::logic_error without a prior start, or when a wait is pending.
  void wait(int rank, DoneFn done) { split_.wait(rank, size(), std::move(done)); }

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual int size() const = 0;
  [[nodiscard]] virtual coll::OpKind kind() const = 0;

 private:
  SplitPhase<DoneFn> split_{{"collective", "started", "start"}};
};

/// NIC-resident implementation: one doorbell in, one completion word out,
/// all combining done by the NICs inside the collective protocol.
class MyriNicCollective final : public Collective {
 public:
  MyriNicCollective(MyriCluster& cluster, const coll::CollSpec& spec);

  void enter(int rank, std::int64_t value, DoneFn done) override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return static_cast<int>(rank_to_node_.size()); }
  [[nodiscard]] coll::OpKind kind() const override { return kind_; }

 private:
  MyriCluster& cluster_;
  coll::OpKind kind_;
  std::vector<int> rank_to_node_;
  std::uint32_t group_id_;
  std::string name_;
};

/// Quadrics chained-RDMA implementation: the payload rides the RDMA puts of
/// the same descriptor chains the barrier uses (paper Sec. 7 generalized to
/// its Sec. 9 future work).
class ElanNicCollective final : public Collective {
 public:
  ElanNicCollective(ElanCluster& cluster, const coll::CollSpec& spec);

  void enter(int rank, std::int64_t value, DoneFn done) override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return static_cast<int>(rank_to_node_.size()); }
  [[nodiscard]] coll::OpKind kind() const override { return kind_; }

 private:
  ElanCluster& cluster_;
  coll::OpKind kind_;
  std::vector<int> rank_to_node_;
  std::uint32_t group_id_;
  std::string name_;
};

/// IB NIC-resident implementation: the collective group engine runs on the
/// HCA over sequenced RDMA writes-with-immediate — one doorbell in, one
/// CQE out, like the Myrinet and Elan NIC engines.
class IbNicCollective final : public Collective {
 public:
  IbNicCollective(IbCluster& cluster, const coll::CollSpec& spec);

  void enter(int rank, std::int64_t value, DoneFn done) override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return static_cast<int>(rank_to_node_.size()); }
  [[nodiscard]] coll::OpKind kind() const override { return kind_; }

 private:
  IbCluster& cluster_;
  coll::OpKind kind_;
  std::vector<int> rank_to_node_;
  std::uint32_t group_id_;
  std::string name_;
};

/// Builds the schedule for an operation kind. `root` applies to bcast;
/// `algorithm` selects the pattern per kind (kDissemination = the kind's
/// canonical default) and `radix` its degree/fan-out. Throws
/// std::invalid_argument for (kind, algorithm) pairs with no value-correct
/// schedule — the pairs collective_algorithms_for does not list.
[[nodiscard]] coll::GroupSchedule make_collective_schedule(
    coll::OpKind kind, int n, int root,
    coll::Algorithm algorithm = coll::Algorithm::kDissemination, int radix = 0);

/// The algorithms make_collective_schedule accepts for `kind`, in the
/// kBarrierAlgorithms order. Single source of truth for the substrate
/// capability tables (SubstrateCaps::collective_algorithms), validate()'s
/// error text, and the fuzzer's case space. Value kinds only list
/// algorithms whose schedule provably combines that kind's payloads
/// (e.g. plain dissemination double-counts a sum, so allreduce maps its
/// kDissemination default to recursive doubling instead).
[[nodiscard]] const std::vector<coll::Algorithm>& collective_algorithms_for(
    coll::OpKind kind);

/// The exact result every rank must observe when rank r enters with value
/// r+1 (root 0 for bcast; sum-reduce; allgather/alltoall union contribution
/// masks). Shared by the run layer's value checking and the load
/// subsystem's per-group verification.
[[nodiscard]] std::int64_t expected_collective_result(coll::OpKind kind, int n);

/// Single construction entry points: one CollSpec in, one Collective out,
/// dispatching on spec.engine (host executors: core/host_executor.hpp).
/// The substrate registry's SubstrateCluster::make_collective lands here.
std::unique_ptr<Collective> make_collective(MyriCluster& cluster,
                                            const coll::CollSpec& spec);
std::unique_ptr<Collective> make_collective(ElanCluster& cluster,
                                            const coll::CollSpec& spec);
std::unique_ptr<Collective> make_collective(IbCluster& cluster,
                                            const coll::CollSpec& spec);

}  // namespace qmb::core
