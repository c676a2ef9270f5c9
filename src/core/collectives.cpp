#include "core/collectives.hpp"

#include <iterator>
#include <stdexcept>
#include <string>

#include "core/cluster.hpp"
#include "core/host_executor.hpp"

namespace qmb::core {

namespace {

std::string_view kind_name(coll::OpKind kind) { return coll::to_string(kind); }

[[nodiscard]] std::vector<int> resolve_placement(const coll::CollSpec& spec,
                                                 int cluster_size) {
  if (!spec.rank_to_node.empty()) return spec.rank_to_node;
  return identity_placement(cluster_size);
}

[[noreturn]] void throw_unsupported(coll::OpKind kind, coll::Algorithm algorithm) {
  throw std::invalid_argument(std::string(coll::to_string(kind)) +
                              " has no value-correct schedule for algorithm " +
                              std::string(coll::to_string(algorithm)));
}

}  // namespace

std::int64_t expected_collective_result(coll::OpKind kind, int n) {
  switch (kind) {
    case coll::OpKind::kBarrier:
      return 0;
    case coll::OpKind::kBcast:
      return 1;  // root is rank 0, which enters 0 + 1
    case coll::OpKind::kAllreduce: {
      const std::int64_t m = n;
      return m * (m + 1) / 2;
    }
    case coll::OpKind::kAllgather:
    case coll::OpKind::kAlltoall: {
      std::int64_t acc = 0;
      for (int r = 0; r < n; ++r) acc |= (r + 1);
      return acc;
    }
  }
  return 0;
}

const std::vector<coll::Algorithm>& collective_algorithms_for(coll::OpKind kind) {
  using A = coll::Algorithm;
  // Listed in kBarrierAlgorithms order. Bcast trees must push the payload
  // down before combining ACKs up (gather-first patterns broadcast
  // nothing); sum-reductions need exchange rounds whose partial blocks
  // tile without overlap (plain dissemination double-counts on non-power
  // sizes, hence the power-of-f-block f-way variant); allgather's union is
  // idempotent, so every knowledge-complete barrier pattern qualifies.
  static const std::vector<A> barrier(std::begin(coll::kBarrierAlgorithms),
                                      std::end(coll::kBarrierAlgorithms));
  static const std::vector<A> bcast = {A::kGatherBroadcast, A::kDissemination,
                                       A::kTree};
  static const std::vector<A> value_combine = {
      A::kGatherBroadcast, A::kPairwiseExchange, A::kDissemination,
      A::kTree,            A::kTournament,       A::kFwayDissemination,
  };
  static const std::vector<A> alltoall = {A::kDissemination};
  switch (kind) {
    case coll::OpKind::kBarrier: return barrier;
    case coll::OpKind::kBcast: return bcast;
    case coll::OpKind::kAllreduce:
    case coll::OpKind::kAllgather: return value_combine;
    case coll::OpKind::kAlltoall: return alltoall;
  }
  throw std::invalid_argument("unknown collective kind");
}

coll::GroupSchedule make_collective_schedule(coll::OpKind kind, int n, int root,
                                             coll::Algorithm algorithm, int radix) {
  using A = coll::Algorithm;
  switch (kind) {
    case coll::OpKind::kBarrier:
      return coll::make_barrier_schedule(algorithm, n, radix);
    case coll::OpKind::kBcast:
      switch (algorithm) {
        case A::kDissemination:  // default: canonical binary tree
          return coll::make_bcast_schedule(n, root);
        case A::kGatherBroadcast:  // the d-ary tree, degree = radix
          return coll::make_bcast_schedule(n, root, radix > 0 ? radix : 2);
        case A::kTree:
          return coll::make_binomial_bcast_schedule(n, root);
        default:
          throw_unsupported(kind, algorithm);
      }
    case coll::OpKind::kAllreduce:
      switch (algorithm) {
        case A::kDissemination:  // default: canonical recursive doubling
        case A::kPairwiseExchange:
          return coll::make_allreduce_schedule(n);
        case A::kGatherBroadcast:
        case A::kTree:
        case A::kTournament:
          // Combine-up / result-down patterns: non-result tags sum the
          // partials, kTagDown/kTagWake replace with the final value.
          return coll::make_barrier_schedule(algorithm, n, radix);
        case A::kFwayDissemination:
          return coll::make_fway_allreduce_schedule(n, radix);
        default:
          throw_unsupported(kind, algorithm);
      }
    case coll::OpKind::kAllgather:
      switch (algorithm) {
        case A::kDissemination:  // default: canonical dissemination
          return coll::make_allgather_schedule(n);
        case A::kGatherBroadcast:
        case A::kPairwiseExchange:
        case A::kTree:
        case A::kTournament:
        case A::kFwayDissemination:
          // Union is idempotent, so any knowledge-complete barrier
          // schedule gathers correctly.
          return coll::make_barrier_schedule(algorithm, n, radix);
        default:
          throw_unsupported(kind, algorithm);
      }
    case coll::OpKind::kAlltoall:
      if (algorithm == A::kDissemination) return coll::make_alltoall_schedule(n);
      throw_unsupported(kind, algorithm);
  }
  throw std::invalid_argument("unknown collective kind");
}

MyriNicCollective::MyriNicCollective(MyriCluster& cluster, const coll::CollSpec& spec)
    : cluster_(cluster),
      kind_(spec.op),
      rank_to_node_(resolve_placement(spec, cluster.size())),
      group_id_(cluster.next_group_id()) {
  const int n = static_cast<int>(rank_to_node_.size());
  const auto schedule =
      make_collective_schedule(spec.op, n, spec.root, spec.algorithm, spec.radix);
  name_ = std::string("myri-nic-") + std::string(kind_name(spec.op));

  const coll::Placement placement = coll::make_placement(rank_to_node_);
  for (int r = 0; r < n; ++r) {
    myri::GroupDesc desc;
    desc.group_id = group_id_;
    desc.my_rank = r;
    desc.rank_to_node = placement;
    desc.schedule = schedule.ranks[static_cast<std::size_t>(r)];
    desc.op_kind = spec.op;
    desc.reduce_op = spec.reduce;
    desc.payload_bytes = spec.payload_bytes;
    cluster_.node(rank_to_node_[static_cast<std::size_t>(r)]).port().create_group(std::move(desc));
  }
}

void MyriNicCollective::enter(int rank, std::int64_t value, DoneFn done) {
  const int node = rank_to_node_.at(static_cast<std::size_t>(rank));
  cluster_.node(node).port().collective_enter(group_id_, value, std::move(done));
}

ElanNicCollective::ElanNicCollective(ElanCluster& cluster, const coll::CollSpec& spec)
    : cluster_(cluster),
      kind_(spec.op),
      rank_to_node_(resolve_placement(spec, cluster.size())),
      group_id_(cluster.next_group_id()) {
  const int n = static_cast<int>(rank_to_node_.size());
  const auto schedule =
      make_collective_schedule(spec.op, n, spec.root, spec.algorithm, spec.radix);
  name_ = std::string("elan-nic-") + std::string(kind_name(spec.op));

  const coll::Placement placement = coll::make_placement(rank_to_node_);
  for (int r = 0; r < n; ++r) {
    elan::ElanGroupDesc desc;
    desc.group_id = group_id_;
    desc.my_rank = r;
    desc.rank_to_node = placement;
    desc.schedule = schedule.ranks[static_cast<std::size_t>(r)];
    desc.op_kind = spec.op;
    desc.reduce_op = spec.reduce;
    desc.payload_bytes = spec.payload_bytes;
    cluster_.node(rank_to_node_[static_cast<std::size_t>(r)])
        .create_barrier_group(std::move(desc));
  }
}

void ElanNicCollective::enter(int rank, std::int64_t value, DoneFn done) {
  const int node = rank_to_node_.at(static_cast<std::size_t>(rank));
  cluster_.node(node).collective_enter(group_id_, value, std::move(done));
}

IbNicCollective::IbNicCollective(IbCluster& cluster, const coll::CollSpec& spec)
    : cluster_(cluster),
      kind_(spec.op),
      rank_to_node_(resolve_placement(spec, cluster.size())),
      group_id_(cluster.next_group_id()) {
  const int n = static_cast<int>(rank_to_node_.size());
  const auto schedule =
      make_collective_schedule(spec.op, n, spec.root, spec.algorithm, spec.radix);
  name_ = std::string("ib-nic-") + std::string(kind_name(spec.op));

  const coll::Placement placement = coll::make_placement(rank_to_node_);
  for (int r = 0; r < n; ++r) {
    ib::IbGroupDesc desc;
    desc.group_id = group_id_;
    desc.my_rank = r;
    desc.rank_to_node = placement;
    desc.schedule = schedule.ranks[static_cast<std::size_t>(r)];
    desc.op_kind = spec.op;
    desc.reduce_op = spec.reduce;
    desc.payload_bytes = spec.payload_bytes;
    cluster_.node(rank_to_node_[static_cast<std::size_t>(r)]).create_group(std::move(desc));
  }
}

void IbNicCollective::enter(int rank, std::int64_t value, DoneFn done) {
  const int node = rank_to_node_.at(static_cast<std::size_t>(rank));
  cluster_.node(node).collective_enter(group_id_, value, std::move(done));
}

std::unique_ptr<Collective> make_collective(MyriCluster& cluster,
                                            const coll::CollSpec& spec) {
  if (spec.engine == coll::Engine::kHost) {
    return make_host_collective(cluster, spec, resolve_placement(spec, cluster.size()));
  }
  return std::make_unique<MyriNicCollective>(cluster, spec);
}

std::unique_ptr<Collective> make_collective(ElanCluster& cluster,
                                            const coll::CollSpec& spec) {
  if (spec.engine == coll::Engine::kHost) {
    return make_host_collective(cluster, spec, resolve_placement(spec, cluster.size()));
  }
  return std::make_unique<ElanNicCollective>(cluster, spec);
}

std::unique_ptr<Collective> make_collective(IbCluster& cluster,
                                            const coll::CollSpec& spec) {
  if (spec.engine == coll::Engine::kHost) {
    return make_host_collective(cluster, spec, resolve_placement(spec, cluster.size()));
  }
  return std::make_unique<IbNicCollective>(cluster, spec);
}

}  // namespace qmb::core
