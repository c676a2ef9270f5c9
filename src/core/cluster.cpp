#include "core/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/host_executor.hpp"
#include "core/myri_barriers.hpp"
#include "core/quadrics_barriers.hpp"
#include "net/fat_tree.hpp"
#include "net/topology.hpp"

namespace qmb::core {

namespace {

/// The CollSpec of a schedule-driven barrier.
coll::CollSpec barrier_spec(coll::Engine engine, coll::Algorithm algorithm, int radix,
                            std::vector<int> rank_to_node) {
  coll::CollSpec spec;
  spec.engine = engine;
  spec.algorithm = algorithm;
  spec.radix = radix;
  spec.rank_to_node = std::move(rank_to_node);
  return spec;
}

}  // namespace

MyriCluster::MyriCluster(sim::Engine& engine, const myri::MyrinetConfig& config,
                         int nodes, sim::Tracer* tracer, int engine_domains)
    : engine_(engine), config_(config) {
  if (nodes < 2) throw std::invalid_argument("cluster needs >= 2 nodes");
  std::unique_ptr<net::Topology> topo;
  if (nodes <= 16) {
    // The paper's testbeds: every node on one Myrinet 2000 crossbar.
    topo = std::make_unique<net::SingleCrossbar>(static_cast<std::size_t>(nodes));
  } else {
    // Larger configurations (Fig. 8 scalability): a Clos of 16-port
    // crossbars, i.e. a 16-ary fat tree.
    topo = std::make_unique<net::FatTree>(
        net::FatTree::fitting(16, static_cast<std::size_t>(nodes)));
  }
  fabric_ = std::make_unique<net::Fabric>(engine_, std::move(topo),
                                          net::FabricParams{config_.link, config_.sw},
                                          tracer);
  fabric_->enable_domains(engine_domains);
  nodes_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    // Node i owns NIC i, so its entire event stream belongs to that domain.
    sim::Engine::DomainScope scope(engine_, fabric_->domain_of(net::NicAddr(i)));
    nodes_.push_back(std::make_unique<myri::MyriNode>(engine_, *fabric_, config_, i, tracer));
  }
}

std::unique_ptr<Barrier> MyriCluster::make_barrier(MyriBarrierKind kind,
                                                   coll::Algorithm algorithm,
                                                   std::vector<int> rank_to_node,
                                                   myri::CollFeatures features, int radix) {
  if (kind == MyriBarrierKind::kNicDirect) {
    if (rank_to_node.empty()) rank_to_node = identity_placement(size());
    const auto schedule = coll::make_barrier_schedule(
        algorithm, static_cast<int>(rank_to_node.size()), radix);
    return std::make_unique<Barrier>(
        std::make_unique<MyriDirectNicBarrier>(*this, schedule, std::move(rank_to_node)));
  }
  const coll::Engine engine =
      kind == MyriBarrierKind::kHost ? coll::Engine::kHost : coll::Engine::kNic;
  return std::make_unique<Barrier>(make_collective(
      *this, barrier_spec(engine, algorithm, radix, std::move(rank_to_node)), features));
}

ElanCluster::ElanCluster(sim::Engine& engine, const elan::Elan3Config& config,
                         int nodes, sim::Tracer* tracer, int engine_domains)
    : engine_(engine), config_(config) {
  if (nodes < 2) throw std::invalid_argument("cluster needs >= 2 nodes");
  fabric_ = elan::make_elan_fabric(engine_, config_, static_cast<std::size_t>(nodes), tracer);
  fabric_->enable_domains(engine_domains);
  nodes_.reserve(static_cast<std::size_t>(nodes));
  std::vector<elan::Nic*> nics;
  for (int i = 0; i < nodes; ++i) {
    sim::Engine::DomainScope scope(engine_, fabric_->domain_of(net::NicAddr(i)));
    nodes_.push_back(std::make_unique<elan::ElanNode>(engine_, *fabric_, config_, i, tracer));
    nics.push_back(&nodes_.back()->nic());
  }
  hw_ = std::make_unique<elan::HwBarrierController>(engine_, *fabric_, std::move(nics), config_);
  for (auto& n : nodes_) n->attach_hw_barrier(hw_.get());
}

std::unique_ptr<Barrier> ElanCluster::make_barrier(ElanBarrierKind kind,
                                                   coll::Algorithm algorithm,
                                                   std::vector<int> rank_to_node,
                                                   int gsync_tree_degree, int radix) {
  switch (kind) {
    case ElanBarrierKind::kGsyncTree: {
      // elan_gsync() with hardware broadcast disabled: a host-level
      // gather-broadcast tree over tagged puts.
      if (rank_to_node.empty()) rank_to_node = identity_placement(size());
      return std::make_unique<Barrier>(make_host_collective(
          *this,
          barrier_spec(coll::Engine::kHost, coll::Algorithm::kGatherBroadcast,
                       gsync_tree_degree, {}),
          std::move(rank_to_node), "elan-gsync-tree"));
    }
    case ElanBarrierKind::kHardware:
      return std::make_unique<Barrier>(std::make_unique<ElanHwBarrier>(*this));
    case ElanBarrierKind::kNicChained:
      return std::make_unique<Barrier>(make_collective(
          *this,
          barrier_spec(coll::Engine::kNic, algorithm, radix, std::move(rank_to_node))));
  }
  throw std::invalid_argument("unknown Quadrics barrier kind");
}

IbCluster::IbCluster(sim::Engine& engine, const ib::IbConfig& config, int nodes,
                     sim::Tracer* tracer, bool skip_retransmit, int engine_domains)
    : engine_(engine), config_(config) {
  if (nodes < 2) throw std::invalid_argument("cluster needs >= 2 nodes");
  std::unique_ptr<net::Topology> topo;
  if (static_cast<std::size_t>(nodes) <= config_.radix) {
    topo = std::make_unique<net::SingleCrossbar>(static_cast<std::size_t>(nodes));
  } else {
    topo = std::make_unique<net::FatTree>(
        net::FatTree::fitting(config_.radix, static_cast<std::size_t>(nodes)));
  }
  fabric_ = std::make_unique<net::Fabric>(engine_, std::move(topo),
                                          net::FabricParams{config_.link, config_.sw},
                                          tracer);
  fabric_->enable_domains(engine_domains);
  nodes_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    sim::Engine::DomainScope scope(engine_, fabric_->domain_of(net::NicAddr(i)));
    nodes_.push_back(std::make_unique<ib::IbNode>(engine_, *fabric_, config_, i, tracer,
                                                  skip_retransmit));
  }
}

std::unique_ptr<Barrier> IbCluster::make_barrier(IbBarrierKind kind,
                                                 coll::Algorithm algorithm,
                                                 std::vector<int> rank_to_node, int radix) {
  const coll::Engine engine =
      kind == IbBarrierKind::kHost ? coll::Engine::kHost : coll::Engine::kNic;
  return std::make_unique<Barrier>(make_collective(
      *this, barrier_spec(engine, algorithm, radix, std::move(rank_to_node))));
}

std::vector<int> identity_placement(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

std::vector<int> random_placement(int n, sim::Rng& rng) {
  const auto perm = rng.permutation(static_cast<std::size_t>(n));
  std::vector<int> v(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) v[i] = static_cast<int>(perm[i]);
  return v;
}

namespace {

/// One run_consecutive_ops invocation. The completion callbacks capture
/// only (this, rank, iteration), so they fit std::function's inline buffer.
class OpRunner {
 public:
  OpRunner(sim::Engine& engine, Collective& op, const OpRunPlan& plan)
      : engine_(engine),
        op_(op),
        plan_(plan),
        n_(op.size()),
        total_(plan.warmup + plan.iters),
        expected_(expected_collective_result(op.kind(), n_)),
        rank_iter_(static_cast<std::size_t>(n_), 0),
        completion_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(total_)),
        rank_errors_(static_cast<std::size_t>(n_), 0),
        skew_rng_(plan.skew_seed) {
    assert(total_ > 0);
    assert((engine.domains() == 1 || plan.rank_domain != nullptr) &&
           "sharded engines need the rank -> domain map");
  }

  BarrierRunResult run() {
    for (int r = 0; r < n_; ++r) {
      if (plan_.rank_domain != nullptr) {
        // Direct-call entry inside the rank's domain: everything the
        // protocol schedules from here lands on the right shard, with no
        // extra event (event counts must match the sequential run).
        sim::Engine::DomainScope scope(engine_,
                                       (*plan_.rank_domain)[static_cast<std::size_t>(r)]);
        enter_next(r);
      } else {
        enter_next(r);
      }
    }
    // Watchdog: a protocol bug that retransmits forever would otherwise
    // spin the engine indefinitely.
    engine_.run_until(engine_.now() + plan_.horizon);
    check_complete();

    BarrierRunResult res;
    res.iterations = static_cast<std::uint64_t>(plan_.iters);
    for (const std::uint64_t e : rank_errors_) res.value_errors += e;
    sim::SimTime prev = sim::SimTime::zero();
    for (int i = 0; i < total_; ++i) {
      // The instant the sequential runner saw the n-th rank finish.
      sim::SimTime complete = sim::SimTime::zero();
      for (int r = 0; r < n_; ++r) complete = std::max(complete, slot(r, i));
      if (i >= plan_.warmup) res.per_iteration.add(complete - prev);
      prev = complete;
    }
    res.mean = res.per_iteration.mean();
    return res;
  }

 private:
  // Rank-private completion slot: written exactly once, by the owning
  // rank's completion callback — i.e. from its own engine domain.
  sim::SimTime& slot(int rank, int it) {
    return completion_[static_cast<std::size_t>(rank) * static_cast<std::size_t>(total_) +
                       static_cast<std::size_t>(it)];
  }

  void enter_next(int rank) {
    const int it = rank_iter_[static_cast<std::size_t>(rank)];
    if (it >= total_) return;
    if (plan_.skew_max > sim::SimDuration::zero()) {
      const auto jitter = sim::SimDuration(static_cast<std::int64_t>(
          skew_rng_.next_below(static_cast<std::uint64_t>(plan_.skew_max.picos()) + 1)));
      engine_.schedule(jitter, [this, rank, it] { enter(rank, it); });
    } else {
      // No extra event: the skew-free path stays bit-identical to specs
      // that predate entry skew.
      enter(rank, it);
    }
  }

  void enter(int rank, int it) {
    const std::int64_t value = op_.kind() == coll::OpKind::kBarrier ? 0 : rank + 1;
    if (!plan_.overlap) {
      op_.enter(rank, value, [this, rank, it](std::int64_t result) { done(rank, it, result); });
      return;
    }
    // Split phase: start the protocol, compute for `overlap`, then wait.
    // The protocol progresses underneath the simulated computation; the
    // wait only pays whatever latency the compute did not cover.
    op_.start(rank, value);
    engine_.schedule(*plan_.overlap, [this, rank, it] {
      op_.wait(rank, [this, rank, it](std::int64_t result) { done(rank, it, result); });
    });
  }

  void done(int rank, int it, std::int64_t result) {
    if (result != expected_) ++rank_errors_[static_cast<std::size_t>(rank)];
    rank_iter_[static_cast<std::size_t>(rank)] = it + 1;
    slot(rank, it) = engine_.now();
    // Decouple re-entry from the completion callback so trivially-
    // completing operations cannot recurse the host stack.
    engine_.schedule(sim::SimDuration::zero(), [this, rank] { enter_next(rank); });
  }

  void check_complete() const {
    int unfinished = 0;
    int first = -1;
    for (int r = 0; r < n_; ++r) {
      if (rank_iter_[static_cast<std::size_t>(r)] == total_) continue;
      if (first < 0) first = r;
      ++unfinished;
    }
    if (unfinished == 0) return;
    throw std::runtime_error(
        std::string(coll::to_string(op_.kind())) + " run did not complete: " +
        std::to_string(unfinished) + " of " + std::to_string(n_) +
        " ranks unfinished; first is rank " + std::to_string(first) + " after " +
        std::to_string(rank_iter_[static_cast<std::size_t>(first)]) + " of " +
        std::to_string(total_) + " iterations");
  }

  sim::Engine& engine_;
  Collective& op_;
  const OpRunPlan& plan_;
  int n_;
  int total_;
  std::int64_t expected_;
  std::vector<int> rank_iter_;
  std::vector<sim::SimTime> completion_;
  std::vector<std::uint64_t> rank_errors_;
  sim::Rng skew_rng_;
};

}  // namespace

BarrierRunResult run_consecutive_ops(sim::Engine& engine, Collective& op,
                                     const OpRunPlan& plan) {
  return OpRunner(engine, op, plan).run();
}

BarrierRunResult run_consecutive_barriers(sim::Engine& engine, Barrier& barrier,
                                          int warmup, int iters,
                                          sim::SimDuration max_skew,
                                          std::uint64_t skew_seed,
                                          sim::SimDuration horizon,
                                          const std::vector<int>* rank_domain) {
  OpRunPlan plan;
  plan.warmup = warmup;
  plan.iters = iters;
  plan.skew_max = max_skew;
  plan.skew_seed = skew_seed;
  plan.horizon = horizon;
  plan.rank_domain = rank_domain;
  return run_consecutive_ops(engine, barrier.collective(), plan);
}

}  // namespace qmb::core
