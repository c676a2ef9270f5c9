#include "core/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "core/host_executor.hpp"
#include "core/ib_barriers.hpp"
#include "core/myri_barriers.hpp"
#include "core/quadrics_barriers.hpp"
#include "net/fat_tree.hpp"
#include "net/topology.hpp"

namespace qmb::core {

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
  if (rank_to_node.empty()) rank_to_node = identity_placement(size());
  const auto schedule = coll::make_barrier_schedule(
      algorithm, static_cast<int>(rank_to_node.size()), radix);
  switch (kind) {
    case MyriBarrierKind::kHost:
      return make_host_barrier(*this, schedule, std::move(rank_to_node),
                               "myri-host-" + std::string(coll::to_string(schedule.algorithm)));
    case MyriBarrierKind::kNicDirect:
      return std::make_unique<MyriDirectNicBarrier>(*this, schedule, std::move(rank_to_node));
    case MyriBarrierKind::kNicCollective:
      return std::make_unique<MyriNicBarrier>(*this, schedule, std::move(rank_to_node),
                                              features);
  }
  throw std::invalid_argument("unknown Myrinet barrier kind");
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
  if (rank_to_node.empty()) rank_to_node = identity_placement(size());
  switch (kind) {
    case ElanBarrierKind::kGsyncTree: {
      // elan_gsync() with hardware broadcast disabled: a host-level
      // gather-broadcast tree over tagged puts.
      const auto schedule = coll::make_barrier_schedule(
          coll::Algorithm::kGatherBroadcast, static_cast<int>(rank_to_node.size()),
          gsync_tree_degree);
      return make_host_barrier(*this, schedule, std::move(rank_to_node), "elan-gsync-tree");
    }
    case ElanBarrierKind::kHardware:
      return std::make_unique<ElanHwBarrier>(*this);
    case ElanBarrierKind::kNicChained: {
      const auto schedule = coll::make_barrier_schedule(
          algorithm, static_cast<int>(rank_to_node.size()), radix);
      return std::make_unique<ElanNicBarrier>(*this, schedule, std::move(rank_to_node));
    }
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
  if (rank_to_node.empty()) rank_to_node = identity_placement(size());
  const auto schedule = coll::make_barrier_schedule(
      algorithm, static_cast<int>(rank_to_node.size()), radix);
  switch (kind) {
    case IbBarrierKind::kHost:
      return make_host_barrier(*this, schedule, std::move(rank_to_node),
                               "ib-host-" + std::string(coll::to_string(schedule.algorithm)));
    case IbBarrierKind::kNicCollective:
      return std::make_unique<IbNicBarrier>(*this, schedule, std::move(rank_to_node));
  }
  throw std::invalid_argument("unknown IB barrier kind");
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

BarrierRunResult run_consecutive_barriers(sim::Engine& engine, Barrier& barrier,
                                          int warmup, int iters,
                                          sim::SimDuration max_skew,
                                          std::uint64_t skew_seed,
                                          sim::SimDuration horizon,
                                          const std::vector<int>* rank_domain) {
  const int n = barrier.size();
  const int total = warmup + iters;
  assert(total > 0);
  assert((engine.domains() == 1 || rank_domain != nullptr) &&
         "sharded engines need the rank -> domain map");

  std::vector<int> rank_iter(static_cast<std::size_t>(n), 0);
  // Completion matrix, one row per rank: each slot is written exactly once,
  // by the owning rank's completion callback — i.e. from its own engine
  // domain — so parallel windows never race on it. The per-iteration
  // completion instant (the time the sequential runner saw the n-th rank
  // finish) is recovered below as the row-wise max.
  std::vector<sim::SimTime> completion(static_cast<std::size_t>(n) *
                                       static_cast<std::size_t>(total));
  sim::Rng skew_rng(skew_seed);

  std::function<void(int)> enter_next = [&](int rank) {
    const int it = rank_iter[static_cast<std::size_t>(rank)];
    if (it >= total) return;
    const auto enter = [&, rank, it] {
      barrier.enter(rank, [&, rank, it] {
        rank_iter[static_cast<std::size_t>(rank)] = it + 1;
        completion[static_cast<std::size_t>(rank) * static_cast<std::size_t>(total) +
                   static_cast<std::size_t>(it)] = engine.now();
        // Decouple re-entry from the completion callback so trivially-
        // completing barriers cannot recurse the host stack.
        engine.schedule(sim::SimDuration::zero(),
                        [&enter_next, rank] { enter_next(rank); });
      });
    };
    if (max_skew > sim::SimDuration::zero()) {
      const auto jitter = sim::SimDuration(static_cast<std::int64_t>(
          skew_rng.next_below(static_cast<std::uint64_t>(max_skew.picos()) + 1)));
      engine.schedule(jitter, enter);
    } else {
      // No extra event: the skew-free path stays bit-identical to specs
      // that predate entry skew.
      enter();
    }
  };
  for (int r = 0; r < n; ++r) {
    if (rank_domain != nullptr) {
      // Direct-call entry inside the rank's domain: everything the protocol
      // schedules from here lands on the right shard, with no extra event
      // (event counts must match the sequential run exactly).
      sim::Engine::DomainScope scope(engine, (*rank_domain)[static_cast<std::size_t>(r)]);
      enter_next(r);
    } else {
      enter_next(r);
    }
  }
  // Watchdog: a protocol bug that retransmits forever would otherwise spin
  // the engine indefinitely. No legitimate run needs minutes of simulated
  // time per 10k barriers.
  engine.run_until(engine.now() + horizon);

  for (int r = 0; r < n; ++r) {
    if (rank_iter[static_cast<std::size_t>(r)] != total) {
      throw std::runtime_error("barrier run did not complete (deadlock in protocol?)");
    }
  }

  BarrierRunResult res;
  res.iterations = static_cast<std::uint64_t>(iters);
  sim::SimTime prev = sim::SimTime::zero();
  for (int i = 0; i < total; ++i) {
    sim::SimTime complete = sim::SimTime::zero();
    for (int r = 0; r < n; ++r) {
      complete = std::max(complete,
                          completion[static_cast<std::size_t>(r) * static_cast<std::size_t>(total) +
                                     static_cast<std::size_t>(i)]);
    }
    if (i >= warmup) res.per_iteration.add(complete - prev);
    prev = complete;
  }
  res.mean = res.per_iteration.mean();
  return res;
}

BarrierRunResult run_split_phase_barriers(sim::Engine& engine, Barrier& barrier,
                                          int warmup, int iters,
                                          sim::SimDuration overlap,
                                          sim::SimDuration horizon) {
  const int n = barrier.size();
  const int total = warmup + iters;
  assert(total > 0);

  std::vector<int> rank_iter(static_cast<std::size_t>(n), 0);
  std::vector<sim::SimTime> completion(static_cast<std::size_t>(n) *
                                       static_cast<std::size_t>(total));

  std::function<void(int)> enter_next = [&](int rank) {
    const int it = rank_iter[static_cast<std::size_t>(rank)];
    if (it >= total) return;
    // Split phase: start the protocol, compute for `overlap`, then wait.
    // The protocol makes progress underneath the simulated computation; the
    // wait only pays whatever latency the compute did not cover.
    barrier.notify(rank);
    engine.schedule(overlap, [&, rank, it] {
      barrier.wait(rank, [&, rank, it] {
        rank_iter[static_cast<std::size_t>(rank)] = it + 1;
        completion[static_cast<std::size_t>(rank) * static_cast<std::size_t>(total) +
                   static_cast<std::size_t>(it)] = engine.now();
        engine.schedule(sim::SimDuration::zero(),
                        [&enter_next, rank] { enter_next(rank); });
      });
    });
  };
  for (int r = 0; r < n; ++r) enter_next(r);
  engine.run_until(engine.now() + horizon);

  for (int r = 0; r < n; ++r) {
    if (rank_iter[static_cast<std::size_t>(r)] != total) {
      throw std::runtime_error("barrier run did not complete (deadlock in protocol?)");
    }
  }

  BarrierRunResult res;
  res.iterations = static_cast<std::uint64_t>(iters);
  sim::SimTime prev = sim::SimTime::zero();
  for (int i = 0; i < total; ++i) {
    sim::SimTime complete = sim::SimTime::zero();
    for (int r = 0; r < n; ++r) {
      complete = std::max(complete,
                          completion[static_cast<std::size_t>(r) * static_cast<std::size_t>(total) +
                                     static_cast<std::size_t>(i)]);
    }
    if (i >= warmup) res.per_iteration.add(complete - prev);
    prev = complete;
  }
  res.mean = res.per_iteration.mean();
  return res;
}

}  // namespace qmb::core
