// Cluster builders and the one benchmark runner — the library's main entry
// points.
//
//   sim::Engine engine;
//   core::MyriCluster cluster(engine, myri::lanaixp_cluster(), 8);
//   auto barrier = cluster.make_barrier(core::MyriBarrierKind::kNicCollective,
//                                       coll::Algorithm::kDissemination);
//   auto result = core::run_consecutive_barriers(engine, *barrier, 100, 10000);
//   std::cout << result.mean.micros() << " us\n";
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/barrier.hpp"
#include "core/schedule.hpp"
#include "ib/node.hpp"
#include "myrinet/gm.hpp"
#include "quadrics/elanlib.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace qmb::core {

enum class MyriBarrierKind {
  kHost,           // host-based over GM point-to-point (baseline)
  kNicDirect,      // prior work: NIC-triggered over the p2p MCP path
  kNicCollective,  // the paper: NIC-based collective protocol
};

enum class ElanBarrierKind {
  kGsyncTree,   // elan_gsync(): host-level gather-broadcast tree
  kHardware,    // elan_hgsync(): hardware broadcast + test-and-set
  kNicChained,  // the paper: chained-RDMA NIC barrier
};

enum class IbBarrierKind {
  kHost,           // host-level over tagged writes (baseline)
  kNicCollective,  // the paper's protocol on RC verbs
};

/// A simulated Myrinet cluster: N nodes on a crossbar (<= 16 nodes, as in
/// the paper's testbeds) or a 16-ary Clos fat tree (larger, for the Fig. 8
/// scalability runs).
class MyriCluster {
 public:
  /// `engine_domains` > 1 asks the fabric for a conservative-PDES cut of
  /// roughly that many domains (see Fabric::enable_domains); each node is
  /// then built inside its domain so all of its events stay there.
  MyriCluster(sim::Engine& engine, const myri::MyrinetConfig& config, int nodes,
              sim::Tracer* tracer = nullptr, int engine_domains = 1);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] myri::MyriNode& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const myri::MyrinetConfig& config() const { return config_; }

  /// Builds a barrier over all nodes. `rank_to_node` permutes rank
  /// placement (the paper benchmarks random permutations); empty = identity.
  std::unique_ptr<Barrier> make_barrier(MyriBarrierKind kind, coll::Algorithm algorithm,
                                        std::vector<int> rank_to_node = {},
                                        myri::CollFeatures features = {}, int radix = 0);

  [[nodiscard]] std::uint32_t next_group_id() { return next_group_id_++; }

 private:
  sim::Engine& engine_;
  myri::MyrinetConfig config_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<myri::MyriNode>> nodes_;
  std::uint32_t next_group_id_ = 1;
};

/// A simulated Quadrics cluster on a quaternary fat tree.
class ElanCluster {
 public:
  ElanCluster(sim::Engine& engine, const elan::Elan3Config& config, int nodes,
              sim::Tracer* tracer = nullptr, int engine_domains = 1);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] elan::ElanNode& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] elan::HwBarrierController& hw_barrier() { return *hw_; }
  [[nodiscard]] const elan::Elan3Config& config() const { return config_; }

  std::unique_ptr<Barrier> make_barrier(ElanBarrierKind kind, coll::Algorithm algorithm,
                                        std::vector<int> rank_to_node = {},
                                        int gsync_tree_degree = 4, int radix = 0);

  [[nodiscard]] std::uint32_t next_group_id() { return next_group_id_++; }

 private:
  sim::Engine& engine_;
  elan::Elan3Config config_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<elan::ElanNode>> nodes_;
  std::unique_ptr<elan::HwBarrierController> hw_;
  std::uint32_t next_group_id_ = 1;
};

/// A simulated InfiniBand cluster: N nodes on one crossbar switch (small
/// fabrics) or a fat tree of `radix`-port switches, with RC queue pairs
/// between every node pair. `skip_retransmit` threads the fuzzer's
/// planted-bug flag into every HCA.
class IbCluster {
 public:
  IbCluster(sim::Engine& engine, const ib::IbConfig& config, int nodes,
            sim::Tracer* tracer = nullptr, bool skip_retransmit = false,
            int engine_domains = 1);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] ib::IbNode& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const ib::IbConfig& config() const { return config_; }

  std::unique_ptr<Barrier> make_barrier(IbBarrierKind kind, coll::Algorithm algorithm,
                                        std::vector<int> rank_to_node = {}, int radix = 0);

  [[nodiscard]] std::uint32_t next_group_id() { return next_group_id_++; }

 private:
  sim::Engine& engine_;
  ib::IbConfig config_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<ib::IbNode>> nodes_;
  std::uint32_t next_group_id_ = 1;
};

/// Identity placement helper.
[[nodiscard]] std::vector<int> identity_placement(int n);
/// Random placement drawn from `rng` (paper Sec. 8.1: "random permutation
/// of the nodes").
[[nodiscard]] std::vector<int> random_placement(int n, sim::Rng& rng);

/// Result of a consecutive-operation latency run (paper methodology:
/// warm-up iterations discarded, then the average of the timed iterations).
struct BarrierRunResult {
  sim::LatencySeries per_iteration;  // steady-state completion-to-completion
  sim::SimDuration mean = sim::SimDuration::zero();
  std::uint64_t iterations = 0;
  /// Delivered results that differed from expected_collective_result —
  /// a protocol correctness bug, never noise.
  std::uint64_t value_errors = 0;
};

/// How run_consecutive_ops drives an executor.
struct OpRunPlan {
  int warmup = 0;
  int iters = 1;
  /// Per-entry skew: every (re-)entry waits a uniform draw in [0, skew_max]
  /// from an RNG seeded with `skew_seed` (deterministic chaos, as the
  /// fuzzer drives). Zero adds no event.
  sim::SimDuration skew_max = sim::SimDuration::zero();
  std::uint64_t skew_seed = 0;
  /// Set: GASNet-style split phase — each rank start()s, simulates this
  /// much local computation, then wait()s, so the visible cost per
  /// iteration is max(overlap, latency) plus the non-overlapped protocol
  /// tail. Unset: blocking enter().
  std::optional<sim::SimDuration> overlap;
  /// Watchdog: the run throws std::runtime_error when ranks are still
  /// unfinished this much simulated time after it started.
  sim::SimDuration horizon = sim::seconds(120);
  /// Rank -> engine domain (from Fabric::domain_of over the placement);
  /// required on a sharded (PDES) engine.
  const std::vector<int>* rank_domain = nullptr;
};

/// THE run loop: `warmup + iters` consecutive operations of `op`. Every
/// rank re-enters as soon as its previous completion is delivered — rank r
/// with value r+1, or 0 for barriers — and every result is checked against
/// expected_collective_result. The per-iteration series is the
/// per-iteration max across ranks: the instant the n-th rank completed.
///
/// On a sharded engine, initial entries are issued inside each rank's
/// domain and every completion lands in a rank-private slot, so parallel
/// windows never race. A run that does not complete throws a "did not
/// complete" error naming the op kind, the unfinished rank count, and the
/// first unfinished rank with its completed-iteration count.
BarrierRunResult run_consecutive_ops(sim::Engine& engine, Collective& op,
                                     const OpRunPlan& plan);

/// run_consecutive_ops over a barrier, blocking style.
BarrierRunResult run_consecutive_barriers(
    sim::Engine& engine, Barrier& barrier, int warmup, int iters,
    sim::SimDuration max_skew = sim::SimDuration::zero(), std::uint64_t skew_seed = 0,
    sim::SimDuration horizon = sim::seconds(120),
    const std::vector<int>* rank_domain = nullptr);

}  // namespace qmb::core
