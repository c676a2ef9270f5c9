// The substrate registry: every network the simulator models is one
// Substrate descriptor — a name, a set of capability flags, and a cluster
// builder — and the run layer dispatches through it instead of
// special-casing networks. Adding a substrate means adding one adapter TU
// (see substrate_myrinet.cpp / substrate_quadrics.cpp / substrate_ib.cpp)
// and registering it in substrate.cpp; validate(), the CLI name lists, the
// fuzzer's case derivation, and the bench suite all pick it up from here.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/coll_spec.hpp"
#include "run/experiment.hpp"

namespace qmb::run {

/// What a substrate supports, as data. validate() turns these flags into
/// usage errors, derive_case respects them when drawing fault plans, and
/// the CLI lists legal values from them — no hand-rolled per-network
/// strings anywhere else.
struct SubstrateCaps {
  bool faults = false;     // net::FaultSpec plans are recoverable here
  bool drop_prob = false;  // random wire loss is recoverable here
  bool ablations = false;  // myri::CollFeatures ablation switches apply
  /// Why loss injection is unsupported (empty when faults/drop_prob are
  /// on); spliced verbatim into validate()'s error text.
  std::string_view loss_note = "";
  std::vector<Impl> barrier_impls;     // legal --impl values for barriers
  std::vector<Impl> collective_impls;  // legal --impl values for value ops
  /// Barrier Algorithm values the substrate's executors can run. The
  /// schedule-driven impls take any schedule, so this is a property of the
  /// substrate's hardware model (e.g. remote-atomic needs the IB HCA's
  /// remote fetch-add); the fixed-pattern impls (gsync/hgsync) additionally
  /// reject everything but the default regardless of this list.
  std::vector<coll::Algorithm> barrier_algorithms;
  /// Algorithm values the substrate's executors can run for each *value*
  /// op kind (bcast/allreduce/allgather/alltoall), mirroring
  /// barrier_algorithms for barriers. Seeded from the schedule layer's
  /// core::collective_algorithms_for table; a substrate that cannot run a
  /// pattern (hardware model limits) trims its entry. Kinds without an
  /// entry accept only the default algorithm.
  struct KindAlgorithms {
    coll::OpKind op = coll::OpKind::kBarrier;
    std::vector<coll::Algorithm> algorithms;
  };
  std::vector<KindAlgorithms> collective_algorithms;
  /// Barrier impls that embed a fixed pattern and ignore schedules (the
  /// Quadrics gsync tree and hardware barrier, and quadrics --impl host
  /// which maps to the gsync tree). validate() rejects a non-default
  /// --algorithm with these instead of silently ignoring it.
  std::vector<Impl> fixed_pattern_barrier_impls;
  /// Concurrent group slots the substrate exposes (paper design point #1:
  /// one dedicated NIC send queue per group). The 11-bit group field of the
  /// BarrierTag codec binds every current substrate to 2047; validate()
  /// rejects workloads that would need more executors than this instead of
  /// colliding group ids deep in cluster construction.
  int max_groups = 2047;
  /// Sustainable per-stream background-flood throughput: the byte rate of
  /// the flood path's tightest server. validate()'s admission check
  /// rejects open-loop streams offered at or above this rate: their queues
  /// diverge and every collective sharing the path starves until the
  /// horizon, surfacing as a deep "did not complete" failure instead of a
  /// usage error. Loads near (but below) the bound are legal and slow —
  /// which is what the tenancy benchmarks measure. The admission model is
  /// service = bytes / flood_bytes_per_second + flood_message_overhead_s;
  /// costs outside the modeled bottleneck are not folded in, so offered
  /// loads near the bound may still diverge — the horizon watchdog remains
  /// the backstop.
  double flood_bytes_per_second = 0.0;
  /// Fixed per-message service time on the same bottleneck. On Myrinet the
  /// tightest server is the *sender's* MCP send engine (same-destination
  /// messages queue FIFO behind it), so this is the serialized LANai
  /// firmware cycles of one send plus the PCI doorbell and DMA setup; on
  /// Quadrics and IB it is the per-message event/completion-unit costs on
  /// top of the wire rate.
  double flood_message_overhead_s = 0.0;
};

/// A built cluster behind a uniform face: the generic experiment driver
/// only needs the fabric (for fault installation) and the executor
/// factories.
class SubstrateCluster {
 public:
  virtual ~SubstrateCluster() = default;
  [[nodiscard]] virtual net::Fabric& fabric() = 0;
  /// Builds the spec's barrier over `placement` (rank -> node): maps
  /// --impl, including the barrier-only schemes (direct, gsync, hgsync)
  /// a CollSpec cannot name, onto the cluster's barrier kinds.
  [[nodiscard]] virtual std::unique_ptr<core::Barrier> make_barrier(
      const ExperimentSpec& spec, std::vector<int> placement) = 0;
  /// THE collective construction entry point: one CollSpec in, one
  /// executor out. Every knob (kind, engine, root, reduce, payload,
  /// algorithm, radix, placement) rides the spec — growing a knob never
  /// touches this signature again.
  [[nodiscard]] virtual std::unique_ptr<core::Collective> make_collective(
      const coll::CollSpec& spec) = 0;
  /// The executor for any ExperimentSpec: make_barrier's executor for
  /// barriers; otherwise lowers the spec + placement to a CollSpec
  /// (op/impl/algorithm/radix/overlap) and calls the entry point above.
  [[nodiscard]] std::unique_ptr<core::Collective> make_collective(
      const ExperimentSpec& spec, std::vector<int> placement);

  /// Prepares every node for background point-to-point flood traffic
  /// (e.g. the Myrinet adapter provisions and replenishes receive buffers
  /// so plain-tagged messages never trigger NACK storms). Called once
  /// before any flood_send; a no-op where receives need no resources.
  virtual void flood_prepare() {}
  /// One background point-to-point message src -> dst with an application
  /// tag (no BarrierTag base bit), riding the substrate's ordinary host
  /// send path — the open-loop generator's flood/p2p_rand traffic.
  virtual void flood_send(int src, int dst, std::uint32_t bytes, std::uint32_t tag) = 0;
};

/// One registered network model.
class Substrate {
 public:
  virtual ~Substrate() = default;
  [[nodiscard]] virtual Network network() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual const SubstrateCaps& caps() const = 0;
  /// Builds the cluster for `spec` on a private engine. The spec is
  /// pre-validated; builders may read nodes, features, and seed.
  [[nodiscard]] virtual std::unique_ptr<SubstrateCluster> build_cluster(
      sim::Engine& engine, const ExperimentSpec& spec, sim::Tracer* tracer) const = 0;
};

/// All registered substrates, in registration order (stable: the order the
/// CLI lists them and derive_case indexes them).
[[nodiscard]] const std::vector<const Substrate*>& substrates();

/// The substrate for a Network enumerator (every enumerator is registered).
[[nodiscard]] const Substrate& substrate_for(Network n);

/// Lookup by CLI name; nullptr when unknown.
[[nodiscard]] const Substrate* find_substrate(std::string_view name);

/// "myrinet-xp, myrinet-l9, quadrics, ib" (with `sep` between names) — for
/// usage text and parse errors.
[[nodiscard]] std::string substrate_names(std::string_view sep = ", ");

/// Names of the substrates whose caps allow loss injection, for the
/// validate() error text ("myrinet-xp/myrinet-l9/ib").
[[nodiscard]] std::string loss_capable_names(std::string_view sep = "/");

/// Whether `impl` is legal for `op` under `caps`.
[[nodiscard]] bool caps_allow(const SubstrateCaps& caps, coll::OpKind op, Impl impl);

/// The legal --impl list for `op` under `caps`, e.g. "nic, host, direct".
[[nodiscard]] std::string caps_impl_list(const SubstrateCaps& caps, coll::OpKind op);

/// The algorithms the substrate's executors can run for `op`: the barrier
/// list for kBarrier, the matching collective_algorithms entry otherwise
/// (a single-element default list when a kind has no entry).
[[nodiscard]] const std::vector<coll::Algorithm>& caps_algorithms(
    const SubstrateCaps& caps, coll::OpKind op);

/// Whether `a` is an algorithm the substrate's executors can run for `op`.
[[nodiscard]] bool caps_allow_algorithm(const SubstrateCaps& caps, coll::OpKind op,
                                        coll::Algorithm a);

/// The legal --algorithm list for `op` under `caps`, e.g.
/// "ds, pe, gb, tree, trn, fway".
[[nodiscard]] std::string caps_algorithm_list(const SubstrateCaps& caps,
                                              coll::OpKind op);

}  // namespace qmb::run
