// Spec builders shared by bench_suite's gated points and its paper tables.
//
// Methodology follows the paper (Sec. 8): consecutive barriers, warm-up
// iterations discarded, mean of the timed iterations. The simulation is
// deterministic, so fewer timed iterations than the paper's 10,000 yield
// the identical mean; QMB_BENCH_ITERS overrides for exact replication.
#pragma once

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "run/substrate.hpp"
#include "run/sweep.hpp"

namespace qmb::bench {

inline int timed_iters() {
  if (const char* s = std::getenv("QMB_BENCH_ITERS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 200;
}

inline int warmup_iters() { return 20; }

/// Spec for one consecutive-barrier latency point with the bench defaults.
inline run::ExperimentSpec barrier_spec(run::Network network, int nodes, run::Impl impl,
                                        coll::Algorithm alg, int iters = 0) {
  run::ExperimentSpec s;
  s.network = network;
  s.nodes = nodes;
  s.impl = impl;
  s.algorithm = alg;
  s.iters = iters > 0 ? iters : timed_iters();
  s.warmup = warmup_iters();
  return s;
}

/// Spec for one multi-tenant point: `groups` concurrent 4-rank barrier
/// groups with fixed-rate open-loop arrivals, under one background flood
/// stream whose bottleneck utilization is `load_pct` percent (0 =
/// unloaded). The period comes from the substrate's admission model —
/// service = bytes / flood_bytes_per_second + flood_message_overhead_s —
/// so load_pct is true utilization of the flood path's bottleneck (the
/// destination PCI bus on Myrinet, the wire elsewhere), not a raw byte
/// rate. Fixed-rate arrivals only — Poisson gaps route through libm's
/// log1p, whose last-bit rounding can differ across toolchains, and these
/// points' fingerprints gate CI.
inline run::ExperimentSpec tenancy_spec(run::Network network, int nodes, run::Impl impl,
                                        int groups, int load_pct, int iters = 0) {
  run::ExperimentSpec s =
      barrier_spec(network, nodes, impl, coll::Algorithm::kDissemination, iters);
  s.workload.groups = groups;
  s.workload.group_size = 4;
  s.workload.mix = {coll::OpKind::kBarrier};
  s.workload.arrival = load::Arrival::kFixedRate;
  s.workload.period_us = 20.0;
  if (load_pct > 0) {
    const run::SubstrateCaps& caps = run::substrate_for(network).caps();
    const double service_us =
        (4096.0 / caps.flood_bytes_per_second + caps.flood_message_overhead_s) * 1e6;
    s.workload.flood_streams = 1;
    s.workload.flood_bytes = 4096;
    s.workload.flood_period_us = service_us / (static_cast<double>(load_pct) / 100.0);
  }
  return s;
}

/// One ablation row (Sec. 3/6): the LANai-XP NIC barrier with one of the
/// collective protocol's four simplifications switched off.
struct Ablation {
  const char* slug;   // suite key part
  const char* label;  // table row
  myri::CollFeatures features;
};

inline std::vector<Ablation> ablations() {
  return {{"full", "full collective protocol", {}},
          {"no-dedicated-queue", "- dedicated group queue", {.dedicated_queue = false}},
          {"no-static-packet", "- static send packet", {.static_packet = false}},
          {"no-bitvector-record", "- bit-vector send record", {.bitvector_record = false}},
          {"no-receiver-driven", "- receiver-driven retransmission",
           {.receiver_driven = false}}};
}

inline run::ExperimentSpec ablation_spec(int nodes, const myri::CollFeatures& features) {
  run::ExperimentSpec s = barrier_spec(run::Network::kMyrinetXP, nodes, run::Impl::kNic,
                                       coll::Algorithm::kDissemination);
  s.features = features;
  return s;
}

// The paper tables of `bench_suite --table NAME` (bench/paper_tables.cpp).

/// The accepted table names, space-separated, in usage order.
std::string paper_table_names();

/// Prints table `name`, running its points through `runner`. Returns false
/// for an unknown name.
bool print_paper_table(std::string_view name, const run::SweepRunner& runner);

}  // namespace qmb::bench
