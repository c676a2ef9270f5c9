#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "run/substrate.hpp"

namespace perfbench {

using qmb::coll::Algorithm;
using qmb::coll::OpKind;
using qmb::run::ExperimentSpec;
using qmb::run::Impl;
using qmb::run::Network;

namespace {

// scale-seq / scale-pdes: Fig. 8's largest N. Iterations are few because
// one n4096 barrier already fires ~10^5 events; the point is cost per
// event at scale, not a tighter mean (the simulation is deterministic).
constexpr int kScaleNodes = 4096;
constexpr int kScaleWarmup = 1;
constexpr int kScaleIters = 2;
// Two engine threads: at four, the PDES timings on a shared 4-core host
// spread 13 % run to run against 5 % at two.
constexpr int kPdesThreads = 2;
// The run layer's auto domain target, set explicitly so the windowed PDES
// engine runs (and is measured) even where nproc caps the threads at 1.
constexpr int kPdesDomains = 32;

// paper-sweep: the figure benches' own defaults (Sec. 8 methodology).
constexpr int kSweepWarmup = 20;
constexpr int kSweepIters = 200;
constexpr int kSweepThreads = 2;
constexpr int kSweepPdesThreads = 2;

// tenancy-lossy: 16 groups x 4 ranks on 64 nodes. kTenancyOps is the
// per-group operation count (warmup + timed); host time grows faster than
// linearly in it (every open-loop arrival is pre-scheduled), which is one
// of the costs this workload exists to expose.
constexpr int kTenancyNodes = 64;
constexpr int kTenancyGroups = 16;
constexpr int kTenancyWarmup = 20;
constexpr int kTenancyOps = 1500;
constexpr double kTenancyPeriodUs = 40.0;
constexpr double kTenancyDropProb = 0.0005;
constexpr double kTenancyFloodLoad = 0.5;  // share of the admission bound

ExperimentSpec point(Network net, int nodes, Impl impl, int warmup, int iters) {
  ExperimentSpec s;
  s.network = net;
  s.nodes = nodes;
  s.impl = impl;
  s.algorithm = Algorithm::kDissemination;
  s.warmup = warmup;
  s.iters = iters;
  return s;
}

const Network kScaleNets[] = {Network::kMyrinetXP, Network::kQuadrics,
                              Network::kInfiniBand};

/// Two 4 KiB flood streams at kTenancyFloodLoad of the substrate's flood
/// admission bound (the model validate() enforces), a barrier+allreduce
/// mix and Poisson arrivals, on lossy wires.
ExperimentSpec tenancy_point(Network net) {
  ExperimentSpec s = point(net, kTenancyNodes, Impl::kNic, kTenancyWarmup,
                           kTenancyOps - kTenancyWarmup);
  s.drop_prob = kTenancyDropProb;
  qmb::load::WorkloadSpec& w = s.workload;
  w.groups = kTenancyGroups;
  w.group_size = 4;
  w.membership = qmb::load::Membership::kBlock;
  w.mix = {OpKind::kBarrier, OpKind::kAllreduce};
  w.arrival = qmb::load::Arrival::kPoisson;
  w.period_us = kTenancyPeriodUs;
  const qmb::run::SubstrateCaps& caps = qmb::run::substrate_for(net).caps();
  const double service_us =
      (4096.0 / caps.flood_bytes_per_second + caps.flood_message_overhead_s) * 1e6;
  w.flood_streams = 2;
  w.flood_bytes = 4096;
  w.flood_period_us = service_us / kTenancyFloodLoad;
  return s;
}

void paper_sweep_points(std::vector<ExperimentSpec>& out, int pdes_threads) {
  struct Series {
    Network net;
    Impl impl;
  };
  const Series series[] = {
      {Network::kMyrinetL9, Impl::kNic},   {Network::kMyrinetL9, Impl::kHost},
      {Network::kMyrinetL9, Impl::kDirect}, {Network::kMyrinetXP, Impl::kNic},
      {Network::kMyrinetXP, Impl::kHost},  {Network::kMyrinetXP, Impl::kDirect},
      {Network::kQuadrics, Impl::kNic},    {Network::kQuadrics, Impl::kGsync},
      {Network::kQuadrics, Impl::kHgsync}, {Network::kInfiniBand, Impl::kNic},
      {Network::kInfiniBand, Impl::kHost},
  };
  for (const Series& sr : series) {
    for (int n = 2; n <= 16; ++n) {
      out.push_back(point(sr.net, n, sr.impl, kSweepWarmup, kSweepIters));
    }
  }
  for (const Network net : kScaleNets) {
    for (const Impl impl : {Impl::kNic, Impl::kHost}) {
      for (const int n : {8, 64}) {
        ExperimentSpec s = point(net, n, impl, kSweepWarmup, kSweepIters);
        s.op = OpKind::kAllreduce;
        out.push_back(s);
      }
    }
  }
  ExperimentSpec pdes = point(Network::kQuadrics, 64, Impl::kNic, kSweepWarmup, kSweepIters);
  pdes.engine_threads = pdes_threads;
  pdes.engine_domains = kPdesDomains;
  out.push_back(pdes);
}

}  // namespace

std::string_view to_string(Workload w) {
  switch (w) {
    case Workload::kScaleSeq: return "scale-seq";
    case Workload::kScalePdes: return "scale-pdes";
    case Workload::kPaperSweep: return "paper-sweep";
    case Workload::kTenancyLossy: return "tenancy-lossy";
  }
  return "?";
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all = {Workload::kScaleSeq, Workload::kScalePdes,
                                            Workload::kPaperSweep,
                                            Workload::kTenancyLossy};
  return all;
}

std::optional<Workload> parse_workload(std::string_view s) {
  for (const Workload w : all_workloads()) {
    if (to_string(w) == s) return w;
  }
  return std::nullopt;
}

Plan plan_for(Workload w, std::uint64_t seed, unsigned nproc) {
  const int cap = static_cast<int>(std::max(1u, nproc));
  Plan plan;
  plan.workload = w;
  switch (w) {
    case Workload::kScaleSeq:
    case Workload::kScalePdes:
      for (const Network net : kScaleNets) {
        plan.points.push_back(point(net, kScaleNodes, Impl::kNic, kScaleWarmup, kScaleIters));
      }
      break;
    case Workload::kPaperSweep:
      paper_sweep_points(plan.points, std::min(kSweepPdesThreads, cap));
      plan.sweep_threads = static_cast<unsigned>(std::min(kSweepThreads, cap));
      break;
    case Workload::kTenancyLossy:
      plan.points.push_back(tenancy_point(Network::kMyrinetXP));
      plan.points.push_back(tenancy_point(Network::kInfiniBand));
      break;
  }
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    plan.points[i].seed = qmb::run::seed_for(seed, i);
  }
  if (w == Workload::kScalePdes) {
    for (ExperimentSpec& s : plan.points) {
      s.engine_threads = std::min(kPdesThreads, cap);
      s.engine_domains = kPdesDomains;
    }
  }
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    if (plan.points[i].engine_domains > 1) {
      ExperimentSpec seq = plan.points[i];
      seq.engine_threads = 1;
      seq.engine_domains = 0;
      plan.twins.push_back({i, seq});
    }
  }
  return plan;
}

const std::vector<Anchor>& anchors() {
  // Indices refer to anchor_specs() below.
  static const std::vector<Anchor> a = {
      {"myrinet-xp 8-node NIC barrier (us)", 14.20, 0, std::nullopt},
      {"myrinet-xp 8-node host/NIC factor", 2.64, 1, 0},
      {"myrinet-l9 16-node NIC barrier (us)", 25.72, 2, std::nullopt},
      {"myrinet-l9 16-node host/NIC factor", 3.38, 3, 2},
      {"quadrics 8-node NIC barrier (us)", 5.60, 4, std::nullopt},
      {"quadrics 8-node gsync/NIC factor", 2.48, 5, 4},
      {"quadrics 8-node hgsync barrier (us)", 4.20, 6, std::nullopt},
  };
  return a;
}

std::vector<ExperimentSpec> anchor_specs() {
  return {
      point(Network::kMyrinetXP, 8, Impl::kNic, kSweepWarmup, kSweepIters),
      point(Network::kMyrinetXP, 8, Impl::kHost, kSweepWarmup, kSweepIters),
      point(Network::kMyrinetL9, 16, Impl::kNic, kSweepWarmup, kSweepIters),
      point(Network::kMyrinetL9, 16, Impl::kHost, kSweepWarmup, kSweepIters),
      point(Network::kQuadrics, 8, Impl::kNic, kSweepWarmup, kSweepIters),
      point(Network::kQuadrics, 8, Impl::kGsync, kSweepWarmup, kSweepIters),
      point(Network::kQuadrics, 8, Impl::kHgsync, kSweepWarmup, kSweepIters),
  };
}

double paper_err_pct(const std::vector<double>& means_us) {
  double sum = 0.0;
  for (const Anchor& a : anchors()) {
    const double ours = a.den ? means_us[a.num] / means_us[*a.den] : means_us[a.num];
    sum += std::fabs(ours - a.paper) / a.paper * 100.0;
  }
  return sum / static_cast<double>(anchors().size());
}

}  // namespace perfbench
