#include "fuzz/case.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "load/workload.hpp"
#include "obs/json.hpp"
#include "run/substrate.hpp"
#include "sim/rng.hpp"

namespace qmb::fuzz {

namespace {

/// Picks an element with uniform probability. Draw order is part of the
/// derivation contract: reordering draws changes every derived case, which
/// is allowed (repro artifacts carry full specs, not seeds) but noisy.
template <typename T, std::size_t N>
T pick(sim::Rng& rng, const T (&options)[N]) {
  return options[rng.next_below(N)];
}

template <typename T>
T pick(sim::Rng& rng, const std::vector<T>& options) {
  return options[rng.next_below(options.size())];
}

net::FaultSpec derive_fault(sim::Rng& rng, int nodes) {
  net::FaultSpec f;
  f.src = rng.next_bool(0.5) ? -1 : static_cast<std::int32_t>(rng.next_below(
                                        static_cast<std::uint64_t>(nodes)));
  f.dst = rng.next_bool(0.5) ? -1 : static_cast<std::int32_t>(rng.next_below(
                                        static_cast<std::uint64_t>(nodes)));
  constexpr net::FaultAction kActions[] = {
      net::FaultAction::kDrop, net::FaultAction::kDuplicate,
      net::FaultAction::kCorrupt, net::FaultAction::kReorder};
  f.action = pick(rng, kActions);
  if (f.action == net::FaultAction::kReorder) {
    f.delay_ps = sim::microseconds(static_cast<std::int64_t>(1 + rng.next_below(30))).picos();
  }
  switch (rng.next_below(3)) {
    case 0:  // targeted: the nth matching packet
      f.nth = 1 + rng.next_below(60);
      break;
    case 1:  // soak: low per-packet probability, its own seed
      f.prob = static_cast<double>(1 + rng.next_below(100)) / 1000.0;  // 0.1%..10%
      f.seed = rng.next_u64();
      break;
    default: {  // blackout-style time window early in the run
      const std::int64_t from_us = static_cast<std::int64_t>(rng.next_below(200));
      const std::int64_t len_us = static_cast<std::int64_t>(1 + rng.next_below(100));
      f.from_ps = sim::microseconds(from_us).picos();
      f.until_ps = sim::microseconds(from_us + len_us).picos();
      break;
    }
  }
  return f;
}

}  // namespace

run::ExperimentSpec derive_case(std::uint64_t seed, const FuzzOptions& opts) {
  sim::Rng rng(seed);
  run::ExperimentSpec s;
  s.seed = rng.next_u64();  // feeds placement + skew, decorrelated from draws below
  s.horizon_ms = opts.horizon_ms;
  s.engine_threads = opts.engine_threads > 0 ? opts.engine_threads : 1;

  constexpr run::Network kNets[] = {run::Network::kMyrinetXP, run::Network::kMyrinetXP,
                                    run::Network::kMyrinetL9, run::Network::kQuadrics,
                                    run::Network::kInfiniBand};
  s.network = pick(rng, kNets);
  const run::SubstrateCaps& caps = run::substrate_for(s.network).caps();

  constexpr coll::OpKind kOps[] = {coll::OpKind::kBarrier, coll::OpKind::kBcast,
                                   coll::OpKind::kAllreduce, coll::OpKind::kAllgather,
                                   coll::OpKind::kAlltoall};
  s.op = pick(rng, kOps);

  if (s.op == coll::OpKind::kBarrier) {
    // The legal list comes from the substrate's capability flags; kNic is
    // weighted double (the paper's protocol is the fuzzing target).
    std::vector<run::Impl> impls = {run::Impl::kNic};
    impls.insert(impls.end(), caps.barrier_impls.begin(), caps.barrier_impls.end());
    s.impl = pick(rng, impls);
  } else {
    s.impl = rng.next_bool(0.25) ? run::Impl::kHost : run::Impl::kNic;
  }

  // Drawn from the substrate's capability list *for the drawn op kind* so
  // every legal (kind, algorithm) pair — including remote-atomic barriers,
  // which only IB's HCA verbs support, and the value-collective schedules
  // (tree/fway allreduce etc.) — gets fuzzed, and illegal pairs never
  // derive. The fixed-pattern barrier impls ignore schedules (validate()
  // rejects a non-default algorithm there), so those fall back to the
  // default after the draw.
  s.algorithm = pick(rng, run::caps_algorithms(caps, s.op));
  if (s.op == coll::OpKind::kBarrier &&
      std::find(caps.fixed_pattern_barrier_impls.begin(),
                caps.fixed_pattern_barrier_impls.end(),
                s.impl) != caps.fixed_pattern_barrier_impls.end()) {
    s.algorithm = coll::Algorithm::kDissemination;
  }
  if ((s.algorithm == coll::Algorithm::kGatherBroadcast ||
       s.algorithm == coll::Algorithm::kFwayDissemination) &&
      rng.next_bool(0.5)) {
    s.radix = static_cast<int>(2 + rng.next_below(7));  // 2..8
  }

  s.nodes = static_cast<int>(2 + rng.next_below(static_cast<std::uint64_t>(
                                     opts.max_nodes > 2 ? opts.max_nodes - 1 : 1)));
  s.iters = static_cast<int>(
      1 + rng.next_below(static_cast<std::uint64_t>(opts.max_iters > 0 ? opts.max_iters : 1)));
  s.warmup = static_cast<int>(rng.next_below(3));
  s.random_placement = rng.next_bool(0.5);

  // Ablation switches: mostly on (the production config), each off a
  // quarter of the time so their interactions get exercised too. Only
  // drawn where the substrate implements them.
  if (caps.ablations) {
    s.features.dedicated_queue = rng.next_bool(0.75);
    s.features.static_packet = rng.next_bool(0.75);
    s.features.receiver_driven = rng.next_bool(0.75);
    s.features.bitvector_record = rng.next_bool(0.75);
  }

  // Entry skew: a third of cases keep the tight re-entry loop, the rest
  // smear entries over up to 20 us.
  s.skew_max_us = rng.next_below(3) == 0
                      ? 0.0
                      : static_cast<double>(rng.next_below(20'001)) / 1000.0;

  if (caps.faults) {
    const std::uint64_t rules = rng.next_below(4);  // 0..3 rules
    for (std::uint64_t i = 0; i < rules; ++i) {
      s.faults.push_back(derive_fault(rng, s.nodes));
    }
    if (opts.inject_bug && s.impl == run::Impl::kNic) {
      s.features.debug_skip_retransmit = true;
    }
  }

  // A third of cases run the multi-tenant workload layer instead of one
  // all-nodes group: concurrent (possibly overlapping) groups, an arrival
  // process, and sometimes background flood — so the group dispatchers and
  // per-group NIC state get fuzzed under the same fault plans. Drawn last:
  // earlier cases' derivations are unchanged. Membership stays block/random
  // (stride can collide, which validate() rejects by design); flood rates
  // stay far below the slowest substrate link so the admission check never
  // rejects a derived case.
  if (rng.next_below(3) == 0) {
    load::WorkloadSpec& w = s.workload;
    if (s.impl != run::Impl::kNic && s.impl != run::Impl::kHost) {
      s.impl = rng.next_bool(0.5) ? run::Impl::kNic : run::Impl::kHost;
    }
    w.groups = static_cast<int>(2 + rng.next_below(3));  // 2..4
    const std::uint64_t max_size = static_cast<std::uint64_t>(std::min(s.nodes, 4));
    w.group_size = static_cast<int>(2 + rng.next_below(max_size > 2 ? max_size - 1 : 1));
    w.membership = rng.next_bool(0.5) ? load::Membership::kBlock : load::Membership::kRandom;
    constexpr coll::OpKind kMixOps[] = {coll::OpKind::kBarrier, coll::OpKind::kBcast,
                                        coll::OpKind::kAllreduce, coll::OpKind::kAllgather};
    w.mix = {pick(rng, kMixOps)};
    if (rng.next_bool(0.5)) w.mix.push_back(pick(rng, kMixOps));
    constexpr load::Arrival kArrivals[] = {load::Arrival::kClosed, load::Arrival::kFixedRate,
                                           load::Arrival::kPoisson, load::Arrival::kBurst};
    w.arrival = pick(rng, kArrivals);
    w.period_us = static_cast<double>(5 + rng.next_below(56));  // 5..60us
    w.burst_on_us = static_cast<double>(100 + rng.next_below(301));
    w.burst_off_us = static_cast<double>(200 + rng.next_below(601));
    w.flood_streams = static_cast<int>(rng.next_below(3));  // 0..2
    if (w.flood_streams > 0) {
      constexpr std::uint32_t kBytes[] = {512, 1024, 2048};
      w.flood_bytes = pick(rng, kBytes);
      w.flood_period_us = 16.0;  // 2048B/16us = 128 MB/s < the 340 MB/s Elan link
      w.flood_random = rng.next_bool(0.5);
    }
    w.seed = rng.next_u64();
    // The workload impl redraw above can land on a fixed-pattern barrier
    // impl (quadrics --impl host is the gsync tree); keep the case legal.
    if (std::find(caps.fixed_pattern_barrier_impls.begin(),
                  caps.fixed_pattern_barrier_impls.end(),
                  s.impl) != caps.fixed_pattern_barrier_impls.end()) {
      s.algorithm = coll::Algorithm::kDissemination;
    }
  }

  // Split-phase overlap: a quarter of plain (non-workload) cases run the
  // split-phase loop — notify/compute/wait for barriers, start/compute/wait
  // for value collectives — with up to 20 us of simulated compute. Drawn
  // last, so every earlier case's derivation is unchanged. Entry skew does
  // not apply to split-phase runs (validate() rejects the pair), so the
  // skew drawn above is dropped.
  if (!s.workload.enabled() && rng.next_below(4) == 0) {
    s.overlap_us = static_cast<double>(rng.next_below(20'001)) / 1000.0;
    s.skew_max_us = 0.0;
  }
  return s;
}

namespace {

obs::JsonValue u64_json(std::uint64_t v) { return obs::JsonValue::of(std::to_string(v)); }

std::uint64_t u64_field(const obs::JsonValue& obj, std::string_view key,
                        std::uint64_t fallback) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type == obs::JsonValue::Type::kString) {
    return std::strtoull(v->string.c_str(), nullptr, 10);
  }
  if (v->type == obs::JsonValue::Type::kNumber) {
    return static_cast<std::uint64_t>(v->number);
  }
  throw std::invalid_argument("spec field '" + std::string(key) +
                              "' must be a string or number");
}

std::int64_t i64_field(const obs::JsonValue& obj, std::string_view key,
                       std::int64_t fallback) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != obs::JsonValue::Type::kNumber) {
    throw std::invalid_argument("spec field '" + std::string(key) + "' must be a number");
  }
  return static_cast<std::int64_t>(v->number);
}

double double_field(const obs::JsonValue& obj, std::string_view key, double fallback) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != obs::JsonValue::Type::kNumber) {
    throw std::invalid_argument("spec field '" + std::string(key) + "' must be a number");
  }
  return v->number;
}

bool bool_field(const obs::JsonValue& obj, std::string_view key, bool fallback) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->type != obs::JsonValue::Type::kBool) {
    throw std::invalid_argument("spec field '" + std::string(key) + "' must be a bool");
  }
  return v->boolean;
}

}  // namespace

std::string spec_to_json(const run::ExperimentSpec& s) {
  obs::JsonValue o = obs::JsonValue::make_object();
  o.set("network", obs::JsonValue::of(run::to_string(s.network)));
  o.set("nodes", obs::JsonValue::of(static_cast<std::int64_t>(s.nodes)));
  o.set("op", obs::JsonValue::of(run::to_string(s.op)));
  o.set("impl", obs::JsonValue::of(run::to_string(s.impl)));
  o.set("algorithm", obs::JsonValue::of(coll::to_string(s.algorithm)));
  // Zoo knobs are replay-relevant only when non-default; omitting defaults
  // keeps pre-existing artifacts byte-identical.
  if (s.radix != 0) o.set("radix", obs::JsonValue::of(static_cast<std::int64_t>(s.radix)));
  if (s.overlap_us >= 0.0) o.set("overlap_us", obs::JsonValue::of(s.overlap_us));
  o.set("iters", obs::JsonValue::of(static_cast<std::int64_t>(s.iters)));
  o.set("warmup", obs::JsonValue::of(static_cast<std::int64_t>(s.warmup)));
  o.set("seed", u64_json(s.seed));
  o.set("random_placement", obs::JsonValue::of(s.random_placement));
  o.set("drop_prob", obs::JsonValue::of(s.drop_prob));
  o.set("skew_max_us", obs::JsonValue::of(s.skew_max_us));
  o.set("horizon_ms", obs::JsonValue::of(static_cast<std::int64_t>(s.horizon_ms)));
  // PDES knobs never change results (that is the engine's contract), so
  // they are replay-relevant only when non-default — keeps every artifact
  // written before the parallel engine byte-identical.
  if (s.engine_threads != 1) {
    o.set("engine_threads", obs::JsonValue::of(static_cast<std::int64_t>(s.engine_threads)));
  }
  if (s.engine_domains != 0) {
    o.set("engine_domains", obs::JsonValue::of(static_cast<std::int64_t>(s.engine_domains)));
  }

  obs::JsonValue features = obs::JsonValue::make_object();
  features.set("dedicated_queue", obs::JsonValue::of(s.features.dedicated_queue));
  features.set("static_packet", obs::JsonValue::of(s.features.static_packet));
  features.set("receiver_driven", obs::JsonValue::of(s.features.receiver_driven));
  features.set("bitvector_record", obs::JsonValue::of(s.features.bitvector_record));
  features.set("debug_skip_retransmit",
               obs::JsonValue::of(s.features.debug_skip_retransmit));
  o.set("features", std::move(features));

  obs::JsonValue faults = obs::JsonValue::make_array();
  for (const net::FaultSpec& f : s.faults) {
    obs::JsonValue r = obs::JsonValue::make_object();
    r.set("src", obs::JsonValue::of(static_cast<std::int64_t>(f.src)));
    r.set("dst", obs::JsonValue::of(static_cast<std::int64_t>(f.dst)));
    r.set("action", obs::JsonValue::of(net::to_string(f.action)));
    if (f.nth != 0) r.set("nth", u64_json(f.nth));
    if (f.prob != 0.0) {
      r.set("prob", obs::JsonValue::of(f.prob));
      r.set("seed", u64_json(f.seed));
    }
    if (f.until_ps > f.from_ps) {
      r.set("from_ps", obs::JsonValue::of(f.from_ps));
      r.set("until_ps", obs::JsonValue::of(f.until_ps));
    }
    if (f.delay_ps != 0) r.set("delay_ps", obs::JsonValue::of(f.delay_ps));
    faults.array.push_back(std::move(r));
  }
  o.set("faults", std::move(faults));
  if (s.workload.enabled()) o.set("workload", load::workload_to_json(s.workload));
  return o.dump();
}

run::ExperimentSpec spec_from_json(std::string_view json) {
  obs::JsonValue doc;
  try {
    doc = obs::JsonValue::parse(json);
  } catch (const obs::JsonError& e) {
    throw std::invalid_argument(std::string("spec JSON: ") + e.what());
  }
  if (!doc.is_object()) throw std::invalid_argument("spec JSON must be an object");

  run::ExperimentSpec s;
  if (const obs::JsonValue* v = doc.find("network")) {
    const auto n = run::parse_network(v->string);
    if (!n) throw std::invalid_argument("unknown network '" + v->string + "'");
    s.network = *n;
  }
  if (const obs::JsonValue* v = doc.find("op")) {
    const auto k = run::parse_op(v->string);
    if (!k) throw std::invalid_argument("unknown op '" + v->string + "'");
    s.op = *k;
  }
  if (const obs::JsonValue* v = doc.find("impl")) {
    const auto i = run::parse_impl(v->string);
    if (!i) throw std::invalid_argument("unknown impl '" + v->string + "'");
    s.impl = *i;
  }
  if (const obs::JsonValue* v = doc.find("algorithm")) {
    // Accept both the CLI short form (ds/pe/gb/tree/trn/fway/ra) and
    // coll::to_string()'s long form, which is what spec_to_json writes.
    auto a = run::parse_algorithm(v->string);
    if (!a) {
      for (const coll::Algorithm cand : coll::kBarrierAlgorithms) {
        if (v->string == coll::to_string(cand)) a = cand;
      }
    }
    if (!a) throw std::invalid_argument("unknown algorithm '" + v->string + "'");
    s.algorithm = *a;
  }
  s.radix = static_cast<int>(i64_field(doc, "radix", s.radix));
  s.overlap_us = double_field(doc, "overlap_us", s.overlap_us);
  s.nodes = static_cast<int>(i64_field(doc, "nodes", s.nodes));
  s.iters = static_cast<int>(i64_field(doc, "iters", s.iters));
  s.warmup = static_cast<int>(i64_field(doc, "warmup", s.warmup));
  s.seed = u64_field(doc, "seed", s.seed);
  s.random_placement = bool_field(doc, "random_placement", s.random_placement);
  s.drop_prob = double_field(doc, "drop_prob", s.drop_prob);
  s.skew_max_us = double_field(doc, "skew_max_us", s.skew_max_us);
  s.horizon_ms = i64_field(doc, "horizon_ms", s.horizon_ms);
  s.engine_threads = static_cast<int>(i64_field(doc, "engine_threads", s.engine_threads));
  s.engine_domains = static_cast<int>(i64_field(doc, "engine_domains", s.engine_domains));

  if (const obs::JsonValue* f = doc.find("features")) {
    if (!f->is_object()) throw std::invalid_argument("'features' must be an object");
    s.features.dedicated_queue =
        bool_field(*f, "dedicated_queue", s.features.dedicated_queue);
    s.features.static_packet = bool_field(*f, "static_packet", s.features.static_packet);
    s.features.receiver_driven =
        bool_field(*f, "receiver_driven", s.features.receiver_driven);
    s.features.bitvector_record =
        bool_field(*f, "bitvector_record", s.features.bitvector_record);
    s.features.debug_skip_retransmit =
        bool_field(*f, "debug_skip_retransmit", s.features.debug_skip_retransmit);
  }

  if (const obs::JsonValue* arr = doc.find("faults")) {
    if (!arr->is_array()) throw std::invalid_argument("'faults' must be an array");
    for (const obs::JsonValue& r : arr->array) {
      if (!r.is_object()) throw std::invalid_argument("fault rule must be an object");
      net::FaultSpec f;
      f.src = static_cast<std::int32_t>(i64_field(r, "src", -1));
      f.dst = static_cast<std::int32_t>(i64_field(r, "dst", -1));
      if (const obs::JsonValue* a = r.find("action")) {
        const auto act = net::parse_fault_action(a->string);
        if (!act) throw std::invalid_argument("unknown fault action '" + a->string + "'");
        f.action = *act;
      }
      f.nth = u64_field(r, "nth", 0);
      f.prob = double_field(r, "prob", 0.0);
      f.seed = u64_field(r, "seed", 0);
      f.from_ps = i64_field(r, "from_ps", 0);
      f.until_ps = i64_field(r, "until_ps", 0);
      f.delay_ps = i64_field(r, "delay_ps", 0);
      s.faults.push_back(f);
    }
  }
  if (const obs::JsonValue* w = doc.find("workload")) {
    if (!w->is_object()) throw std::invalid_argument("'workload' must be an object");
    s.workload = load::workload_from_json(*w);
  }
  return s;
}

}  // namespace qmb::fuzz
