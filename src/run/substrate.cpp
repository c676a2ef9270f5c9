#include "run/substrate.hpp"

#include <algorithm>
#include <stdexcept>

#include "run/substrate_internal.hpp"

namespace qmb::run {

const std::vector<const Substrate*>& substrates() {
  // Explicit registration in a fixed order — no static-initialization or
  // dead-stripping surprises, and the order is the one users see.
  static const std::vector<const Substrate*> all = {
      &detail::myrinet_xp_substrate(),
      &detail::myrinet_l9_substrate(),
      &detail::quadrics_substrate(),
      &detail::ib_substrate(),
  };
  return all;
}

const Substrate& substrate_for(Network n) {
  for (const Substrate* s : substrates()) {
    if (s->network() == n) return *s;
  }
  throw std::logic_error("network enumerator has no registered substrate");
}

const Substrate* find_substrate(std::string_view name) {
  for (const Substrate* s : substrates()) {
    if (s->name() == name) return s;
  }
  return nullptr;
}

std::string substrate_names(std::string_view sep) {
  std::string out;
  for (const Substrate* s : substrates()) {
    if (!out.empty()) out += sep;
    out += s->name();
  }
  return out;
}

std::string loss_capable_names(std::string_view sep) {
  std::string out;
  for (const Substrate* s : substrates()) {
    if (!s->caps().faults && !s->caps().drop_prob) continue;
    if (!out.empty()) out += sep;
    out += s->name();
  }
  return out;
}

bool caps_allow(const SubstrateCaps& caps, coll::OpKind op, Impl impl) {
  const std::vector<Impl>& legal =
      op == coll::OpKind::kBarrier ? caps.barrier_impls : caps.collective_impls;
  return std::find(legal.begin(), legal.end(), impl) != legal.end();
}

std::string caps_impl_list(const SubstrateCaps& caps, coll::OpKind op) {
  const std::vector<Impl>& legal =
      op == coll::OpKind::kBarrier ? caps.barrier_impls : caps.collective_impls;
  std::string out;
  for (const Impl i : legal) {
    if (!out.empty()) out += ", ";
    out += to_string(i);
  }
  return out;
}

const std::vector<coll::Algorithm>& caps_algorithms(const SubstrateCaps& caps,
                                                    coll::OpKind op) {
  if (op == coll::OpKind::kBarrier) return caps.barrier_algorithms;
  for (const auto& entry : caps.collective_algorithms) {
    if (entry.op == op) return entry.algorithms;
  }
  static const std::vector<coll::Algorithm> default_only = {
      coll::Algorithm::kDissemination};
  return default_only;
}

bool caps_allow_algorithm(const SubstrateCaps& caps, coll::OpKind op,
                          coll::Algorithm a) {
  const std::vector<coll::Algorithm>& legal = caps_algorithms(caps, op);
  return std::find(legal.begin(), legal.end(), a) != legal.end();
}

std::string caps_algorithm_list(const SubstrateCaps& caps, coll::OpKind op) {
  std::string out;
  for (const coll::Algorithm a : caps_algorithms(caps, op)) {
    if (!out.empty()) out += ", ";
    out += algorithm_cli_name(a);
  }
  return out;
}

std::unique_ptr<core::Collective> SubstrateCluster::make_collective(
    const ExperimentSpec& spec, std::vector<int> placement) {
  if (spec.op == coll::OpKind::kBarrier) {
    return make_barrier(spec, std::move(placement))->release();
  }
  coll::CollSpec cs;
  cs.op = spec.op;
  cs.engine = spec.impl == Impl::kHost ? coll::Engine::kHost : coll::Engine::kNic;
  cs.algorithm = spec.algorithm;
  cs.radix = spec.radix;
  cs.overlap_us = spec.overlap_us;
  cs.rank_to_node = std::move(placement);
  return make_collective(cs);
}

}  // namespace qmb::run
