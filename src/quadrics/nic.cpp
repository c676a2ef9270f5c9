#include "quadrics/nic.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/coll_tag.hpp"

namespace qmb::elan {

Nic::Nic(sim::Engine& engine, net::Fabric& fabric, const Elan3Config& config,
         int node_index, sim::Tracer* tracer)
    : engine_(&engine),
      fabric_(&fabric),
      config_(&config),
      node_(node_index),
      tracer_(tracer),
      unit_(engine) {
  if (tracer_) trace_comp_ = tracer_->intern("elan");
  auto& reg = engine_->metrics();
  stats_.rdma_issued = reg.counter("elan.rdma_issued", node_);
  stats_.events_fired = reg.counter("elan.events_fired", node_);
  stats_.host_notifies = reg.counter("elan.host_notifies", node_);
  stats_.barrier_ops_completed = reg.counter("elan.barrier_ops_completed", node_);
  stats_.early_buffered = reg.counter("elan.early_buffered", node_);
  stats_.crc_dropped = reg.counter("nic.crc_dropped", node_);
  addr_ = fabric_->attach([this](net::Packet&& p) {
    if (p.corrupted) {  // inbound CRC check: discard before the event unit
      ++stats_.crc_dropped;
      trace("crc_drop", p.src.value(), 0, static_cast<std::int64_t>(p.id));
      return;
    }
    on_packet(std::move(p));
  });
}

void Nic::trace(std::string_view event, std::int64_t a, std::int64_t b,
                std::int64_t flow) {
  if (tracer_ && tracer_->enabled()) {
    tracer_->record(engine_->now(), trace_comp_, tracer_->intern(event), node_, a, b,
                    flow);
  }
}

void Nic::rdma_put(int dst_node, std::uint32_t bytes, ElanRdma body) {
  unit_.exec(config_->rdma_issue, [this, dst_node, bytes, body] {
    ++stats_.rdma_issued;
    const std::uint64_t flow = fabric_->send(net::Packet(
        addr_, net::NicAddr(dst_node), config_->header_bytes + bytes, body));
    // The RDMA-chain trigger: operands are the destination and the
    // BarrierTag-encoded group/seq/edge tag (host-message tags arrive
    // pre-encoded by the host executors; barrier-chain events carry the
    // group so multi-tenant traces stay attributable); flow ties it to the
    // wire hop.
    const std::uint32_t b =
        body.ev_class == ElanRdma::EventClass::kBarrier
            ? core::BarrierTag::encode(body.group, body.seq, body.tag)
            : body.tag;
    trace("rdma_trigger", dst_node, b, static_cast<std::int64_t>(flow));
  });
}

void Nic::on_packet(net::Packet&& p) {
  if (const auto* r = net::body_as<ElanRdma>(p)) {
    const ElanRdma body = *r;
    const std::uint64_t flow = p.id;
    // The event unit fires the remote event attached to the put.
    unit_.exec(config_->event_fire, [this, body, flow] {
      ++stats_.events_fired;
      trace("event_fire", static_cast<std::int64_t>(body.src_rank), body.tag,
            static_cast<std::int64_t>(flow));
      switch (body.ev_class) {
        case ElanRdma::EventClass::kBarrier:
          handle_barrier_event(body);
          return;
        case ElanRdma::EventClass::kHostMsg:
          // The event word DMAs into host memory; the host layer adds its
          // own poll cost on top.
          unit_.exec(config_->host_notify_dma, [this, body] {
            ++stats_.host_notifies;
            if (host_msg__handler_) host_msg__handler_(body);
          });
          return;
      }
    });
    return;
  }
  if (const auto* probe = net::body_as<TsetProbe>(p)) {
    const TsetProbe body = *probe;
    const std::uint64_t flow = p.id;
    unit_.exec(config_->tset_probe, [this, body, flow] {
      trace("tset_probe", static_cast<std::int64_t>(body.round), 0,
            static_cast<std::int64_t>(flow));
      if (probe_handler_) probe_handler_(body);
    });
    return;
  }
  if (const auto* go = net::body_as<TsetGo>(p)) {
    const TsetGo body = *go;
    const std::uint64_t flow = p.id;
    unit_.exec(config_->event_fire, [this, body, flow] {
      trace("tset_go", static_cast<std::int64_t>(body.round), 0,
            static_cast<std::int64_t>(flow));
      if (go_handler_) go_handler_(body);
    });
    return;
  }
  throw std::logic_error("unhandled packet body type at Elan NIC");
}

void Nic::create_group(ElanGroupDesc desc) {
  if (groups_.contains(desc.group_id)) {
    throw std::invalid_argument("elan barrier group id already registered");
  }
  const std::uint32_t id = desc.group_id;
  groups_.try_emplace(id, std::move(desc));
}

void Nic::collective_enter(std::uint32_t group, std::int64_t value,
                           std::function<void(std::int64_t)> done) {
  unit_.exec(config_->command_process, [this, group, value, done = std::move(done)]() mutable {
    auto it = groups_.find(group);
    assert(it != groups_.end() && "collective_enter on unknown group");
    Group& g = it->second;
    Op& op = g.window.enter(value);
    op.state.done = std::move(done);
    Group* gp = &g;
    g.window.start(
        op, [this, gp](Op& o, const coll::Edge& e) { barrier_send(*gp, o.seq, e, o.acc); },
        [this, gp](Op& o) { finish_barrier(*gp, o); },
        [this, gp](Op& o) { trace("op_enter", gp->desc.group_id, o.seq); });
  });
}

void Nic::barrier_send(Group& g, std::uint32_t seq, const coll::Edge& e,
                       std::int64_t value) {
  // For a barrier this is a zero-byte RDMA put that only fires the peer's
  // chained event (paper Sec. 7: "RDMA operations with no data transfer
  // can be utilized to fire a remote event"); value collectives put their
  // payload words through the same descriptor.
  ElanRdma body;
  body.ev_class = ElanRdma::EventClass::kBarrier;
  body.group = g.desc.group_id;
  body.seq = seq;
  body.tag = e.tag;
  body.src_rank = static_cast<std::uint32_t>(g.desc.my_rank);
  body.value = value;
  const std::uint32_t payload =
      g.desc.op_kind == coll::OpKind::kBarrier
          ? 0u
          : g.desc.payload_bytes * static_cast<std::uint32_t>(coll::edge_payload_words(
                                       g.desc.op_kind, e.tag, value));
  body.payload_bytes = payload;
  const int dst_node = g.desc.rank_to_node->at(static_cast<std::size_t>(e.peer));
  rdma_put(dst_node, payload, body);
}

void Nic::handle_barrier_event(const ElanRdma& r) {
  auto it = groups_.find(r.group);
  if (it == groups_.end()) return;
  Group& g = it->second;
  // Hardware-reliable network: nothing arrives twice or after completion.
  if (g.window.arrive(r.seq, static_cast<int>(r.src_rank), r.tag, r.value) ==
      core::Arrival::kEarly) {
    ++stats_.early_buffered;
  }
}

void Nic::finish_barrier(Group& g, Op& op) {
  ++stats_.barrier_ops_completed;
  trace("barrier_complete", g.desc.group_id, op.seq);
  auto done = std::move(op.state.done);
  op.state.done = nullptr;
  const std::int64_t result = op.acc;
  // The final chained descriptor fires a *local* event whose word DMAs to
  // host memory, carrying the operation's result.
  unit_.exec(config_->host_notify_dma, [done = std::move(done), result]() mutable {
    if (done) done(result);
  });
}

}  // namespace qmb::elan
