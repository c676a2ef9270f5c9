#include "ib/hca.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/coll_tag.hpp"

namespace qmb::ib {

// Every request body must ride inline in the packet payload — the fabric
// packet path is allocation-free and retransmission records clone bodies.
static_assert(sizeof(IbWrite) <= net::PacketPayload::kInlineCapacity);
static_assert(sizeof(IbAck) <= net::PacketPayload::kInlineCapacity);

namespace {

/// CAS swap operands ride packed in (tag, src_rank), which atomics do not
/// otherwise use — the body stays small enough to stay inline.
std::int64_t unpack_swap(const IbWrite& w) {
  return static_cast<std::int64_t>((static_cast<std::uint64_t>(w.tag) << 32) |
                                   static_cast<std::uint64_t>(w.src_rank));
}

void pack_swap(IbWrite& w, std::int64_t swap) {
  const auto u = static_cast<std::uint64_t>(swap);
  w.tag = static_cast<std::uint32_t>(u >> 32);
  w.src_rank = static_cast<std::uint32_t>(u & 0xFFFFFFFFULL);
}

}  // namespace

Hca::Hca(sim::Engine& engine, net::Fabric& fabric, const IbConfig& config,
         int node_index, sim::Tracer* tracer, bool skip_retransmit)
    : engine_(&engine),
      fabric_(&fabric),
      config_(&config),
      node_(node_index),
      tracer_(tracer),
      unit_(engine),
      skip_retransmit_(skip_retransmit) {
  if (tracer_) trace_comp_ = tracer_->intern("ib");
  auto& reg = engine_->metrics();
  stats_.writes_posted = reg.counter("ib.writes_posted", node_);
  stats_.acks_sent = reg.counter("ib.acks_sent", node_);
  stats_.naks_sent = reg.counter("ib.naks_sent", node_);
  stats_.retransmissions = reg.counter("ib.retransmissions", node_);
  stats_.rto_fires = reg.counter("ib.rto_fires", node_);
  stats_.duplicates_dropped = reg.counter("ib.duplicates_dropped", node_);
  stats_.ops_completed = reg.counter("ib.ops_completed", node_);
  stats_.early_buffered = reg.counter("ib.early_buffered", node_);
  stats_.atomics_executed = reg.counter("ib.atomics_executed", node_);
  stats_.crc_dropped = reg.counter("nic.crc_dropped", node_);
  addr_ = fabric_->attach([this](net::Packet&& p) {
    if (p.corrupted) {  // ICRC check: discard before the transport sees it
      ++stats_.crc_dropped;
      trace("crc_drop", p.src.value(), 0, static_cast<std::int64_t>(p.id));
      return;
    }
    on_packet(std::move(p));
  });
}

void Hca::trace(std::string_view event, std::int64_t a, std::int64_t b,
                std::int64_t flow) {
  if (tracer_ && tracer_->enabled()) {
    tracer_->record(engine_->now(), trace_comp_, tracer_->intern(event), node_, a, b,
                    flow);
  }
}

// --- RC transport ---

void Hca::post_write(int dst_node, IbWrite body, std::uint32_t payload_bytes) {
  const std::uint32_t wire = config_->header_bytes + payload_bytes;
  unit_.exec(config_->qp_process, [this, dst_node, body, wire]() mutable {
    SendQp& q = send_qps_[dst_node];
    IbWrite stamped = body;
    stamped.psn = q.next_psn++;
    q.unacked.push_back({stamped, wire});
    ++stats_.writes_posted;
    const std::uint64_t flow = fabric_->send(
        net::Packet(addr_, net::NicAddr(dst_node), wire, stamped));
    trace("rdma_write", dst_node, stamped.psn, static_cast<std::int64_t>(flow));
    if (stamped.op == IbWrite::Op::kWriteImm &&
        stamped.imm_class == IbWrite::ImmClass::kGroup) {
      // Collective trigger record, mirroring the Myrinet engine's
      // "coll_send": the b operand carries the BarrierTag-encoded
      // group/seq/edge tag so trace_report can attribute rounds and
      // groups in multi-tenant runs.
      trace("coll_send", dst_node,
            core::BarrierTag::encode(stamped.group, stamped.seq, stamped.tag),
            static_cast<std::int64_t>(flow));
    }
    if (!q.timer_armed) arm_rto(dst_node);
  });
}

void Hca::on_packet(net::Packet&& p) {
  const int src = p.src.value();
  if (const auto* a = net::body_as<IbAck>(p)) {
    const IbAck ack = *a;
    unit_.exec(config_->ack_process, [this, src, ack] { handle_ack(src, ack); });
    return;
  }
  if (const auto* w = net::body_as<IbWrite>(p)) {
    const IbWrite body = *w;
    const std::uint64_t flow = p.id;
    unit_.exec(config_->rx_process, [this, src, body, flow] {
      trace("rx", src, body.psn, static_cast<std::int64_t>(flow));
      accept_request(src, body);
    });
    return;
  }
  throw std::logic_error("unhandled packet body type at IB HCA");
}

void Hca::accept_request(int src_node, const IbWrite& w) {
  RecvQp& q = recv_qps_[src_node];
  if (w.psn == q.expected_psn) {
    ++q.expected_psn;
    q.nak_outstanding = false;
    send_ack(src_node, q.expected_psn, /*nak=*/false);
    deliver_request(src_node, w);
    return;
  }
  if (w.psn > q.expected_psn) {
    // Sequence gap: an earlier request was lost (or is straggling). RC
    // discards out-of-order arrivals and asks the sender to go back.
    trace("psn_gap", src_node, w.psn);
    if (!q.nak_outstanding) {
      q.nak_outstanding = true;  // one NAK per gap until progress resumes
      send_ack(src_node, q.expected_psn, /*nak=*/true);
    }
    return;
  }
  // Duplicate of an already-accepted request (retransmission overlap or an
  // injected duplicate): drop it but re-ACK, or a sender whose ACK was
  // lost retransmits forever.
  ++stats_.duplicates_dropped;
  send_ack(src_node, q.expected_psn, /*nak=*/false);
}

void Hca::deliver_request(int src_node, const IbWrite& w) {
  switch (w.op) {
    case IbWrite::Op::kWriteImm:
      if (w.imm_class == IbWrite::ImmClass::kGroup) {
        handle_group_event(w);
      } else {
        // The immediate data CQEs into host memory; the host layer adds
        // its own poll cost on top.
        unit_.exec(config_->cq_dma, [this, w] {
          if (host_msg_handler_) host_msg_handler_(w);
        });
      }
      return;
    case IbWrite::Op::kCompSwap:
    case IbWrite::Op::kFetchAdd: {
      const IbWrite body = w;
      unit_.exec(config_->atomic_exec, [this, src_node, body] {
        std::int64_t& word = atomic_words_[body.group];
        const std::int64_t old = word;
        if (body.op == IbWrite::Op::kCompSwap) {
          if (word == body.value) word = unpack_swap(body);
        } else {
          word += body.value;
        }
        ++stats_.atomics_executed;
        trace("atomic_exec", src_node, body.group);
        IbWrite resp;
        resp.op = IbWrite::Op::kAtomicResp;
        resp.seq = body.seq;  // requester's completion token
        resp.value = old;
        post_write(src_node, resp, 8);
      });
      return;
    }
    case IbWrite::Op::kAtomicResp:
      unit_.exec(config_->cq_dma, [this, w] {
        auto it = pending_atomics_.find(w.seq);
        if (it == pending_atomics_.end()) return;
        AtomicDone done = std::move(it->second);
        pending_atomics_.erase(it);
        if (done) done(w.value);
      });
      return;
  }
  throw std::logic_error("unhandled IB request opcode");
}

void Hca::send_ack(int dst_node, std::uint32_t psn, bool nak) {
  unit_.exec(config_->ack_process, [this, dst_node, psn, nak] {
    if (nak) {
      ++stats_.naks_sent;
    } else {
      ++stats_.acks_sent;
    }
    IbAck a;
    a.psn = psn;
    a.nak = nak;
    const std::uint64_t flow = fabric_->send(
        net::Packet(addr_, net::NicAddr(dst_node), config_->ack_bytes, a));
    trace(nak ? "nak" : "ack", dst_node, psn, static_cast<std::int64_t>(flow));
  });
}

void Hca::handle_ack(int peer, const IbAck& a) {
  SendQp& q = send_qps_[peer];
  while (!q.unacked.empty() && q.unacked.front().body.psn < a.psn) {
    q.unacked.pop_front();
  }
  if (a.nak) {
    trace("nak_rx", peer, a.psn);
    if (skip_retransmit_) return;  // planted bug: recovery disabled
    retransmit_window(peer);
    return;
  }
  if (q.unacked.empty()) {
    if (q.timer_armed) {
      engine_->cancel(q.rto_timer);
      q.timer_armed = false;
    }
  } else if (!skip_retransmit_) {
    // Progress: restart the timer for the new oldest unacked request.
    if (q.timer_armed) engine_->cancel(q.rto_timer);
    q.timer_armed = false;
    arm_rto(peer);
  }
}

void Hca::arm_rto(int peer) {
  if (skip_retransmit_) return;
  SendQp& q = send_qps_[peer];
  assert(!q.timer_armed);
  q.timer_armed = true;
  q.rto_timer = engine_->schedule(config_->rto, [this, peer] {
    SendQp& sq = send_qps_[peer];
    sq.timer_armed = false;
    if (sq.unacked.empty()) return;
    ++stats_.rto_fires;
    trace("rto_fire", peer, sq.unacked.front().body.psn);
    retransmit_window(peer);
  });
}

void Hca::retransmit_window(int peer) {
  SendQp& q = send_qps_[peer];
  if (q.unacked.empty()) return;
  if (q.timer_armed) {
    engine_->cancel(q.rto_timer);
    q.timer_armed = false;
  }
  // Go-back-N: replay the whole unacked window in PSN order under one WQE
  // re-fetch charge; the receiver's PSN check discards any overlap.
  unit_.exec(config_->qp_process, [this, peer] {
    SendQp& sq = send_qps_[peer];
    for (const PendingWrite& pw : sq.unacked) {
      ++stats_.retransmissions;
      const std::uint64_t flow = fabric_->send(
          net::Packet(addr_, net::NicAddr(peer), pw.wire_bytes, pw.body));
      trace("retransmit", peer, pw.body.psn, static_cast<std::int64_t>(flow));
    }
    if (!sq.unacked.empty() && !sq.timer_armed) arm_rto(peer);
  });
}

// --- remote atomics ---

void Hca::post_atomic(int dst_node, IbWrite::Op op, std::uint32_t slot,
                      std::int64_t compare, std::int64_t swap_or_add, AtomicDone done) {
  const std::uint32_t token = next_atomic_token_++;
  pending_atomics_.emplace(token, std::move(done));
  IbWrite w;
  w.op = op;
  w.group = slot;
  w.seq = token;
  if (op == IbWrite::Op::kCompSwap) {
    w.value = compare;
    pack_swap(w, swap_or_add);
  } else {
    w.value = swap_or_add;
  }
  post_write(dst_node, w, 8);
}

void Hca::fetch_add(int dst_node, std::uint32_t slot, std::int64_t addend,
                    AtomicDone done) {
  post_atomic(dst_node, IbWrite::Op::kFetchAdd, slot, 0, addend, std::move(done));
}

void Hca::compare_swap(int dst_node, std::uint32_t slot, std::int64_t compare,
                       std::int64_t swap, AtomicDone done) {
  post_atomic(dst_node, IbWrite::Op::kCompSwap, slot, compare, swap, std::move(done));
}

std::int64_t Hca::atomic_word(std::uint32_t slot) const {
  const auto it = atomic_words_.find(slot);
  return it == atomic_words_.end() ? 0 : it->second;
}

// --- collective group engine (the paper's protocol on verbs) ---

void Hca::create_group(IbGroupDesc desc) {
  if (groups_.contains(desc.group_id)) {
    throw std::invalid_argument("ib collective group id already registered");
  }
  const std::uint32_t id = desc.group_id;
  groups_.try_emplace(id, std::move(desc));
}

void Hca::collective_enter(std::uint32_t group, std::int64_t value,
                           std::function<void(std::int64_t)> done) {
  // The doorbell dispatch shares the WQE-processing unit charge.
  unit_.exec(config_->qp_process, [this, group, value, done = std::move(done)]() mutable {
    auto it = groups_.find(group);
    assert(it != groups_.end() && "collective_enter on unknown group");
    Group& g = it->second;
    Op& op = g.window.enter(value);
    op.state.done = std::move(done);
    Group* gp = &g;
    g.window.start(
        op, [this, gp](Op& o, const coll::Edge& e) { group_send(*gp, o.seq, e, o.acc); },
        [this, gp](Op& o) { finish_op(*gp, o); },
        [this, gp](Op& o) { trace("op_enter", gp->desc.group_id, o.seq); });
  });
}

void Hca::group_send(Group& g, std::uint32_t seq, const coll::Edge& e,
                     std::int64_t value) {
  // A barrier edge is a zero-byte RDMA write whose immediate data is the
  // whole protocol header — the verbs rendition of the paper's "RDMA
  // operations with no data transfer can fire a remote event". Value
  // collectives put their payload words through the same write.
  IbWrite body;
  body.op = IbWrite::Op::kWriteImm;
  body.imm_class = IbWrite::ImmClass::kGroup;
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
  post_write(dst_node, body, payload);
}

void Hca::handle_group_event(const IbWrite& w) {
  auto it = groups_.find(w.group);
  if (it == groups_.end()) return;
  Group& g = it->second;
  // The transport delivers exactly once: nothing arrives twice or after
  // completion.
  if (g.window.arrive(w.seq, static_cast<int>(w.src_rank), w.tag, w.value) ==
      core::Arrival::kEarly) {
    ++stats_.early_buffered;
  }
}

void Hca::finish_op(Group& g, Op& op) {
  ++stats_.ops_completed;
  trace("op_complete", g.desc.group_id, op.seq);
  auto done = std::move(op.state.done);
  op.state.done = nullptr;
  const std::int64_t result = op.acc;
  // The completion CQE (immediate data + result) DMAs to host memory.
  unit_.exec(config_->cq_dma, [done = std::move(done), result]() mutable {
    if (done) done(result);
  });
}

}  // namespace qmb::ib
