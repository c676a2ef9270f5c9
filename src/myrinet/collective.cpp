#include "myrinet/collective.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>

#include "core/coll_tag.hpp"

namespace qmb::myri {

CollectiveEngine::CollectiveEngine(Nic& nic) : nic_(nic), cfg_(nic.lanai()) {
  auto& reg = nic_.engine().metrics();
  const int node = nic_.node();
  stats_.msgs_sent = reg.counter("coll.msgs_sent", node);
  stats_.msgs_received = reg.counter("coll.msgs_received", node);
  stats_.duplicates = reg.counter("coll.duplicates", node);
  stats_.early_buffered = reg.counter("coll.early_buffered", node);
  stats_.stale_dropped = reg.counter("coll.stale_dropped", node);
  stats_.nacks_sent = reg.counter("coll.nacks_sent", node);
  stats_.nacks_received = reg.counter("coll.nacks_received", node);
  stats_.retransmissions = reg.counter("coll.retransmissions", node);
  stats_.acks_sent = reg.counter("coll.acks_sent", node);
  stats_.ops_completed = reg.counter("coll.ops_completed", node);
}

void CollectiveEngine::create_group(GroupDesc desc) {
  if (groups_.contains(desc.group_id)) {
    throw std::invalid_argument("collective group id already registered");
  }
  if (desc.rank_to_node == nullptr || desc.my_rank < 0 ||
      desc.my_rank >= static_cast<int>(desc.rank_to_node->size())) {
    throw std::invalid_argument("my_rank outside rank_to_node");
  }
  const std::uint32_t id = desc.group_id;
  groups_.try_emplace(id, std::move(desc));
}

CollectiveEngine::Group& CollectiveEngine::group_of(std::uint32_t id) {
  auto it = groups_.find(id);
  assert(it != groups_.end());
  return it->second;
}

std::uint32_t CollectiveEngine::send_cycles(const CollFeatures& f) const {
  std::uint32_t c = cfg_.cyc_coll_trigger;
  if (!f.dedicated_queue) c += cfg_.cyc_token_schedule;   // walk the p2p queues
  if (!f.static_packet) c += cfg_.cyc_claim_packet + cfg_.cyc_release_packet;
  if (!f.bitvector_record) c += cfg_.cyc_record_per_msg;  // one record per message
  return c;
}

std::uint32_t CollectiveEngine::recv_cycles(const CollFeatures& f) const {
  std::uint32_t c = cfg_.cyc_coll_recv;
  if (!f.bitvector_record) c += cfg_.cyc_record_per_msg;
  return c;
}

std::uint64_t CollectiveEngine::msg_key(std::uint32_t group, std::uint32_t seq,
                                        std::uint32_t tag, int peer) {
  // group(16) | seq(24) | tag(12) | peer(12) — ample for any simulated run.
  return (static_cast<std::uint64_t>(group & 0xFFFF) << 48) |
         (static_cast<std::uint64_t>(seq & 0xFFFFFF) << 24) |
         (static_cast<std::uint64_t>(tag & 0xFFF) << 12) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer) & 0xFFF);
}

std::uint32_t CollectiveEngine::wire_bytes_for(const GroupDesc& desc, std::uint32_t tag,
                                               std::int64_t value) const {
  // Allgather/alltoall messages carry one contribution per gathered rank;
  // the contribution size is the group's payload_bytes (8 for the classic
  // one-integer collectives). Broadcast ACK edges carry nothing.
  return cfg_.header_bytes +
         desc.payload_bytes *
             static_cast<std::uint32_t>(coll::edge_payload_words(desc.op_kind, tag, value));
}

void CollectiveEngine::host_enter_value(std::uint32_t group, std::int64_t value,
                                        std::function<void(std::int64_t)> done) {
  // A contribution larger than the static packet is pulled from host memory
  // by DMA before the operation arms; integer-sized contributions ride the
  // doorbell.
  {
    const Group& g0 = group_of(group);
    if (g0.desc.payload_bytes > cfg_.coll_static_payload) {
      nic_.pci().dma(g0.desc.payload_bytes, nullptr);
    }
  }
  nic_.exec(cfg_.cyc_coll_init, [this, group, value, done = std::move(done)]() mutable {
    Group& g = group_of(group);
    // The accumulator starts from this rank's contribution; early arrivals
    // replayed by start() fold on top (bcast edges replace it anyway).
    Op& op = g.window.enter(value);
    op.state.done = std::move(done);
    Group* gp = &g;
    stats_.duplicates += g.window.start(
        op,
        [this, gp](Op& o, const coll::Edge& e) {
          const std::int64_t v = o.acc;
          o.state.sent_values[msg_key(gp->desc.group_id, o.seq, e.tag, e.peer)] = v;
          send_msg(*gp, o.seq, e, false, v);
        },
        [this, gp](Op& o) { finish_op(*gp, o); },
        [this, gp](Op& o) {
          if (gp->desc.features.receiver_driven) arm_nack_timer(*gp, o);
          nic_.trace("coll_enter", gp->desc.group_id, o.seq);
        });
  });
}

void CollectiveEngine::send_msg(Group& g, std::uint32_t seq, const coll::Edge& e,
                                bool is_retransmit, std::int64_t value) {
  const CollFeatures& f = g.desc.features;
  std::uint32_t cyc = is_retransmit ? cfg_.cyc_retransmit : send_cycles(f);
  // A payload beyond the padded static packet's capacity cannot use the
  // fast path: it claims/releases a pool buffer like a regular message
  // (Sec. 6.2's optimization only applies to integer-sized payloads).
  const std::uint32_t payload = wire_bytes_for(g.desc, e.tag, value) - cfg_.header_bytes;
  if (!is_retransmit && f.static_packet && payload > cfg_.coll_static_payload) {
    cyc += cfg_.cyc_claim_packet + cfg_.cyc_release_packet;
  }
  const std::uint32_t group_id = g.desc.group_id;
  const int my_rank = g.desc.my_rank;
  const int dst_node = g.desc.rank_to_node->at(static_cast<std::size_t>(e.peer));
  const std::uint32_t tag = e.tag;
  const int peer_rank = e.peer;
  const std::uint32_t wire = wire_bytes_for(g.desc, e.tag, value);
  const CollOpKind kind = g.desc.op_kind;

  nic_.exec(cyc, [this, group_id, seq, tag, my_rank, dst_node, value, wire, kind] {
    CollPacket body;
    switch (kind) {
      case CollOpKind::kBarrier: body.kind = CollPacket::Kind::kBarrier; break;
      case CollOpKind::kBcast: body.kind = CollPacket::Kind::kBcast; break;
      case CollOpKind::kAllreduce: body.kind = CollPacket::Kind::kReduce; break;
      case CollOpKind::kAllgather: body.kind = CollPacket::Kind::kGather; break;
      case CollOpKind::kAlltoall: body.kind = CollPacket::Kind::kAlltoall; break;
    }
    body.group = group_id;
    body.barrier_seq = seq;
    body.tag = tag;
    body.src_rank = static_cast<std::uint32_t>(my_rank);
    body.value = value;
    const std::uint64_t flow =
        nic_.inject(net::Packet(nic_.addr(), net::NicAddr(dst_node), wire, body));
    ++stats_.msgs_sent;
    // Operands: destination node and the BarrierTag-encoded group/seq/edge
    // tag, so multi-tenant traces stay attributable per group; flow ties
    // this trigger to its fabric hop.
    nic_.trace("coll_send", dst_node,
               core::BarrierTag::encode(group_id, seq, tag),
               static_cast<std::int64_t>(flow));
  });

  if (is_retransmit) {
    ++stats_.retransmissions;
    return;
  }
  if (!f.receiver_driven) {
    // Ablation: sender-driven reliability — per-message record + timeout.
    const std::uint64_t key = msg_key(group_id, seq, tag, peer_rank);
    MsgRecord rec{group_id, seq, tag, peer_rank, {}};
    auto [it, inserted] = msg_records_.emplace(key, std::move(rec));
    if (!inserted) return;  // identical send edge already tracked
    arm_msg_timer(&g, key, seq);
  }
}

void CollectiveEngine::arm_msg_timer(Group* gp, std::uint64_t key, std::uint32_t seq) {
  auto it = msg_records_.find(key);
  if (it == msg_records_.end()) return;
  it->second.timer = nic_.engine().schedule(cfg_.ack_timeout, [this, gp, key, seq] {
    auto rit = msg_records_.find(key);
    if (rit == msg_records_.end()) return;  // ACKed meanwhile
    const Op* slot = gp->window.find(seq);
    const std::int64_t value =
        slot != nullptr && slot->state.sent_values.contains(key)
            ? slot->state.sent_values.at(key)
            : 0;
    send_msg(*gp, seq, coll::Edge{rit->second.peer_rank, rit->second.tag}, true, value);
    arm_msg_timer(gp, key, seq);
  });
}

void CollectiveEngine::finish_op(Group& g, Op& op) {
  ++stats_.ops_completed;
  nic_.engine().cancel(op.state.nack_timer);
  nic_.trace("coll_complete", g.desc.group_id, op.seq);
  // One completion word DMAed to host memory — the only PCI traffic on the
  // completion path of a NIC-based collective.
  auto done = std::move(op.state.done);
  op.state.done = nullptr;
  const std::int64_t result = op.acc;
  // The completion DMA delivers the result payload to host memory (one
  // word for the classic collectives, the gathered data for larger ones).
  const std::uint32_t result_bytes =
      g.desc.op_kind == CollOpKind::kBarrier
          ? 8u
          : g.desc.payload_bytes *
                static_cast<std::uint32_t>(coll::value_words(g.desc.op_kind, result));
  nic_.exec(cfg_.cyc_coll_complete, [this, done = std::move(done), result,
                                     result_bytes]() mutable {
    nic_.pci().dma(result_bytes, [done = std::move(done), result] {
      if (done) done(result);
    });
  });
}

void CollectiveEngine::arm_nack_timer(Group& g, Op& op) {
  Group* gp = &g;
  Op* opp = &op;
  const std::uint32_t armed_seq = op.seq;
  op.state.nack_timer = nic_.engine().schedule(cfg_.nack_timeout, [this, gp, opp, armed_seq] {
    if (!opp->in_use || opp->seq != armed_seq || opp->complete || !opp->active) return;
    for (const coll::Edge& miss : opp->exec->missing_current_waits()) {
      const int peer_node = gp->desc.rank_to_node->at(static_cast<std::size_t>(miss.peer));
      const std::uint32_t group_id = gp->desc.group_id;
      const int my_rank = gp->desc.my_rank;
      const std::uint32_t tag = miss.tag;
      nic_.exec(cfg_.cyc_coll_nack, [this, group_id, armed_seq, tag, my_rank, peer_node] {
        CollNack body;
        body.group = group_id;
        body.barrier_seq = armed_seq;
        body.tag = tag;
        body.dst_rank = static_cast<std::uint32_t>(my_rank);
        const std::uint64_t flow =
            nic_.inject(net::Packet(nic_.addr(), net::NicAddr(peer_node),
                                    coll_wire_bytes(cfg_.header_bytes), body));
        ++stats_.nacks_sent;
        nic_.trace("coll_nack", peer_node,
                   core::BarrierTag::encode(group_id, armed_seq, tag),
                   static_cast<std::int64_t>(flow));
      });
    }
    arm_nack_timer(*gp, *opp);
  });
}

bool CollectiveEngine::on_packet(net::Packet&& p) {
  if (const auto* c = net::body_as<CollPacket>(p)) {
    const CollPacket body = *c;
    const std::uint64_t flow = p.id;
    nic_.exec(cfg_.cyc_coll_recv, [this, body, flow] {
      auto git = groups_.find(body.group);
      if (git == groups_.end()) {
        ++stats_.stale_dropped;
        return;
      }
      Group& g = git->second;
      nic_.trace("coll_recv", static_cast<std::int64_t>(body.src_rank),
                 core::BarrierTag::encode(body.group, body.barrier_seq, body.tag),
                 static_cast<std::int64_t>(flow));
      if (!g.desc.features.bitvector_record) {
        nic_.cpu().occupy(cfg_.cycles(cfg_.cyc_record_per_msg));
      }
      ++stats_.msgs_received;
      if (!g.desc.features.receiver_driven) {
        // Ablation: acknowledge every collective message.
        nic_.exec(cfg_.cyc_make_ack, [this, body, &g] {
          CollAck ack;
          ack.group = body.group;
          ack.barrier_seq = body.barrier_seq;
          ack.tag = body.tag;
          ack.acker_rank = static_cast<std::uint32_t>(g.desc.my_rank);
          const int src_node =
              g.desc.rank_to_node->at(static_cast<std::size_t>(body.src_rank));
          nic_.inject(net::Packet(nic_.addr(), net::NicAddr(src_node),
                                  ack_wire_bytes(cfg_.header_bytes), ack));
          ++stats_.acks_sent;
        });
      }
      deliver_arrival(g, body.barrier_seq, static_cast<int>(body.src_rank), body.tag,
                      body.value);
    });
    return true;
  }
  if (const auto* n = net::body_as<CollNack>(p)) {
    const CollNack body = *n;
    const std::uint64_t flow = p.id;
    nic_.exec(cfg_.cyc_coll_nack, [this, body, flow] { handle_nack(body, flow); });
    return true;
  }
  if (const auto* a = net::body_as<CollAck>(p)) {
    const CollAck body = *a;
    nic_.exec(cfg_.cyc_process_ack, [this, body] { handle_ack(body); });
    return true;
  }
  return false;
}

void CollectiveEngine::deliver_arrival(Group& g, std::uint32_t seq, int peer_rank,
                                       std::uint32_t tag, std::int64_t value) {
  switch (g.window.arrive(seq, peer_rank, tag, value)) {
    case core::Arrival::kDelivered: break;
    case core::Arrival::kDuplicate: ++stats_.duplicates; break;
    case core::Arrival::kEarly: ++stats_.early_buffered; break;
    // Late retransmission of a finished operation.
    case core::Arrival::kStale: ++stats_.stale_dropped; break;
  }
}

void CollectiveEngine::handle_nack(const CollNack& n, std::uint64_t flow) {
  auto git = groups_.find(n.group);
  if (git == groups_.end()) return;
  Group& g = git->second;
  ++stats_.nacks_received;
  nic_.trace("coll_nack_rx", n.dst_rank,
             core::BarrierTag::encode(n.group, n.barrier_seq, n.tag),
             static_cast<std::int64_t>(flow));
  const coll::Edge edge{static_cast<int>(n.dst_rank), n.tag};
  Op* slot = g.window.find(n.barrier_seq);
  if (slot != nullptr && slot->exec) {
    const std::uint64_t key = msg_key(n.group, n.barrier_seq, n.tag, edge.peer);
    if (slot->exec->has_sent(edge.peer, edge.tag)) {
      if (g.desc.features.debug_skip_retransmit) return;  // fuzzer's planted bug
      send_msg(g, n.barrier_seq, edge, true, slot->state.sent_values.at(key));
    }
    // Not sent yet: we are behind; the normal send will cover it.
    return;
  }
  if (g.desc.op_kind == CollOpKind::kBarrier && n.barrier_seq < g.window.next_seq()) {
    // The slot was recycled but barrier messages carry no data: the packet
    // is fully reconstructible from the NACK itself. (Value-carrying kinds
    // never need this path — a sender two operations ahead proves the
    // NACKing receiver already completed the operation; see tests.)
    send_msg(g, n.barrier_seq, edge, true, 0);
  }
  // Otherwise the receiver is ahead of us; ignore.
}

void CollectiveEngine::handle_ack(const CollAck& a) {
  auto git = groups_.find(a.group);
  if (git == groups_.end()) return;
  const std::uint64_t key =
      msg_key(a.group, a.barrier_seq, a.tag, static_cast<int>(a.acker_rank));
  auto it = msg_records_.find(key);
  if (it == msg_records_.end()) return;
  nic_.engine().cancel(it->second.timer);
  msg_records_.erase(it);
}

}  // namespace qmb::myri
