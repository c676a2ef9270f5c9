#include <cassert>

#include "core/cluster.hpp"
#include "core/myri_barriers.hpp"

namespace qmb::core {

MyriDirectNicBarrier::MyriDirectNicBarrier(MyriCluster& cluster,
                                           const coll::GroupSchedule& schedule,
                                           std::vector<int> rank_to_node)
    : cluster_(cluster),
      schedule_(schedule),
      rank_to_node_(std::move(rank_to_node)),
      group_id_(cluster.next_group_id() & core::BarrierTag::kGroupMask) {
  const int n = schedule_.size;
  assert(static_cast<int>(rank_to_node_.size()) == n);
  name_ = std::string("myri-nic-direct-") + std::string(coll::to_string(schedule_.algorithm));

  node_to_rank_.assign(static_cast<std::size_t>(cluster_.size()), -1);
  for (int r = 0; r < n; ++r) {
    node_to_rank_.at(static_cast<std::size_t>(rank_to_node_[static_cast<std::size_t>(r)])) = r;
  }

  ranks_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    RankCtx& ctx = ranks_[static_cast<std::size_t>(r)];
    ctx.node = &cluster_.node(rank_to_node_[static_cast<std::size_t>(r)]);
    myri::MyriNode* node = ctx.node;
    ctx.window = std::make_unique<GroupWindow<>>(schedule_.ranks[static_cast<std::size_t>(r)],
                                                 coll::OpKind::kBarrier, coll::ReduceOp::kSum);

    // The NIC hands arriving NIC-sourced messages straight to us (after its
    // normal point-to-point receive processing and ACK).
    node->mcp().set_nic_consumer([this, r](const myri::RecvEvent& ev) {
      if (!BarrierTag::is_barrier(ev.tag)) return;
      if (BarrierTag::group(ev.tag) != group_id_) return;
      RankCtx& c = ranks_[static_cast<std::size_t>(r)];
      const int src_rank = node_to_rank_.at(static_cast<std::size_t>(ev.src_node));
      assert(src_rank >= 0);
      const std::uint32_t seq =
          BarrierTag::widen_seq(BarrierTag::seq_low(ev.tag), c.window->next_seq());
      c.window->arrive(seq, src_rank, BarrierTag::edge_tag(ev.tag), 0);
    });
  }
}

void MyriDirectNicBarrier::enter(int rank, sim::EventCallback done) {
  RankCtx& ctx = ranks_.at(static_cast<std::size_t>(rank));
  assert(!ctx.done && "rank re-entered before completion");
  ctx.done = std::move(done);
  myri::MyriNode& nd = *ctx.node;
  // Host posts the barrier request; the NIC runs the operation from there.
  nd.host_cpu().exec(nd.nic().config().host.send_post, [this, rank, &nd] {
    nd.pci().pio_write([this, rank, &nd] {
      nd.nic().exec(nd.nic().lanai().cyc_process_send_event,
                    [this, rank] { start_op(rank); });
    });
  });
}

void MyriDirectNicBarrier::start_op(int rank) {
  GroupWindow<>& w = *ranks_[static_cast<std::size_t>(rank)].window;
  w.start(
      w.enter(0),
      // Trigger the next barrier message through the regular MCP send path:
      // token creation, destination queues, packet claim, send record, ACK
      // — the direct scheme's defining overhead.
      [this, rank](GroupWindow<>::Op& op, const coll::Edge& e) {
        const int dst_node = rank_to_node_[static_cast<std::size_t>(e.peer)];
        ranks_[static_cast<std::size_t>(rank)].node->mcp().nic_send(
            dst_node, BarrierTag::encode(group_id_, op.seq, e.tag), 0);
      },
      // Completion: the NIC posts one event record to the host.
      [this, rank](GroupWindow<>::Op&) {
        myri::MyriNode& nd = *ranks_[static_cast<std::size_t>(rank)].node;
        nd.nic().exec(nd.nic().lanai().cyc_post_recv_event, [this, rank, &nd] {
          nd.pci().dma(8, [this, rank, &nd] {
            nd.host_cpu().exec(nd.nic().config().host.barrier_detect, [this, rank] {
              RankCtx& c = ranks_[static_cast<std::size_t>(rank)];
              auto cb = std::move(c.done);
              c.done = nullptr;
              if (cb) cb();
            });
          });
        });
      });
}

}  // namespace qmb::core
