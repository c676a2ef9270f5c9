#include "core/host_executor.hpp"

#include <cassert>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/cluster.hpp"
#include "core/coll_tag.hpp"
#include "core/group_window.hpp"

namespace qmb::core {

namespace {

/// Myrinet: every edge is a full GM send (descriptor post, doorbell, MCP
/// path with host DMA); the port demultiplexes receives on the tag's group.
struct GmTransport {
  static constexpr std::string_view kNetwork = "myri";

  explicit GmTransport(myri::MyriNode& node) : port(&node.port()) {}

  void send(int dst_node, std::uint32_t bytes, std::uint32_t tag, std::int64_t value) {
    port->send(dst_node, bytes, tag, {}, value);
  }
  template <class OnMsg>
  void subscribe(std::uint32_t group, OnMsg on_msg) {
    port->add_collective_handler(group, [on_msg](const myri::RecvEvent& ev) {
      on_msg(ev.src_node, ev.tag, ev.inline_value);
    });
  }
  void unsubscribe(std::uint32_t group) { port->remove_collective_handler(group); }
  /// GM receives consume tokens the host must post in advance.
  void provide_buffers(int n) { port->provide_receive_buffers(n); }
  template <class F>
  void host_op(F f) {
    port->host_cpu().exec(port->host_config().barrier_logic, std::move(f));
  }

  myri::GmPort* port;
};

/// Elan and IB hosts see one host-message stream per node, so each
/// subscription adds a handler that filters it by group.
template <class Node>
struct TaggedTransport {
  explicit TaggedTransport(Node& n) : node(&n) {}

  template <class OnMsg>
  void subscribe(std::uint32_t group, OnMsg on_msg) {
    handler = node->add_receive_handler(
        [group, on_msg](int src_node, std::uint32_t tag, std::int64_t value) {
          if (!BarrierTag::is_barrier(tag) || BarrierTag::group(tag) != group) return;
          on_msg(src_node, tag, value);
        });
  }
  void unsubscribe(std::uint32_t) { node->remove_receive_handler(handler); }
  void provide_buffers(int) {}

  Node* node;
  int handler = -1;
};

/// Quadrics: tagged elan puts (the gsync pattern), host event setup per op.
struct ElanTransport : TaggedTransport<elan::ElanNode> {
  static constexpr std::string_view kNetwork = "elan";
  using TaggedTransport::TaggedTransport;

  void send(int dst_node, std::uint32_t bytes, std::uint32_t tag, std::int64_t value) {
    node->put(dst_node, bytes, tag, value);
  }
  template <class F>
  void host_op(F f) {
    node->host_cpu().exec(node->config().host_event_setup, std::move(f));
  }
};

/// IB: tagged writes-with-immediate (WQE build + doorbell + CQ polling).
struct IbTransport : TaggedTransport<ib::IbNode> {
  static constexpr std::string_view kNetwork = "ib";
  using TaggedTransport::TaggedTransport;

  void send(int dst_node, std::uint32_t bytes, std::uint32_t tag, std::int64_t value) {
    node->post(dst_node, bytes, tag, value);
  }
  template <class F>
  void host_op(F f) {
    node->host_cpu().exec(node->config().host_setup, std::move(f));
  }
};

template <class Cluster>
struct TransportFor;
template <>
struct TransportFor<MyriCluster> {
  using type = GmTransport;
};
template <>
struct TransportFor<ElanCluster> {
  using type = ElanTransport;
};
template <>
struct TransportFor<IbCluster> {
  using type = IbTransport;
};

/// Walks one schedule per rank on the hosts. `Done` is the rank's
/// completion callback: sim::EventCallback for barriers, the collective's
/// DoneFn (which receives the result) for value collectives.
template <class Transport, class Done>
class HostExecutor {
 public:
  template <class Cluster>
  HostExecutor(Cluster& cluster, coll::GroupSchedule schedule, std::vector<int> rank_to_node,
               coll::OpKind kind, coll::ReduceOp reduce, std::uint32_t payload_bytes)
      : schedule_(std::move(schedule)),
        rank_to_node_(std::move(rank_to_node)),
        kind_(kind),
        payload_bytes_(payload_bytes),
        group_id_(cluster.next_group_id() & BarrierTag::kGroupMask) {
    const int n = schedule_.size;
    assert(static_cast<int>(rank_to_node_.size()) == n);
    node_to_rank_.assign(static_cast<std::size_t>(cluster.size()), -1);
    for (int r = 0; r < n; ++r) {
      node_to_rank_.at(static_cast<std::size_t>(rank_to_node_[static_cast<std::size_t>(r)])) = r;
    }
    ranks_.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      RankCtx& ctx = ranks_.emplace_back(
          RankCtx{Transport(cluster.node(rank_to_node_[ur])), nullptr, nullptr,
                  schedule_.ranks[ur].total_waits()});
      // Head start of one full operation window: peers may run one
      // operation ahead, and their early messages consume tokens meant for
      // the current operation. Without this slack a lost message can
      // starve: its retransmissions find no token, the operation never
      // completes, and no new tokens are ever provided.
      ctx.transport.provide_buffers(2 * ctx.waits_per_op + 4);
      ctx.window = std::make_unique<GroupWindow<>>(schedule_.ranks[ur], kind, reduce);
      ctx.transport.subscribe(group_id_,
                              [this, r](int src_node, std::uint32_t tag, std::int64_t value) {
                                on_message(r, src_node, tag, value);
                              });
    }
  }
  ~HostExecutor() {
    for (RankCtx& ctx : ranks_) ctx.transport.unsubscribe(group_id_);
  }
  HostExecutor(const HostExecutor&) = delete;
  HostExecutor& operator=(const HostExecutor&) = delete;

  void enter(int rank, std::int64_t value, Done done) {
    RankCtx& ctx = ranks_.at(static_cast<std::size_t>(rank));
    assert(!ctx.done && "rank re-entered before completion");
    ctx.done = std::move(done);
    // Replenish receive buffers for this operation's expected messages,
    // then pay the host-side per-operation bookkeeping before the first
    // send.
    ctx.transport.provide_buffers(ctx.waits_per_op);
    ctx.transport.host_op([this, rank, value] { start(rank, value); });
  }

  [[nodiscard]] int size() const { return static_cast<int>(ranks_.size()); }

 private:
  struct RankCtx {
    Transport transport;
    std::unique_ptr<GroupWindow<>> window;
    Done done;
    int waits_per_op = 0;
  };
  using Op = GroupWindow<>::Op;

  void start(int rank, std::int64_t value) {
    GroupWindow<>& w = *ranks_[static_cast<std::size_t>(rank)].window;
    w.start(
        w.enter(value),
        [this, rank](Op& op, const coll::Edge& e) {
          const int dst_node = rank_to_node_[static_cast<std::size_t>(e.peer)];
          const auto bytes = payload_bytes_ * static_cast<std::uint32_t>(
                                                  coll::edge_payload_words(kind_, e.tag, op.acc));
          ranks_[static_cast<std::size_t>(rank)].transport.send(
              dst_node, bytes, BarrierTag::encode(group_id_, op.seq, e.tag), op.acc);
        },
        [this, rank](Op& op) { finish(rank, op.acc); });
  }

  void finish(int rank, std::int64_t result) {
    RankCtx& ctx = ranks_[static_cast<std::size_t>(rank)];
    auto cb = std::move(ctx.done);
    ctx.done = nullptr;
    if (!cb) return;
    if constexpr (std::is_invocable_v<Done&, std::int64_t>) {
      cb(result);
    } else {
      cb();
    }
  }

  void on_message(int rank, int src_node, std::uint32_t tag, std::int64_t value) {
    GroupWindow<>& w = *ranks_[static_cast<std::size_t>(rank)].window;
    const int src_rank = node_to_rank_.at(static_cast<std::size_t>(src_node));
    assert(src_rank >= 0);
    const std::uint32_t seq = BarrierTag::widen_seq(BarrierTag::seq_low(tag), w.next_seq());
    w.arrive(seq, src_rank, BarrierTag::edge_tag(tag), value);
  }

  coll::GroupSchedule schedule_;
  std::vector<int> rank_to_node_;
  std::vector<int> node_to_rank_;
  coll::OpKind kind_;
  std::uint32_t payload_bytes_;
  std::uint32_t group_id_;
  std::vector<RankCtx> ranks_;
};

template <class Transport>
class HostBarrier final : public Barrier {
 public:
  template <class Cluster>
  HostBarrier(Cluster& cluster, const coll::GroupSchedule& schedule,
              std::vector<int> rank_to_node, std::string name)
      : exec_(cluster, schedule, std::move(rank_to_node), coll::OpKind::kBarrier,
              coll::ReduceOp::kSum, 8),
        name_(std::move(name)) {}

  void enter(int rank, sim::EventCallback done) override {
    exec_.enter(rank, 0, std::move(done));
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return exec_.size(); }

 private:
  HostExecutor<Transport, sim::EventCallback> exec_;
  std::string name_;
};

template <class Transport>
class HostCollective final : public Collective {
 public:
  template <class Cluster>
  HostCollective(Cluster& cluster, const coll::CollSpec& spec, coll::GroupSchedule schedule,
                 std::vector<int> rank_to_node)
      : exec_(cluster, std::move(schedule), std::move(rank_to_node), spec.op, spec.reduce,
              spec.payload_bytes),
        kind_(spec.op),
        name_(std::string(Transport::kNetwork) + "-host-" +
              std::string(coll::to_string(spec.op))) {}

  void enter(int rank, std::int64_t value, DoneFn done) override {
    exec_.enter(rank, value, std::move(done));
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return exec_.size(); }
  [[nodiscard]] coll::OpKind kind() const override { return kind_; }

 private:
  HostExecutor<Transport, DoneFn> exec_;
  coll::OpKind kind_;
  std::string name_;
};

}  // namespace

template <class Cluster>
std::unique_ptr<Barrier> make_host_barrier(Cluster& cluster,
                                           const coll::GroupSchedule& schedule,
                                           std::vector<int> rank_to_node, std::string name) {
  return std::make_unique<HostBarrier<typename TransportFor<Cluster>::type>>(
      cluster, schedule, std::move(rank_to_node), std::move(name));
}

template <class Cluster>
std::unique_ptr<Collective> make_host_collective(Cluster& cluster, const coll::CollSpec& spec,
                                                 std::vector<int> rank_to_node) {
  auto schedule = make_collective_schedule(spec.op, static_cast<int>(rank_to_node.size()),
                                           spec.root, spec.algorithm, spec.radix);
  return std::make_unique<HostCollective<typename TransportFor<Cluster>::type>>(
      cluster, spec, std::move(schedule), std::move(rank_to_node));
}

template std::unique_ptr<Barrier> make_host_barrier(MyriCluster&, const coll::GroupSchedule&,
                                                    std::vector<int>, std::string);
template std::unique_ptr<Barrier> make_host_barrier(ElanCluster&, const coll::GroupSchedule&,
                                                    std::vector<int>, std::string);
template std::unique_ptr<Barrier> make_host_barrier(IbCluster&, const coll::GroupSchedule&,
                                                    std::vector<int>, std::string);
template std::unique_ptr<Collective> make_host_collective(MyriCluster&, const coll::CollSpec&,
                                                          std::vector<int>);
template std::unique_ptr<Collective> make_host_collective(ElanCluster&, const coll::CollSpec&,
                                                          std::vector<int>);
template std::unique_ptr<Collective> make_host_collective(IbCluster&, const coll::CollSpec&,
                                                          std::vector<int>);

}  // namespace qmb::core
