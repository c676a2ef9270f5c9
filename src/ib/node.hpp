// Verbs-consumer host API: tagged sends over RDMA write-with-immediate,
// the NIC collective doorbell, and remote atomics, with host costs (WQE
// build, doorbell MMIO, CQ polling) on the node's host CPU resource — the
// IB twin of elan::ElanNode.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ib/hca.hpp"
#include "sim/resource.hpp"

namespace qmb::ib {

/// One simulated IB node: host CPU + HCA with RC queue pairs to its peers.
class IbNode {
 public:
  IbNode(sim::Engine& engine, net::Fabric& fabric, const IbConfig& config, int index,
         sim::Tracer* tracer, bool skip_retransmit = false);
  IbNode(const IbNode&) = delete;
  IbNode& operator=(const IbNode&) = delete;

  /// Tagged host-level message: an RDMA write-with-immediate whose CQE the
  /// remote host consumes from its completion queue. `value` models the
  /// first payload word.
  void post(int dst_node, std::uint32_t bytes, std::uint32_t tag, std::int64_t value = 0);

  using ReceiveHandler =
      std::function<void(int src_node, std::uint32_t tag, std::int64_t value)>;

  /// Installs (or replaces) the application's receive handler. Every
  /// consumed CQE pays one host_cq_poll, then runs the added handlers
  /// followed by this one.
  void set_receive_handler(ReceiveHandler fn);

  /// Adds a handler that sees every host message alongside the app handler
  /// (host collectives over overlapping groups each add one and filter by
  /// tag). Returns an id for remove_receive_handler. The per-message host
  /// cost is paid once per node, not per handler.
  int add_receive_handler(ReceiveHandler fn);
  void remove_receive_handler(int id);

  /// Arms a collective group on this node's HCA (setup time, off the
  /// measured path — groups are created once before the run).
  void create_group(IbGroupDesc desc) { hca_.create_group(std::move(desc)); }

  /// NIC-resident collective: operand in with the doorbell, result out with
  /// the CQE (0 for barriers). `done` runs on the host after it polls the
  /// completion.
  void collective_enter(std::uint32_t group, std::int64_t value,
                        std::function<void(std::int64_t)> done);

  /// Remote fetch-and-add / compare-and-swap issued from the host; the
  /// completion (old value) is polled off the CQ like any other work
  /// request.
  void remote_fetch_add(int dst_node, std::uint32_t slot, std::int64_t addend,
                        std::function<void(std::int64_t)> done);
  void remote_compare_swap(int dst_node, std::uint32_t slot, std::int64_t compare,
                           std::int64_t swap, std::function<void(std::int64_t)> done);

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] sim::Resource& host_cpu() { return host_cpu_; }
  [[nodiscard]] Hca& hca() { return hca_; }
  [[nodiscard]] const IbConfig& config() const { return cfg_; }

 private:
  void install_dispatcher();

  int index_;
  const IbConfig& cfg_;
  sim::Resource host_cpu_;
  Hca hca_;
  ReceiveHandler app_handler_;
  std::vector<std::pair<int, ReceiveHandler>> extra_handlers_;
  int next_handler_id_ = 0;
  bool dispatcher_installed_ = false;
};

}  // namespace qmb::ib
