// Elanlib-style host API (paper Sec. 4.1): tagged puts, the chained-RDMA
// NIC barrier doorbell, and elan_hgsync()'s hardware-barrier entry. Host
// costs (descriptor setup, doorbell, event-word polling) run on the node's
// host CPU resource.
//
// The three Quadrics barrier flavours of Fig. 7 are built on these
// primitives:
//   * elan_gsync  — host-level gather-broadcast tree over put()
//                   (core/host_executor.cpp)
//   * elan_hgsync — hardware broadcast + network test-and-set
//                   (core/quadrics_barrier.cpp)
//   * NIC barrier — chained RDMA descriptors, collective_enter
//                   (core/collectives.cpp)
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "quadrics/fabric.hpp"
#include "quadrics/nic.hpp"
#include "sim/resource.hpp"

namespace qmb::elan {

/// One simulated Quadrics node: host CPU + Elan3 NIC + user-level port.
class ElanNode {
 public:
  ElanNode(sim::Engine& engine, net::Fabric& fabric, const Elan3Config& config,
           int index, sim::Tracer* tracer);
  ElanNode(const ElanNode&) = delete;
  ElanNode& operator=(const ElanNode&) = delete;

  /// Tagged host-level message (elan_put + remote event): the remote host's
  /// receive handler runs after its poll loop sees the event word.
  /// `value` models the first payload word.
  void put(int dst_node, std::uint32_t bytes, std::uint32_t tag, std::int64_t value = 0);

  using ReceiveHandler =
      std::function<void(int src_node, std::uint32_t tag, std::int64_t value)>;

  /// Installs (or replaces) the application's receive handler. Every
  /// delivered host message pays one host_detect poll, then runs the added
  /// handlers followed by this one.
  void set_receive_handler(ReceiveHandler fn);

  /// Adds a handler that sees every host message alongside the app handler
  /// (host collectives over overlapping groups each add one and filter by
  /// tag). Returns an id for remove_receive_handler. The per-message host
  /// cost is paid once per node, not per handler.
  int add_receive_handler(ReceiveHandler fn);
  void remove_receive_handler(int id);

  /// Arms a chained-RDMA collective group on this node's NIC (setup time,
  /// off the measured path — the paper arms descriptors from user level
  /// once).
  void create_group(ElanGroupDesc desc) { nic_.create_group(std::move(desc)); }

  /// Chained-RDMA NIC collective: operand in with the doorbell, result out
  /// with the final local event's word (0 for barriers). `done` runs on
  /// the host after it polls the completion word.
  void collective_enter(std::uint32_t group, std::int64_t value,
                        std::function<void(std::int64_t)> done);

  /// elan_hgsync() entry: sets the NIC test-and-set flag and waits for the
  /// hardware release. Requires attach_hw_barrier().
  void hgsync_enter(sim::EventCallback done);

  void attach_hw_barrier(HwBarrierController* hw) { hw_ = hw; }

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] sim::Resource& host_cpu() { return host_cpu_; }
  [[nodiscard]] Nic& nic() { return nic_; }
  [[nodiscard]] const Elan3Config& config() const { return cfg_; }

 private:
  void install_dispatcher();

  int index_;
  const Elan3Config& cfg_;
  sim::Resource host_cpu_;
  Nic nic_;
  HwBarrierController* hw_ = nullptr;
  ReceiveHandler app_handler_;
  std::vector<std::pair<int, ReceiveHandler>> extra_handlers_;
  int next_handler_id_ = 0;
  bool dispatcher_installed_ = false;
};

}  // namespace qmb::elan
