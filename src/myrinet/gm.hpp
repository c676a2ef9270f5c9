// GM-style host-level API (paper Sec. 4.2) plus the collective doorbell.
//
// GmPort is what application code on a simulated host calls: sends post a
// descriptor and cross the PCI bus as a doorbell; receives surface after the
// NIC DMAs the event into host memory and the host's poll loop notices it.
// All host-side costs (descriptor build, poll detect) execute on the node's
// host CPU resource, so a host busy in compute delays its own communication
// — the effect the NIC-based barrier exploits.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "core/coll_tag.hpp"
#include "myrinet/collective.hpp"
#include "myrinet/mcp.hpp"
#include "myrinet/nic.hpp"

namespace qmb::myri {

class GmPort {
 public:
  GmPort(Nic& nic, Mcp& mcp, CollectiveEngine& coll, sim::Resource& host_cpu,
         const HostConfig& host);

  /// gm_send_with_callback: sends `bytes` with `tag` to the GM port on
  /// `dst_node`. `on_complete` (optional) runs on the host when the NIC
  /// reports every fragment acknowledged. `inline_value` models the first
  /// word of payload (host-level collectives carry their operand in it).
  void send(int dst_node, std::uint32_t bytes, std::uint32_t tag,
            sim::EventCallback on_complete = {}, std::int64_t inline_value = 0);

  /// gm_provide_receive_buffer x n.
  void provide_receive_buffers(int n) { mcp_.provide_receive_buffers(n); }

  /// Installs the host receive upcall for application (non-collective)
  /// traffic (runs on the host CPU after the poll loop detects the event).
  void set_receive_handler(std::function<void(const RecvEvent&)> fn);

  /// Registers a handler for host-level collective messages of `group`
  /// (BarrierTag-encoded GM tags). Several groups can coexist on one port;
  /// the port demultiplexes on the tag's group field.
  void add_collective_handler(std::uint32_t group, std::function<void(const RecvEvent&)> fn);
  void remove_collective_handler(std::uint32_t group);

  /// Registers a collective group on this node's NIC.
  void create_group(GroupDesc desc) { coll_.create_group(std::move(desc)); }

  /// NIC-based collective entry: one doorbell in with the operand, one
  /// completion word out with the result (0 for barriers).
  void collective_enter(std::uint32_t group, std::int64_t value,
                        std::function<void(std::int64_t)> done);

  [[nodiscard]] sim::Resource& host_cpu() { return host_cpu_; }
  [[nodiscard]] const HostConfig& host_config() const { return host_; }
  [[nodiscard]] Mcp& mcp() { return mcp_; }
  [[nodiscard]] CollectiveEngine& coll() { return coll_; }
  [[nodiscard]] Nic& nic() { return nic_; }

 private:
  void install_dispatcher();

  Nic& nic_;
  Mcp& mcp_;
  CollectiveEngine& coll_;
  sim::Resource& host_cpu_;
  const HostConfig& host_;
  bool dispatcher_installed_ = false;
  std::function<void(const RecvEvent&)> app_handler_;
  std::unordered_map<std::uint32_t, std::function<void(const RecvEvent&)>> group_handlers_;
};

/// One simulated cluster node: host CPU, PCI bus, LANai NIC running the MCP
/// and the collective protocol, and the GM port applications use.
class MyriNode {
 public:
  MyriNode(sim::Engine& engine, net::Fabric& fabric, const MyrinetConfig& config,
           int index, sim::Tracer* tracer);
  MyriNode(const MyriNode&) = delete;
  MyriNode& operator=(const MyriNode&) = delete;

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] sim::Resource& host_cpu() { return host_cpu_; }
  [[nodiscard]] PciBus& pci() { return pci_; }
  [[nodiscard]] Nic& nic() { return nic_; }
  [[nodiscard]] Mcp& mcp() { return mcp_; }
  [[nodiscard]] CollectiveEngine& coll() { return coll_; }
  [[nodiscard]] GmPort& port() { return port_; }

 private:
  int index_;
  sim::Resource host_cpu_;
  PciBus pci_;
  Nic nic_;
  Mcp mcp_;
  CollectiveEngine coll_;
  GmPort port_;
};

}  // namespace qmb::myri
