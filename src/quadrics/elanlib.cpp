#include "quadrics/elanlib.hpp"

#include <stdexcept>
#include <utility>

namespace qmb::elan {

ElanNode::ElanNode(sim::Engine& engine, net::Fabric& fabric, const Elan3Config& config,
                   int index, sim::Tracer* tracer)
    : index_(index),
      cfg_(config),
      host_cpu_(engine),
      nic_(engine, fabric, config, index, tracer) {}

void ElanNode::put(int dst_node, std::uint32_t bytes, std::uint32_t tag,
                   std::int64_t value) {
  host_cpu_.exec(cfg_.host_event_setup + cfg_.host_doorbell,
                 [this, dst_node, bytes, tag, value] {
    ElanRdma body;
    body.ev_class = ElanRdma::EventClass::kHostMsg;
    body.tag = tag;
    body.src_rank = static_cast<std::uint32_t>(index_);
    body.payload_bytes = bytes;
    body.value = value;
    // Host-side doorbell; the flow id is assigned (and traced) when the
    // RDMA unit injects the packet in rdma_put.
    nic_.trace("elan_put", dst_node, tag);
    nic_.rdma_put(dst_node, bytes, body);
  });
}

void ElanNode::set_receive_handler(ReceiveHandler fn) {
  app_handler_ = std::move(fn);
  install_dispatcher();
}

int ElanNode::add_receive_handler(ReceiveHandler fn) {
  const int id = next_handler_id_++;
  extra_handlers_.emplace_back(id, std::move(fn));
  install_dispatcher();
  return id;
}

void ElanNode::remove_receive_handler(int id) {
  for (auto it = extra_handlers_.begin(); it != extra_handlers_.end(); ++it) {
    if (it->first == id) {
      extra_handlers_.erase(it);
      return;
    }
  }
}

void ElanNode::install_dispatcher() {
  if (dispatcher_installed_) return;
  dispatcher_installed_ = true;
  // One host_detect poll per delivered message, however many handlers are
  // registered — the host wakes once and fans the message out.
  nic_.set_host_msg_handler([this](const ElanRdma& r) {
    host_cpu_.exec(cfg_.host_detect, [this, src = static_cast<int>(r.src_rank),
                                      tag = r.tag, value = r.value] {
      for (std::size_t i = 0; i < extra_handlers_.size(); ++i) {
        extra_handlers_[i].second(src, tag, value);
      }
      if (app_handler_) app_handler_(src, tag, value);
    });
  });
}

void ElanNode::collective_enter(std::uint32_t group, std::int64_t value,
                                std::function<void(std::int64_t)> done) {
  host_cpu_.exec(cfg_.host_doorbell, [this, group, value, done = std::move(done)]() mutable {
    nic_.collective_enter(group, value,
                          [this, done = std::move(done)](std::int64_t result) mutable {
                            host_cpu_.exec(cfg_.host_detect,
                                           [done = std::move(done), result]() mutable {
                                             done(result);
                                           });
                          });
  });
}

void ElanNode::hgsync_enter(sim::EventCallback done) {
  if (hw_ == nullptr) {
    throw std::logic_error("hgsync_enter without an attached HwBarrierController");
  }
  host_cpu_.exec(cfg_.host_doorbell, [this, done = std::move(done)]() mutable {
    nic_.unit().exec(cfg_.command_process, [this, done = std::move(done)]() mutable {
      hw_->enter(index_, [this, done = std::move(done)]() mutable {
        host_cpu_.exec(cfg_.host_detect, std::move(done));
      });
    });
  });
}

}  // namespace qmb::elan
