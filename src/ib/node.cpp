#include "ib/node.hpp"

#include <utility>

namespace qmb::ib {

IbNode::IbNode(sim::Engine& engine, net::Fabric& fabric, const IbConfig& config,
               int index, sim::Tracer* tracer, bool skip_retransmit)
    : index_(index),
      cfg_(config),
      host_cpu_(engine),
      hca_(engine, fabric, config, index, tracer, skip_retransmit) {}

void IbNode::post(int dst_node, std::uint32_t bytes, std::uint32_t tag,
                  std::int64_t value) {
  host_cpu_.exec(cfg_.host_wqe_build + cfg_.host_doorbell,
                 [this, dst_node, bytes, tag, value] {
    IbWrite body;
    body.op = IbWrite::Op::kWriteImm;
    body.imm_class = IbWrite::ImmClass::kHostMsg;
    body.tag = tag;
    body.src_rank = static_cast<std::uint32_t>(index_);
    body.payload_bytes = bytes;
    body.value = value;
    hca_.trace("ib_post", dst_node, tag);
    hca_.post_write(dst_node, body, bytes);
  });
}

void IbNode::set_receive_handler(ReceiveHandler fn) {
  app_handler_ = std::move(fn);
  install_dispatcher();
}

int IbNode::add_receive_handler(ReceiveHandler fn) {
  const int id = next_handler_id_++;
  extra_handlers_.emplace_back(id, std::move(fn));
  install_dispatcher();
  return id;
}

void IbNode::remove_receive_handler(int id) {
  for (auto it = extra_handlers_.begin(); it != extra_handlers_.end(); ++it) {
    if (it->first == id) {
      extra_handlers_.erase(it);
      return;
    }
  }
}

void IbNode::install_dispatcher() {
  if (dispatcher_installed_) return;
  dispatcher_installed_ = true;
  // One host_cq_poll per consumed CQE, however many handlers are
  // registered — the host wakes once and fans the message out.
  hca_.set_host_msg_handler([this](const IbWrite& w) {
    host_cpu_.exec(cfg_.host_cq_poll, [this, src = static_cast<int>(w.src_rank),
                                       tag = w.tag, value = w.value] {
      for (std::size_t i = 0; i < extra_handlers_.size(); ++i) {
        extra_handlers_[i].second(src, tag, value);
      }
      if (app_handler_) app_handler_(src, tag, value);
    });
  });
}

void IbNode::collective_enter(std::uint32_t group, std::int64_t value,
                              std::function<void(std::int64_t)> done) {
  host_cpu_.exec(cfg_.host_doorbell, [this, group, value, done = std::move(done)]() mutable {
    hca_.collective_enter(group, value,
                          [this, done = std::move(done)](std::int64_t result) mutable {
                            host_cpu_.exec(cfg_.host_cq_poll,
                                           [done = std::move(done), result]() mutable {
                                             done(result);
                                           });
                          });
  });
}

void IbNode::remote_fetch_add(int dst_node, std::uint32_t slot, std::int64_t addend,
                              std::function<void(std::int64_t)> done) {
  host_cpu_.exec(cfg_.host_wqe_build + cfg_.host_doorbell,
                 [this, dst_node, slot, addend, done = std::move(done)]() mutable {
    hca_.fetch_add(dst_node, slot, addend,
                   [this, done = std::move(done)](std::int64_t old) mutable {
                     host_cpu_.exec(cfg_.host_cq_poll,
                                    [done = std::move(done), old]() mutable { done(old); });
                   });
  });
}

void IbNode::remote_compare_swap(int dst_node, std::uint32_t slot, std::int64_t compare,
                                 std::int64_t swap,
                                 std::function<void(std::int64_t)> done) {
  host_cpu_.exec(cfg_.host_wqe_build + cfg_.host_doorbell,
                 [this, dst_node, slot, compare, swap, done = std::move(done)]() mutable {
    hca_.compare_swap(dst_node, slot, compare, swap,
                      [this, done = std::move(done)](std::int64_t old) mutable {
                        host_cpu_.exec(cfg_.host_cq_poll,
                                       [done = std::move(done), old]() mutable {
                                         done(old);
                                       });
                      });
  });
}

}  // namespace qmb::ib
