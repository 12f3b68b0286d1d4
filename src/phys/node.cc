#include "phys/node.h"

namespace vini::phys {

PhysNode::PhysNode(NodeId id, std::string name, sim::EventQueue& queue,
                   cpu::SchedulerConfig cpu_config)
    : id_(id), name_(std::move(name)) {
  // Key the scheduler's (and its processes') metrics by this node's name
  // so "click-vini" on Denver and "click-vini" on Seattle stay distinct.
  cpu_config.node_name = name_;
  scheduler_ = std::make_unique<cpu::Scheduler>(queue, std::move(cpu_config));
}

void PhysNode::attachLink(PhysLink& link) {
  links_.push_back(&link);
  link.channelFrom(link.peerOf(id_))
      .setDeliverHandler(
          [this, &link](packet::PacketBox p, sim::Time arrived_at) {
            if (handler_) handler_(std::move(p), link, arrived_at);
          },
          &rx_stage_);
}

}  // namespace vini::phys
