// Physical nodes.
//
// A PhysNode models one machine of the fixed infrastructure — a PlanetLab
// server co-located with an Abilene PoP, or a DETER testbed PC.  It owns
// a CPU scheduler (slices contend here), the attachment points for its
// links and its NIC receive stage; the host networking stack
// (tcpip::HostStack) installs the stage and registers a delivery handler
// to receive packets arriving on any attached link.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/scheduler.h"
#include "packet/ip_address.h"
#include "packet/packet.h"
#include "phys/link.h"

namespace vini::phys {

class PhysNode {
 public:
  /// Handler invoked when the receive stage hands on a packet that
  /// arrived on an attached link at `arrived_at`; it takes over the box
  /// the sender created.
  using PacketHandler =
      std::function<void(packet::PacketBox, PhysLink&, sim::Time arrived_at)>;

  PhysNode(NodeId id, std::string name, sim::EventQueue& queue,
           cpu::SchedulerConfig cpu_config);

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  cpu::Scheduler& scheduler() { return *scheduler_; }

  /// Primary (public) address of this node — the address remote tunnels
  /// target, like a PlanetLab node's public IP.
  packet::IpAddress address() const { return address_; }
  void setAddress(packet::IpAddress addr) { address_ = addr; }

  /// Attach a link endpoint: wires the link's receive channel into this
  /// node's delivery path.
  void attachLink(PhysLink& link);

  const std::vector<PhysLink*>& links() const { return links_; }

  /// The host stack installs itself here.
  void setPacketHandler(PacketHandler handler) { handler_ = std::move(handler); }

  /// The NIC receive stage every attached link's channel into this node
  /// applies (zero latency by default).  Set it before traffic flows:
  /// channels read it when a frame starts serializing, on the sender's
  /// lane.
  void setRxStage(const RxStage& stage) { rx_stage_ = stage; }

 private:
  NodeId id_;
  std::string name_;
  std::unique_ptr<cpu::Scheduler> scheduler_;
  packet::IpAddress address_;
  std::vector<PhysLink*> links_;
  PacketHandler handler_;
  RxStage rx_stage_;
};

}  // namespace vini::phys
