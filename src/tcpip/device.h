// Network devices as seen by the host stack.
//
// Two device families exist on a PL-VINI node:
//  * the underlay NIC, whose transmit path hands packets to the physical
//    network (with underlay routing choosing the outgoing link), and
//  * TUN/TAP devices (the paper's modified /dev/net/tunX): packets the
//    kernel routes to the device are handed up to a user-space reader
//    (Click, or an OpenVPN client), and packets the reader writes are
//    injected back into the kernel as if they had arrived from a network.
#pragma once

#include <functional>
#include <string>

#include "packet/ip_address.h"
#include "packet/packet.h"

namespace vini::tcpip {

class HostStack;

class Device {
 public:
  Device(std::string name, packet::IpAddress address)
      : name_(std::move(name)), address_(address) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }
  packet::IpAddress address() const { return address_; }
  void setAddress(packet::IpAddress a) { address_ = a; }

  /// The kernel routed a packet out of this device; the device takes
  /// over the sending stack's box.
  virtual void transmit(packet::PacketBox p) = 0;

 protected:
  std::string name_;
  packet::IpAddress address_;
};

/// The node's physical interface into the substrate.  Transmission is
/// resolved by the underlay (PhysNetwork) to an outgoing physical link.
class UnderlayDevice final : public Device {
 public:
  UnderlayDevice(std::string name, packet::IpAddress address, HostStack& stack)
      : Device(std::move(name), address), stack_(stack) {}

  void transmit(packet::PacketBox p) override;

 private:
  HostStack& stack_;
};

/// A TUN/TAP device: kernel-to-user and user-to-kernel packet passing.
/// Mirrors the paper's per-slice tap0 with a 10.0.0.0/8 address.
class TunDevice final : public Device {
 public:
  /// User-space reader: invoked for each packet the kernel routes here.
  using Reader = std::function<void(packet::PacketBox)>;

  TunDevice(std::string name, packet::IpAddress address, HostStack& stack)
      : Device(std::move(name), address), stack_(stack) {}

  void setReader(Reader reader) { reader_ = std::move(reader); }

  /// Kernel -> user space.
  void transmit(packet::PacketBox p) override {
    if (reader_) reader_(std::move(p));
  }

  /// User space -> kernel: the packet re-enters the stack "as if it
  /// arrived from a network device".
  void inject(packet::Packet p);

 private:
  HostStack& stack_;
  Reader reader_;
};

}  // namespace vini::tcpip
