// The standard element library.
//
// These are the elements the IIAS router graph is built from (Figure 1
// of the paper): UDP tunnel endpoints, the local TUN/TAP interface, the
// uml_switch bridge to the routing daemon, the FIB lookup, the
// encapsulation table, NAPT for external egress, token-bucket shapers
// for per-slice link bandwidth, and the drop filter used to inject
// virtual-link failures (Section 5.2 fails the Denver–Kansas City link
// "by dropping packets within Click on the virtual link").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "click/element.h"
#include "click/fib.h"
#include "obs/obs.h"
#include "sim/event_queue.h"

namespace vini::click {

/// Tunnel receive endpoint: reads encapsulated packets from a buffered
/// UDP socket, charging the Click process the per-packet forwarding cost
/// (this is where the user-space penalty of Table 2 lives), decapsulates,
/// and pushes the inner packet to output 0.
class FromSocket final : public Element {
 public:
  FromSocket(ClickContext& context, std::uint16_t port);
  std::string className() const override { return "FromSocket"; }
  void push(int, packet::Packet&&) override {}  // source element: no inputs

  std::uint16_t port() const { return port_; }
  std::uint64_t received() const { return received_; }
  std::uint64_t socketDrops() const;

 private:
  void onQueued(const packet::Packet& p);

  ClickContext& context_;
  std::uint16_t port_;
  std::uint64_t received_ = 0;
  std::uint64_t non_tunnel_drops_ = 0;
  obs::Counter* m_rx_packets_ = nullptr;
  std::int16_t span_layer_ = -1;
  std::int16_t span_node_ = -1;
};

/// Tunnel transmit endpoint: encapsulates the packet toward the
/// annotated tunnel destination (set by EncapTable) over a UDP socket.
class ToSocket final : public Element {
 public:
  ToSocket(ClickContext& context, std::uint16_t local_port);
  std::string className() const override { return "ToSocket"; }
  void push(int input_port, packet::Packet&& p) override;

  std::uint64_t sent() const { return sent_; }
  std::uint64_t unroutable() const { return unroutable_; }

 private:
  ClickContext& context_;
  std::uint16_t local_port_;
  std::uint64_t sent_ = 0;
  std::uint64_t unroutable_ = 0;
  obs::Counter* m_tx_packets_ = nullptr;
  obs::Counter* m_unroutable_ = nullptr;
};

/// Reads packets the kernel routes to a TUN/TAP device (applications on
/// this node sending into the overlay via tap0); charges the Click
/// process and pushes to output 0.
class TapIn final : public Element {
 public:
  TapIn(ClickContext& context, const std::string& device_name);
  std::string className() const override { return "TapIn"; }
  void push(int, packet::Packet&&) override {}  // source element

  std::uint64_t received() const { return received_; }

 private:
  ClickContext& context_;
  std::uint64_t received_ = 0;
};

/// Writes packets back into the kernel through a TUN/TAP device (local
/// delivery: the kernel then demuxes to sockets / replies to pings).
class TapOut final : public Element {
 public:
  TapOut(ClickContext& context, const std::string& device_name);
  std::string className() const override { return "TapOut"; }
  void push(int input_port, packet::Packet&& p) override;

  std::uint64_t delivered() const { return delivered_; }

 private:
  ClickContext& context_;
  std::string device_name_;
  std::uint64_t delivered_ = 0;
};

/// Bridge between Click and the routing daemon running "in UML".
/// Packets pushed in from the graph go up to the daemon (upcall);
/// packets the daemon sends come down via injectFromUml() and are pushed
/// to output 0.
class UmlSwitch final : public Element {
 public:
  explicit UmlSwitch(ClickContext& context);
  std::string className() const override { return "UmlSwitch"; }
  void push(int input_port, packet::Packet&& p) override;

  /// The routing daemon's receive hook.
  void setUpcall(std::function<void(packet::Packet)> upcall) {
    upcall_ = std::move(upcall);
  }

  /// Daemon -> data plane.
  void injectFromUml(packet::Packet p);

  std::uint64_t toUml() const { return to_uml_; }
  std::uint64_t fromUml() const { return from_uml_; }

 private:
  ClickContext& context_;
  std::function<void(packet::Packet)> upcall_;
  std::uint64_t to_uml_ = 0;
  std::uint64_t from_uml_ = 0;
};

/// Demultiplexes by destination: output 0 = local control plane (routing
/// protocol traffic addressed to this virtual node), output 1 = local
/// data (delivered via tap0), output 2 = transit.
class LocalDemux final : public Element {
 public:
  LocalDemux() = default;
  std::string className() const override { return "LocalDemux"; }
  void push(int input_port, packet::Packet&& p) override;

  void addLocalAddress(packet::IpAddress addr) { local_.insert(addr); }
  bool isLocal(packet::IpAddress addr) const { return local_.contains(addr); }

 private:
  packet::AddressSet local_;
};

/// Decrements the IP TTL; expired packets go to output 1 if connected,
/// else are dropped and counted.
class DecIpTtl final : public Element {
 public:
  DecIpTtl() = default;
  std::string className() const override { return "DecIpTtl"; }
  void push(int input_port, packet::Packet&& p) override;

  std::uint64_t expired() const { return expired_; }

 private:
  std::uint64_t expired_ = 0;
};

/// Longest-prefix-match routing: annotates the packet with the next hop
/// and emits it on the entry's port.  Misses are counted and dropped.
/// Configuration arguments are entries of the form "prefix gateway port".
class LookupIPRoute final : public Element {
 public:
  LookupIPRoute() = default;
  explicit LookupIPRoute(const std::vector<std::string>& route_args);
  std::string className() const override { return "LookupIPRoute"; }
  void push(int input_port, packet::Packet&& p) override;

  Fib& fib() { return fib_; }
  std::uint64_t misses() const { return misses_; }

 private:
  Fib fib_;
  std::uint64_t misses_ = 0;
};

/// Maps the next-hop annotation (a virtual interface address on a
/// neighboring virtual node) to the UDP tunnel that reaches it: the
/// (public underlay address, port) of the peer's Click process.
class EncapTable final : public Element {
 public:
  EncapTable() = default;
  std::string className() const override { return "EncapTable"; }
  void push(int input_port, packet::Packet&& p) override;

  void addMapping(packet::IpAddress next_hop, packet::IpAddress node_addr,
                  std::uint16_t port);
  bool removeMapping(packet::IpAddress next_hop);
  std::size_t size() const { return table_.size(); }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Endpoint {
    packet::IpAddress node;
    std::uint16_t port = 0;
  };
  std::map<packet::IpAddress, Endpoint> table_;
  std::uint64_t misses_ = 0;
};

/// Network Address and Port Translation at the overlay egress
/// (Section 4.2.3).  Outbound packets (input 0) have their source
/// rewritten to this node's public address and an allocated port, then
/// are sent to the external Internet through the kernel.  Return traffic
/// is captured at the stack, reverse-translated, charged to the Click
/// process, and pushed out of output 0 (back toward the FIB, which
/// routes it to the opted-in client across the overlay).
class Napt final : public Element {
 public:
  Napt(ClickContext& context, packet::IpAddress public_addr);
  ~Napt() override;
  std::string className() const override { return "Napt"; }
  void push(int input_port, packet::Packet&& p) override;

  std::size_t activeMappings() const { return forward_.size(); }
  std::uint64_t translatedOut() const { return translated_out_; }
  std::uint64_t translatedBack() const { return translated_back_; }
  std::uint64_t untranslatable() const { return untranslatable_; }

 private:
  struct FlowKey {
    std::uint8_t proto = 0;
    std::uint32_t src_addr = 0;
    std::uint16_t src_port = 0;
    std::uint32_t dst_addr = 0;
    std::uint16_t dst_port = 0;
    auto operator<=>(const FlowKey&) const = default;
  };
  struct Origin {
    packet::IpAddress addr;
    std::uint16_t port = 0;
  };

  std::uint16_t mapFlow(const FlowKey& key, packet::IpProto proto);
  void onReturnPacket(packet::Packet p, std::uint16_t nat_port);

  ClickContext& context_;
  packet::IpAddress public_addr_;
  std::map<FlowKey, std::uint16_t> forward_;
  std::map<std::uint16_t, Origin> reverse_;
  std::vector<std::pair<packet::IpProto, std::uint16_t>> captures_;
  std::uint64_t translated_out_ = 0;
  std::uint64_t translated_back_ = 0;
  std::uint64_t untranslatable_ = 0;
  std::int16_t span_layer_ = -1;
  std::int16_t span_node_ = -1;
};

/// Token-bucket shaper with a bounded FIFO: models Click traffic shapers
/// used to emulate link bandwidths (Section 6.2 "to allow researchers to
/// vary link capacities ... via configuration of traffic shapers in
/// Click").
class Shaper final : public Element {
 public:
  Shaper(ClickContext& context, double rate_bps, std::size_t bucket_bytes,
         std::size_t queue_bytes = 256 * 1024);
  std::string className() const override { return "Shaper"; }
  void push(int input_port, packet::Packet&& p) override;

  double rateBps() const { return rate_bps_; }
  void setRateBps(double rate) { rate_bps_ = rate; }
  std::uint64_t drops() const { return drops_; }
  std::size_t queuedBytes() const { return queued_bytes_; }

 private:
  void refill();
  void drain();

  ClickContext& context_;
  double rate_bps_;
  double bucket_bytes_;
  double tokens_;
  std::size_t queue_capacity_;
  sim::Time last_refill_ = 0;
  std::deque<packet::Packet> queue_;
  /// Queueing-span id of each queue_ entry (0 = untraced); lockstep.
  std::deque<std::uint32_t> queue_spans_;
  std::size_t queued_bytes_ = 0;
  std::uint64_t drops_ = 0;
  bool drain_scheduled_ = false;
  obs::Counter* m_drops_ = nullptr;
  std::int16_t span_layer_ = -1;
  std::int16_t span_node_ = -1;
};

/// Failure injection: drops packets whose tunnel destination (or, if
/// unset, IP destination) is in the blocked set.  This is the mechanism
/// the Section 5.2 experiment uses to fail a virtual link.
class DropFilter final : public Element {
 public:
  DropFilter() = default;
  std::string className() const override { return "DropFilter"; }
  void push(int input_port, packet::Packet&& p) override;

  void block(packet::IpAddress addr) { blocked_.insert(addr); }
  void unblock(packet::IpAddress addr) { blocked_.erase(addr); }
  void clear() { blocked_.clear(); }
  bool isBlocked(packet::IpAddress addr) const { return blocked_.contains(addr); }
  std::uint64_t dropped() const { return dropped_; }

 private:
  packet::AddressSet blocked_;
  std::uint64_t dropped_ = 0;
};

/// Generates ICMP Time Exceeded errors for expired packets — this is
/// what makes traceroute work *inside* the overlay: each virtual hop's
/// DecIpTtl routes expired packets here, and the error (sourced from the
/// virtual node's own overlay address) is pushed back into the FIB
/// toward the prober.
class IcmpTimeExceeded final : public Element {
 public:
  explicit IcmpTimeExceeded(packet::IpAddress reporter) : reporter_(reporter) {}
  std::string className() const override { return "IcmpTimeExceeded"; }
  void push(int input_port, packet::Packet&& p) override;

  std::uint64_t generated() const { return generated_; }

 private:
  packet::IpAddress reporter_;
  std::uint64_t generated_ = 0;
};

/// Pass-through packet/byte counter.
class Counter final : public Element {
 public:
  Counter() = default;
  std::string className() const override { return "Counter"; }
  void push(int input_port, packet::Packet&& p) override;

  std::uint64_t packets() const { return packets_; }
  std::uint64_t bytes() const { return bytes_; }
  void reset() { packets_ = bytes_ = 0; }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Terminal sink.
class Discard final : public Element {
 public:
  Discard() = default;
  std::string className() const override { return "Discard"; }
  void push(int, packet::Packet&&) override { ++count_; }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

/// Protocol classifier: each argument is one of "udp", "tcp", "icmp",
/// "ospf", or "-" (match-all); a packet goes to the port of the first
/// matching pattern, or is dropped if none match.
class Classifier final : public Element {
 public:
  explicit Classifier(std::vector<std::string> patterns);
  std::string className() const override { return "Classifier"; }
  void push(int input_port, packet::Packet&& p) override;

  std::uint64_t unmatched() const { return unmatched_; }

 private:
  std::vector<std::string> patterns_;
  std::uint64_t unmatched_ = 0;
};

}  // namespace vini::click
