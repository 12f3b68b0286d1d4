// The host networking stack ("the kernel") of a physical node.
//
// Every PhysNode gets a HostStack: devices (underlay NIC + any TUN/TAP
// devices), a routing table, UDP sockets, ICMP echo handling, kernel IP
// forwarding (the Table 2 "Network" baseline path), and the demux hooks
// the TCP implementation registers into.  Per-packet host costs (NIC/
// interrupt latency, kernel forwarding cost) are modelled here; they are
// what separate "Network" rows from IIAS rows in the microbenchmarks.
// The receive half of the NIC model is the node's phys::RxStage, which
// the stack installs: the channel that carries a packet in draws its
// receive latency and delivers it to the kernel in one event.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "packet/packet.h"
#include "phys/network.h"
#include "tcpip/device.h"
#include "tcpip/routing_table.h"

namespace vini::tcpip {

struct HostConfig {
  /// NIC/driver/interrupt latency per packet (sampled with jitter).
  /// Both directions draw through phys::sampleNicLatency; the receive
  /// side (rx_latency_mean, nic_jitter, rx_spike_*) becomes the node's
  /// phys::RxStage, applied per incoming link by the channel that
  /// delivers the packet.
  /// Calibrated against Table 3's Network row: ping -f across one
  /// kernel forwarder measures 0.193/0.414/0.593 (min/avg/max ms).
  sim::Duration tx_latency_mean = 28 * sim::kMicrosecond;
  sim::Duration rx_latency_mean = 50 * sim::kMicrosecond;
  /// Relative jitter (stddev / mean) of the NIC latencies.
  double nic_jitter = 0.55;
  /// Rare receive-path spikes (softirq backlog, interrupt coalescing on
  /// a busy production host): per-packet probability of an extra
  /// uniform(spike_min, spike_max) delay.  Off by default (dedicated lab
  /// machines); the PlanetLab host model enables them — they produce the
  /// occasional ~28 ms RTTs in Table 5's Network row.
  double rx_spike_probability = 0.0;
  sim::Duration rx_spike_min = 500 * sim::kMicrosecond;
  sim::Duration rx_spike_max = 3 * sim::kMillisecond;
  /// Host NIC rate: outgoing packets serialize at this rate before
  /// reaching the wire (a PlanetLab node's ~100 Mb/s access port; set to
  /// the link speed or higher to make the wire the bottleneck).
  double nic_bps = 1e9;
  /// Transmit ring capacity per outgoing link, in packets.  The NIC
  /// model is backpressured: packets queue here and a single completion
  /// event per link chains through the ring, instead of every packet
  /// pre-scheduling its own far-future wire event (which peaked at
  /// ~414k pending events on saturated meshes).  Overflow is a counted
  /// drop ("nic_queue_full"), like a real driver ring.
  std::size_t nic_queue_packets = 4096;
  /// Kernel IP forwarding cost (serial; models the forwarding hot path).
  sim::Duration forward_fixed_cost = 3 * sim::kMicrosecond;
  double forward_cost_per_byte_ns = 1.0;
  /// Whether this kernel forwards packets not addressed to it.
  bool ip_forward = true;
  /// Default capacity of a buffered UDP socket (net.core.rmem_default of
  /// the era: ~110 KB).
  std::size_t default_socket_buffer = 110 * 1024;
};

/// Per-slice traffic counters — the VNET role (Section 4.1.1: "VNET
/// ... tracks and multiplexes incoming and outgoing traffic", giving
/// each slice access only to its own traffic).
struct SliceTraffic {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
};

struct HostStats {
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_no_listener = 0;
  std::uint64_t dropped_nic_queue = 0;
};

class HostStack;

/// A UDP socket.  Two delivery modes:
///  * immediate: a handler is invoked on arrival (in-kernel consumers);
///  * buffered: packets queue in a bounded socket buffer and a user-space
///    process is notified — overflow drops are counted.  This buffer is
///    the one that overflows in Figure 6(a) when the Click process is
///    descheduled too long.
class UdpSocket {
 public:
  UdpSocket(HostStack& stack, std::uint16_t port);
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t port() const { return port_; }

  /// Source address for outgoing datagrams (defaults to the host's
  /// primary address).  Bind to a tap0 address to source traffic into an
  /// overlay.
  void bindAddress(packet::IpAddress addr) { bound_addr_ = addr; }
  packet::IpAddress boundAddress() const;

  /// Immediate-delivery mode.
  void setReceiveHandler(std::function<void(packet::Packet)> handler) {
    handler_ = std::move(handler);
  }

  /// Buffered mode with the given capacity (0 = stack default).
  void setBuffered(std::size_t buffer_bytes = 0);
  /// Buffered-mode notification: invoked with (a reference to) each
  /// packet as it is queued, so the consumer can size its work.
  void setNotify(std::function<void(const packet::Packet&)> notify) {
    notify_ = std::move(notify);
  }
  std::optional<packet::Packet> readPacket();
  std::size_t queuedPackets() const { return rx_queue_.size(); }
  std::size_t queuedBytes() const { return rx_queued_bytes_; }
  std::uint64_t bufferDrops() const { return buffer_drops_; }

  /// Send an opaque datagram of `payload_bytes`.
  void sendTo(packet::IpAddress dst, std::uint16_t dport,
              std::size_t payload_bytes, packet::PacketMeta meta = {});

  /// Send an encapsulated packet (tunnelling); the box moves into the
  /// tunnel packet.
  void sendEncapsulatedTo(packet::IpAddress dst, std::uint16_t dport,
                          packet::PacketBox inner, std::size_t extra_bytes = 0);

  /// Send a structured application payload (routing protocol messages).
  void sendAppTo(packet::IpAddress dst, std::uint16_t dport,
                 std::shared_ptr<const packet::AppPayload> payload);

 private:
  friend class HostStack;
  void deliver(packet::Packet p);

  HostStack& stack_;
  std::uint16_t port_;
  packet::IpAddress bound_addr_;
  std::function<void(packet::Packet)> handler_;
  bool buffered_ = false;
  std::size_t buffer_capacity_ = 0;
  std::deque<packet::Packet> rx_queue_;
  std::size_t rx_queued_bytes_ = 0;
  std::uint64_t buffer_drops_ = 0;
  std::function<void(const packet::Packet&)> notify_;
};

/// Demux key for an established TCP connection.
struct TcpKey {
  std::uint16_t local_port = 0;
  std::uint32_t remote_addr = 0;
  std::uint16_t remote_port = 0;
  auto operator<=>(const TcpKey&) const = default;
};

class HostStack {
 public:
  HostStack(phys::PhysNode& node, phys::PhysNetwork& net, HostConfig config = {});
  ~HostStack();

  HostStack(const HostStack&) = delete;
  HostStack& operator=(const HostStack&) = delete;

  phys::PhysNode& node() { return node_; }
  phys::PhysNetwork& network() { return net_; }
  sim::EventQueue& queue() { return net_.queue(); }
  const HostConfig& config() const { return config_; }
  HostStats& stats() { return stats_; }

  packet::IpAddress address() const { return node_.address(); }

  // -- Devices --------------------------------------------------------------

  UnderlayDevice& underlayDevice() { return *underlay_; }

  /// Create a TUN/TAP device with the given local address; its address
  /// becomes a local address of the host.
  TunDevice& createTunDevice(const std::string& name, packet::IpAddress address);

  /// Tear a TUN/TAP device down (live migration moved its slice away):
  /// removes its routes, drops its address from the local set, and
  /// destroys the device.  Returns false if no such device exists.
  bool removeTunDevice(const std::string& name);

  Device* deviceByName(const std::string& name);

  /// Treat `addr` as local (deliver up rather than forward).
  void addLocalAddress(packet::IpAddress addr) { local_addrs_.insert(addr); }
  void removeLocalAddress(packet::IpAddress addr) { local_addrs_.erase(addr); }
  bool isLocalAddress(packet::IpAddress addr) const;

  RoutingTable& routingTable() { return rt_; }

  // -- Sockets ----------------------------------------------------------------

  /// Open a UDP socket on `port` (0 = allocate an ephemeral port).
  UdpSocket& openUdp(std::uint16_t port = 0);
  void closeUdp(std::uint16_t port);
  UdpSocket* udpSocket(std::uint16_t port);

  /// Allocate an unused ephemeral port (also used by the NAPT element).
  std::uint16_t allocateEphemeralPort();

  // -- ICMP -------------------------------------------------------------------

  /// Allocate a fresh echo identifier.  Per-stack (ICMP demux is
  /// per-stack), so idents are deterministic regardless of how many
  /// other stacks exist in the process.
  std::uint16_t allocateIcmpIdent();

  /// Send an echo request; replies arrive at the handler registered for
  /// `ident` (handler receives the reply packet, still meta-stamped).
  /// `src` overrides the source address (e.g. a tap0 address so the echo
  /// travels through an overlay); zero means the host's primary address.
  void sendIcmpEcho(packet::IpAddress dst, std::uint16_t ident, std::uint16_t seq,
                    std::size_t payload_bytes, packet::PacketMeta meta = {},
                    packet::IpAddress src = {});
  void setIcmpReplyHandler(std::uint16_t ident,
                           std::function<void(packet::Packet)> handler) {
    icmp_handlers_[ident] = std::move(handler);
  }

  /// Handler for received ICMP errors (time exceeded / unreachable);
  /// traceroute registers here.
  void setIcmpErrorHandler(std::function<void(const packet::Packet&)> handler) {
    icmp_error_handler_ = std::move(handler);
  }

  /// Emit an ICMP error about `original` (rate-limited, and never about
  /// another ICMP packet, per the classic rules).
  void sendIcmpError(std::uint8_t type, std::uint8_t code,
                     const packet::Packet& original);

  // -- Port capture (used by pass-through middleboxes like NAPT) --------------

  /// Intercept all locally-delivered packets of `proto` whose destination
  /// port (ICMP: ident) equals `port`, before socket demux.  This is how
  /// the IIAS NAPT pulls return traffic from external hosts back into the
  /// overlay (Figure 2, step 4's reverse direction).
  void setPortCapture(packet::IpProto proto, std::uint16_t port,
                      std::function<void(packet::Packet)> handler);
  void clearPortCapture(packet::IpProto proto, std::uint16_t port);

  // -- TCP demux (used by tcpip::Tcp*) ----------------------------------------

  /// `owner` keeps the connection alive while its demux entry exists;
  /// it is opaque so this header stays below tcpip/tcp.h in the layering.
  void registerTcpConnection(const TcpKey& key,
                             std::function<void(packet::Packet)> handler,
                             std::shared_ptr<void> owner = nullptr);
  void unregisterTcpConnection(const TcpKey& key);
  void registerTcpListener(std::uint16_t port,
                           std::function<void(packet::Packet)> handler);
  void unregisterTcpListener(std::uint16_t port);

  // -- Packet I/O ---------------------------------------------------------------

  /// Send a locally generated packet (routing table decides the device).
  /// This is where the packet is boxed, once, for its whole journey to
  /// the receiving kernel.
  void sendPacket(packet::Packet p);

  /// Transmit via the underlay NIC (underlay routing picks the link).
  void transmitUnderlay(packet::PacketBox p);

  /// Entry point for packets injected from a TUN device (user -> kernel).
  void injectFromTun(packet::Packet p);

  /// Trace hooks (tcpdump): called for every packet received/sent.
  void setRxTrace(std::function<void(const packet::Packet&)> fn) { rx_trace_ = std::move(fn); }
  void setTxTrace(std::function<void(const packet::Packet&)> fn) { tx_trace_ = std::move(fn); }

  /// VNET-style accounting: traffic attributed to a slice (packets that
  /// carried its slice id through this host).
  const SliceTraffic& sliceTraffic(int slice_id) {
    return slice_traffic_[slice_id];
  }

  /// This stack's interned node tag (kNoNode when the queue has no obs
  /// attribution) — protocol timers owned by the stack attribute their
  /// events here so the sharded engine lanes them correctly.
  sim::NodeTag nodeTag() const { return node_tag_; }

  /// Packets currently queued in every per-link NIC transmit ring.
  std::size_t nicQueuedPackets() const {
    std::size_t n = 0;
    for (const NicState& nic : nic_state_) n += nic.queue.size();
    return n;
  }

  /// Kernel CPU consumed by forwarding since last reset (Table 2 CPU%).
  sim::Duration kernelCpuConsumed() const { return kernel_cpu_; }
  void resetKernelAccounting();
  double kernelUtilization() const;

  /// Called by UdpSocket when a buffered socket's receive buffer
  /// overflows — the Fig. 6(a) drop — so the stack can account it in
  /// the metrics registry and the packet trace.
  void noteSocketBufferDrop(const packet::Packet& p);

 private:
  /// The receive/forward chain passes the sender's box through the
  /// channel's delivery event and the kernel-forwarding event, so each
  /// event callback captures a pointer (small enough for the event
  /// queue's inline storage) instead of the full Packet; deliverLocal()
  /// is where the packet finally leaves its box.  onWirePacket() runs
  /// inside the delivery event, once the RxStage's hold has passed.
  void onWirePacket(packet::PacketBox p, sim::Time arrived_at);
  void processPacket(packet::PacketBox p);
  void deliverLocal(packet::Packet p);
  void forwardPacket(packet::PacketBox p);
  void routeAndTransmit(packet::PacketBox p);
  /// Fire the head-of-ring wire event for `link_id` and chain the next.
  void nicComplete(int link_id);
  /// The stack RNG (transmit latency draws): the shared network RNG, or
  /// (sharded queue) a per-stack fork of it so lane-side draws cannot
  /// race or reorder.
  sim::Random& rng() {
    return lane_random_ ? *lane_random_ : net_.random();
  }

  // Span plumbing for traced packets: NIC receive, kernel forwarding,
  // and NIC transmit become hop spans; every drop site closes the
  // packet's root span with a reason.  A span opens at `t` and closes
  // now.
  std::uint32_t spanOpen(const packet::Packet& p, std::int16_t layer,
                         sim::Time t);
  void spanClose(std::uint32_t span_id);
  void spanRootDrop(const packet::Packet& p, const char* reason);

  phys::PhysNode& node_;
  phys::PhysNetwork& net_;
  HostConfig config_;
  HostStats stats_;
  RoutingTable rt_;
  std::unique_ptr<UnderlayDevice> underlay_;
  std::vector<std::unique_ptr<TunDevice>> tun_devices_;
  packet::AddressSet local_addrs_;
  std::unordered_map<std::uint16_t, std::unique_ptr<UdpSocket>> udp_sockets_;
  std::unordered_map<std::uint16_t, std::function<void(packet::Packet)>> icmp_handlers_;
  std::map<std::pair<std::uint8_t, std::uint16_t>,
           std::function<void(packet::Packet)>>
      port_captures_;
  std::map<int, SliceTraffic> slice_traffic_;
  // The entry owns the connection: erasing it (unregisterTcpConnection,
  // or stack destruction) ends the connection's registered lifetime.
  // The handler is shared so delivery can pin it for the duration of a
  // call (the handler may unregister itself) without copying it.
  struct TcpDemuxEntry {
    std::shared_ptr<void> owner;
    std::shared_ptr<const std::function<void(packet::Packet)>> handler;
  };
  std::map<TcpKey, TcpDemuxEntry> tcp_connections_;
  std::unordered_map<std::uint16_t, std::function<void(packet::Packet)>> tcp_listeners_;
  std::uint16_t next_ephemeral_ = 32768;
  std::uint16_t next_icmp_ident_ = 0x4000;
  // Per-outgoing-link NIC state (one interface per link, full duplex).
  // Timing (busy_until, last_wire) is decided at enqueue — identical to
  // the old per-packet pre-scheduling — but only the ring head holds a
  // pending wire event; completion chains the next, so pending-event
  // storage is O(active links), not O(in-flight packets).
  struct NicTx {
    packet::PacketBox packet;
    phys::PhysLink* link = nullptr;
    std::uint32_t span = 0;
    sim::Time wire_at = 0;
  };
  struct NicState {
    NicState() = default;
    // std::deque's move constructor is not noexcept; without this the
    // vector below would copy the move-only ring when it grows, which
    // does not compile.
    NicState(NicState&&) noexcept = default;
    std::deque<NicTx> queue;
    sim::Time busy_until = 0;
    sim::Time last_wire = 0;
  };
  /// Indexed by PhysLink::id() (dense); grown on first use of a link.
  std::vector<NicState> nic_state_;
  sim::Time kernel_busy_until_ = 0;
  sim::Duration kernel_cpu_ = 0;
  sim::Time kernel_accounting_start_ = 0;
  std::function<void(const packet::Packet&)> rx_trace_;
  std::function<void(const packet::Packet&)> tx_trace_;
  std::function<void(const packet::Packet&)> icmp_error_handler_;
  // ICMP error rate limiter (token bucket, kernel-style).
  double icmp_error_tokens_ = 100.0;
  sim::Time icmp_error_refill_at_ = 0;
  /// Node attribution for every event this stack schedules (interned at
  /// construction; shard-readiness telemetry, passive).
  sim::NodeTag node_tag_ = sim::kNoNode;
  /// Engaged only when the queue is sharded: a construction-time fork of
  /// the network RNG, so this stack's transmit latency draws form their
  /// own stream regardless of how lanes interleave (see rng()).
  std::optional<sim::Random> lane_random_;
  // Observability handles, cached at construction (null when no obs
  // context is installed).
  std::int16_t trace_node_ = -1;
  std::int16_t span_node_ = -1;
  std::int16_t span_nic_rx_ = -1;
  std::int16_t span_kernel_fwd_ = -1;
  std::int16_t span_nic_tx_ = -1;
  obs::Counter* m_rx_packets_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_forwarded_ = nullptr;
  obs::Counter* m_dropped_no_route_ = nullptr;
  obs::Counter* m_dropped_ttl_ = nullptr;
  obs::Counter* m_dropped_no_listener_ = nullptr;
  obs::Counter* m_socket_buffer_drops_ = nullptr;
  obs::Counter* m_nic_queue_drops_ = nullptr;
};

}  // namespace vini::tcpip
