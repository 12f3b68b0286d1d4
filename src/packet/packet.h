// The Packet value type.
//
// A Packet is an IPv4 packet with one optional transport header and either
// an opaque payload length, a structured application payload (used by the
// control-plane protocols riding inside the overlay), or a nested inner
// packet (tunnel encapsulation: the overlay's UDP tunnels and the OpenVPN
// ingress wrap whole IP packets as UDP payload, exactly as in Figure 2 of
// the paper).  A tunnelled packet is owned by the packet that carries it:
// encapsulation moves it in, decapsulation moves the same box out, and it
// is read-only in between (InnerPacket).  Copying an untunnelled packet is
// cheap; copying a tunnel packet deep-copies the chain.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "packet/headers.h"
#include "packet/ip_address.h"
#include "sim/time.h"

namespace vini::packet {

/// Base for structured in-simulation payloads (routing protocol messages).
/// sizeBytes() must report the message's honest wire size so that links
/// and CPU models charge control traffic correctly.
struct AppPayload {
  virtual ~AppPayload() = default;
  virtual std::size_t sizeBytes() const = 0;
  virtual std::string describe() const { return "payload"; }
};

/// Measurement metadata carried alongside a packet (not on the wire).
struct PacketMeta {
  sim::Time app_send_time = -1;  ///< stamped by traffic sources for RTT/jitter
  std::uint64_t flow_id = 0;     ///< traffic source identifier
  std::uint64_t app_seq = 0;     ///< per-flow sequence number (loss detection)
  int slice_id = -1;             ///< owning slice, for VNET-style accounting
  /// Causal-tracing id assigned at ingress when an obs context is
  /// installed; 0 = untraced.  Only the obs span tracker ever reads it,
  /// so carrying it cannot perturb the simulation.
  std::uint64_t trace_id = 0;

  // Click-style annotations: set and consumed inside a router graph
  // (LookupIPRoute -> EncapTable -> ToSocket); never on the wire.
  IpAddress next_hop;            ///< chosen by the FIB lookup
  IpAddress encap_dst;           ///< tunnel endpoint (underlay address)
  std::uint16_t encap_port = 0;  ///< tunnel UDP port
};

class Packet;
/// The one owned box a packet rides in from the sending kernel across
/// every wire hop to the receiving kernel (DESIGN.md §13).
using PacketBox = std::unique_ptr<Packet>;

/// The tunnelled packet inside an encapsulating one.  It owns its box:
/// Packet::encapsulateUdp() moves a box in and take() hands the same box
/// back at decapsulation, so a tunnel hop copies no packet.  While inside,
/// the packet is read-only and its IP size is stored, so the outer
/// packet's size never walks the tunnel chain and cannot go stale.
/// Copying deep-copies the packet.
class InnerPacket {
 public:
  InnerPacket() = default;
  explicit InnerPacket(PacketBox packet);
  InnerPacket(const InnerPacket& other);
  InnerPacket& operator=(const InnerPacket& other);
  InnerPacket(InnerPacket&& other) noexcept;
  InnerPacket& operator=(InnerPacket&& other) noexcept;
  ~InnerPacket();

  explicit operator bool() const { return box_ != nullptr; }
  const Packet* get() const { return box_.get(); }
  const Packet* operator->() const { return box_.get(); }

  /// IP size of the held packet; 0 when empty.
  std::size_t ipBytes() const { return ip_bytes_; }

  /// Decapsulate: hand the box back and leave this empty.
  PacketBox take();

 private:
  PacketBox box_;
  std::size_t ip_bytes_ = 0;
};

class Packet {
 public:
  using L4 = std::variant<std::monostate, UdpHeader, TcpHeader, IcmpHeader>;

  Ipv4Header ip;
  L4 l4;
  /// Opaque payload size; ignored when `inner` or `app` is set.
  std::size_t payload_bytes = 0;
  /// Structured payload (routing messages); contributes sizeBytes().
  std::shared_ptr<const AppPayload> app;
  /// Encapsulated packet (tunnelling); contributes its stored IP size.
  InnerPacket inner;
  /// Extra encapsulation bytes between L4 and inner (e.g. OpenVPN header).
  std::size_t encap_extra_bytes = 0;
  PacketMeta meta;

  // -- Constructors for the common shapes ---------------------------------

  static Packet udp(IpAddress src, IpAddress dst, std::uint16_t sport,
                    std::uint16_t dport, std::size_t payload_bytes);
  static Packet tcp(IpAddress src, IpAddress dst, const TcpHeader& header,
                    std::size_t payload_bytes);
  static Packet icmpEchoRequest(IpAddress src, IpAddress dst, std::uint16_t ident,
                                std::uint16_t seq, std::size_t payload_bytes);
  static Packet icmpEchoReply(const Packet& request);

  /// ICMP error (time exceeded, destination unreachable) about
  /// `original`, sourced from `reporter`.  Carries the original packet's
  /// measurement metadata so probes (traceroute) can be correlated, and
  /// the conventional "IP header + 8 bytes" of quoted payload.  The
  /// causal trace id is NOT inherited — the error is a new, untraced
  /// packet; call sites must not rely on clearing it themselves.
  static Packet icmpError(IpAddress reporter, std::uint8_t type,
                          std::uint8_t code, const Packet& original);

  /// Wrap `inner` in a UDP tunnel packet between two underlay endpoints;
  /// the box moves into the tunnel packet (`inner.take()` returns it).
  static Packet encapsulateUdp(IpAddress src, IpAddress dst, std::uint16_t sport,
                               std::uint16_t dport, PacketBox inner,
                               std::size_t extra_bytes = 0);

  // -- Accessors -----------------------------------------------------------

  bool isUdp() const { return std::holds_alternative<UdpHeader>(l4); }
  bool isTcp() const { return std::holds_alternative<TcpHeader>(l4); }
  bool isIcmp() const { return std::holds_alternative<IcmpHeader>(l4); }

  const UdpHeader* udpHeader() const { return std::get_if<UdpHeader>(&l4); }
  const TcpHeader* tcpHeader() const { return std::get_if<TcpHeader>(&l4); }
  const IcmpHeader* icmpHeader() const { return std::get_if<IcmpHeader>(&l4); }
  UdpHeader* udpHeader() { return std::get_if<UdpHeader>(&l4); }
  TcpHeader* tcpHeader() { return std::get_if<TcpHeader>(&l4); }
  IcmpHeader* icmpHeader() { return std::get_if<IcmpHeader>(&l4); }

  /// Size of the transport header, if any.
  std::size_t l4HeaderBytes() const {
    // Indexed by L4's alternative: none, UDP, TCP, ICMP.
    static constexpr std::size_t kBytes[] = {
        0, UdpHeader::kWireBytes, TcpHeader::kWireBytes, IcmpHeader::kWireBytes};
    static_assert(std::variant_size_v<L4> == std::size(kBytes));
    return kBytes[l4.index()];
  }

  /// Payload size as seen by L4 (inner packet size, app size, or raw
  /// bytes).  O(1): a tunnelled packet's size is stored in `inner`.
  std::size_t l4PayloadBytes() const {
    if (inner) return encap_extra_bytes + inner.ipBytes();
    if (app) return encap_extra_bytes + app->sizeBytes();
    return encap_extra_bytes + payload_bytes;
  }

  /// Total IP packet size: IP header + L4 header + payload.
  std::size_t ipPacketBytes() const {
    return Ipv4Header::kWireBytes + l4HeaderBytes() + l4PayloadBytes();
  }

  /// Bytes occupied on an Ethernet wire (adds framing, preamble, gap).
  /// This is what links use to compute serialization time.
  std::size_t wireBytes() const {
    return ipPacketBytes() + kEthernetOverheadOnWire;
  }

  /// Serialize the full packet (recursively for tunnels) to wire bytes.
  /// The structured `app` payload serializes as zero padding of its size.
  std::vector<std::uint8_t> serialize() const;

  /// Parse a packet previously produced by serialize().  Structured
  /// payloads do not round-trip (they come back as opaque bytes).
  static std::optional<Packet> parse(std::span<const std::uint8_t> data);

  /// One-line human-readable summary ("10.1.1.2 > 10.1.2.3 udp 1430b").
  std::string summary() const;

  // -- Allocation ------------------------------------------------------------

  /// Packet boxes recycle through a per-thread cache of freed blocks
  /// (packet_cache.cc, DESIGN.md §13), so a forwarding hop that frees
  /// one box and allocates the next calls neither malloc nor free.
  static void* operator new(std::size_t size);
  static void operator delete(void* block, std::size_t size) noexcept;
};

/// Most freed packet blocks one thread keeps; a block freed past it goes
/// back to the global heap.  512 blocks is about 80 KiB per thread.
inline constexpr std::size_t kPacketCacheCapacity = 512;

/// Blocks the calling thread's packet cache holds right now.
std::size_t packetCacheSize();

/// Return every block the calling thread's packet cache holds to the
/// global heap.  A thread's cache is trimmed when the thread exits; call
/// this before counting live heap allocations, so cached blocks cannot
/// hide a leaked box.
void trimPacketCache();

// InnerPacket's moves and destructor run on every Packet move and
// destruction, tunnelled or not; defined here, where Packet is complete,
// so they inline.
inline InnerPacket::InnerPacket(InnerPacket&& other) noexcept
    : box_(std::move(other.box_)), ip_bytes_(std::exchange(other.ip_bytes_, 0)) {}

inline InnerPacket& InnerPacket::operator=(InnerPacket&& other) noexcept {
  box_ = std::move(other.box_);
  ip_bytes_ = std::exchange(other.ip_bytes_, 0);
  return *this;
}

inline InnerPacket::~InnerPacket() = default;

}  // namespace vini::packet
