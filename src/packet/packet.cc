#include "packet/packet.h"

#include <sstream>
#include <utility>

namespace vini::packet {

InnerPacket::InnerPacket(PacketBox packet)
    : box_(std::move(packet)), ip_bytes_(box_ ? box_->ipPacketBytes() : 0) {}

InnerPacket::InnerPacket(const InnerPacket& other)
    : box_(other.box_ ? std::make_unique<Packet>(*other.box_) : nullptr),
      ip_bytes_(other.ip_bytes_) {}

InnerPacket& InnerPacket::operator=(const InnerPacket& other) {
  if (this != &other) *this = InnerPacket(other);
  return *this;
}

PacketBox InnerPacket::take() {
  ip_bytes_ = 0;
  return std::move(box_);
}

Packet Packet::udp(IpAddress src, IpAddress dst, std::uint16_t sport,
                   std::uint16_t dport, std::size_t payload_bytes) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.proto = IpProto::kUdp;
  UdpHeader u;
  u.src_port = sport;
  u.dst_port = dport;
  u.length = static_cast<std::uint16_t>(UdpHeader::kWireBytes + payload_bytes);
  p.l4 = u;
  p.payload_bytes = payload_bytes;
  return p;
}

Packet Packet::tcp(IpAddress src, IpAddress dst, const TcpHeader& header,
                   std::size_t payload_bytes) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.proto = IpProto::kTcp;
  p.l4 = header;
  p.payload_bytes = payload_bytes;
  return p;
}

Packet Packet::icmpEchoRequest(IpAddress src, IpAddress dst, std::uint16_t ident,
                               std::uint16_t seq, std::size_t payload_bytes) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.proto = IpProto::kIcmp;
  IcmpHeader h;
  h.type = IcmpHeader::kEchoRequest;
  h.ident = ident;
  h.seq = seq;
  p.l4 = h;
  p.payload_bytes = payload_bytes;
  return p;
}

Packet Packet::icmpEchoReply(const Packet& request) {
  Packet p = request;
  p.ip.src = request.ip.dst;
  p.ip.dst = request.ip.src;
  p.ip.ttl = 64;
  if (auto* icmp = p.icmpHeader()) icmp->type = IcmpHeader::kEchoReply;
  return p;
}

Packet Packet::icmpError(IpAddress reporter, std::uint8_t type,
                         std::uint8_t code, const Packet& original) {
  Packet p;
  p.ip.src = reporter;
  p.ip.dst = original.ip.src;
  p.ip.proto = IpProto::kIcmp;
  IcmpHeader h;
  h.type = type;
  h.code = code;
  p.l4 = h;
  p.payload_bytes = Ipv4Header::kWireBytes + 8;  // quoted original
  p.meta = original.meta;  // lets the prober match the error to its probe
  // The original's causal trace ended at whatever drop produced this
  // error; the error packet starts an untraced journey of its own.
  // Inheriting the trace id here would splice the error's hops into the
  // dead packet's span tree.
  p.meta.trace_id = 0;
  return p;
}

Packet Packet::encapsulateUdp(IpAddress src, IpAddress dst, std::uint16_t sport,
                              std::uint16_t dport, PacketBox inner,
                              std::size_t extra_bytes) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.proto = IpProto::kUdp;
  p.inner = InnerPacket(std::move(inner));
  p.encap_extra_bytes = extra_bytes;
  if (p.inner) p.meta = p.inner->meta;  // measurement metadata rides along
  UdpHeader u;
  u.src_port = sport;
  u.dst_port = dport;
  u.length = static_cast<std::uint16_t>(UdpHeader::kWireBytes + extra_bytes +
                                        p.inner.ipBytes());
  p.l4 = u;
  return p;
}

std::vector<std::uint8_t> Packet::serialize() const {
  std::vector<std::uint8_t> out;
  Ipv4Header h = ip;
  h.total_length = static_cast<std::uint16_t>(ipPacketBytes());
  h.serialize(out);
  std::visit(
      [&out](const auto& l4h) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(l4h)>, std::monostate>) {
          l4h.serialize(out);
        }
      },
      l4);
  out.insert(out.end(), encap_extra_bytes, 0);
  if (inner) {
    const auto nested = inner->serialize();
    out.insert(out.end(), nested.begin(), nested.end());
  } else if (app) {
    out.insert(out.end(), app->sizeBytes(), 0);
  } else {
    out.insert(out.end(), payload_bytes, 0);
  }
  return out;
}

std::optional<Packet> Packet::parse(std::span<const std::uint8_t> data) {
  auto ip = Ipv4Header::parse(data);
  if (!ip) return std::nullopt;
  if (ip->total_length > data.size()) return std::nullopt;
  Packet p;
  p.ip = *ip;
  auto rest = data.subspan(Ipv4Header::kWireBytes,
                           ip->total_length - Ipv4Header::kWireBytes);
  switch (ip->proto) {
    case IpProto::kUdp: {
      auto u = UdpHeader::parse(rest);
      if (!u) return std::nullopt;
      p.l4 = *u;
      p.payload_bytes = rest.size() - UdpHeader::kWireBytes;
      break;
    }
    case IpProto::kTcp: {
      auto t = TcpHeader::parse(rest);
      if (!t) return std::nullopt;
      p.l4 = *t;
      p.payload_bytes = rest.size() - TcpHeader::kWireBytes;
      break;
    }
    case IpProto::kIcmp: {
      auto i = IcmpHeader::parse(rest);
      if (!i) return std::nullopt;
      p.l4 = *i;
      p.payload_bytes = rest.size() - IcmpHeader::kWireBytes;
      break;
    }
    default:
      p.payload_bytes = rest.size();
      break;
  }
  return p;
}

std::string Packet::summary() const {
  std::ostringstream os;
  os << ip.src << " > " << ip.dst << " ";
  if (const auto* u = udpHeader()) {
    os << "udp " << u->src_port << ">" << u->dst_port;
  } else if (const auto* t = tcpHeader()) {
    os << "tcp " << t->src_port << ">" << t->dst_port << " " << t->flags.str()
       << " seq " << t->seq << " ack " << t->ack << " win " << t->window;
  } else if (const auto* i = icmpHeader()) {
    os << "icmp " << (i->type == IcmpHeader::kEchoRequest ? "echo-req" : "echo-rep")
       << " seq " << i->seq;
  } else {
    os << "proto " << static_cast<int>(ip.proto);
  }
  os << " " << l4PayloadBytes() << "b";
  if (inner) os << " [encap: " << inner->summary() << "]";
  return os.str();
}

}  // namespace vini::packet
