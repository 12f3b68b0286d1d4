// Unit and property tests for addresses, prefixes, checksums, headers,
// the Packet value type (including tunnel encapsulation) and the
// per-thread packet-box cache.
#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "packet/checksum.h"
#include "packet/headers.h"
#include "packet/ip_address.h"
#include "packet/packet.h"

namespace vini::packet {
namespace {

TEST(IpAddress, ParseAndFormat) {
  auto a = IpAddress::parse("10.1.2.3");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->str(), "10.1.2.3");
  EXPECT_EQ(a->value(), 0x0A010203u);
  EXPECT_EQ(IpAddress(198, 32, 154, 250).str(), "198.32.154.250");
}

TEST(IpAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("").has_value());
  EXPECT_FALSE(IpAddress::parse("10.1.2").has_value());
  EXPECT_FALSE(IpAddress::parse("10.1.2.256").has_value());
  EXPECT_FALSE(IpAddress::parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(IpAddress::parse("10.1.2.3x").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
}

TEST(IpAddress, MustParseThrows) {
  EXPECT_THROW(IpAddress::mustParse("nope"), std::invalid_argument);
  EXPECT_EQ(IpAddress::mustParse("1.2.3.4").value(), 0x01020304u);
}

TEST(AddressSet, InsertOnceEraseAndClear) {
  AddressSet set;
  const IpAddress a(10, 0, 0, 1);
  const IpAddress b(10, 0, 0, 2);
  EXPECT_FALSE(set.contains(a));
  set.insert(a);
  set.insert(b);
  set.insert(a);
  EXPECT_TRUE(set.contains(a));
  EXPECT_TRUE(set.contains(b));
  set.erase(a);  // a was held once, however often it was inserted
  EXPECT_FALSE(set.contains(a));
  EXPECT_TRUE(set.contains(b));
  set.erase(a);
  EXPECT_TRUE(set.contains(b));
  set.clear();
  EXPECT_FALSE(set.contains(b));
}

TEST(IpAddress, Ordering) {
  EXPECT_LT(IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 2));
  EXPECT_EQ(IpAddress(10, 0, 0, 1), IpAddress::mustParse("10.0.0.1"));
}

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p(IpAddress(10, 1, 2, 3), 16);
  EXPECT_EQ(p.str(), "10.1.0.0/16");
  EXPECT_EQ(p.mask(), 0xFFFF0000u);
}

TEST(Prefix, ContainsAndCovers) {
  const Prefix ten8 = Prefix::mustParse("10.0.0.0/8");
  EXPECT_TRUE(ten8.contains(IpAddress(10, 255, 1, 2)));
  EXPECT_FALSE(ten8.contains(IpAddress(11, 0, 0, 1)));
  EXPECT_TRUE(ten8.covers(Prefix::mustParse("10.1.0.0/16")));
  EXPECT_FALSE(Prefix::mustParse("10.1.0.0/16").covers(ten8));
  EXPECT_TRUE(ten8.covers(ten8));
}

TEST(Prefix, DefaultRouteContainsEverything) {
  const Prefix def = Prefix::defaultRoute();
  EXPECT_EQ(def.length(), 0);
  EXPECT_TRUE(def.contains(IpAddress(1, 2, 3, 4)));
  EXPECT_TRUE(def.contains(IpAddress(255, 255, 255, 255)));
}

TEST(Prefix, Slash32ContainsOnlyItself) {
  const Prefix host = Prefix::mustParse("10.1.1.1/32");
  EXPECT_TRUE(host.contains(IpAddress(10, 1, 1, 1)));
  EXPECT_FALSE(host.contains(IpAddress(10, 1, 1, 2)));
}

TEST(Prefix, HostAt) {
  const Prefix p = Prefix::mustParse("10.1.224.0/30");
  EXPECT_EQ(p.hostAt(1).str(), "10.1.224.1");
  EXPECT_EQ(p.hostAt(2).str(), "10.1.224.2");
}

TEST(Prefix, ParseRejectsMalformed) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(Prefix::parse("bogus/8").has_value());
}

TEST(Checksum, Rfc1071Examples) {
  // Classic example: checksum of 00 01 f2 03 f4 f5 f6 f7.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(onesComplementSum(data), 0xddf2);
  EXPECT_EQ(internetChecksum(data), static_cast<std::uint16_t>(~0xddf2));
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0x01, 0x02, 0x03};
  // Words: 0x0102, 0x0300.
  EXPECT_EQ(onesComplementSum(data), 0x0402);
}

TEST(Checksum, IncrementalUpdateMatchesRecompute) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(20);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    data[10] = data[11] = 0;
    const std::uint16_t csum = internetChecksum(data);
    // Change the 16-bit word at offset 4.
    const std::uint16_t old_word =
        static_cast<std::uint16_t>((data[4] << 8) | data[5]);
    const std::uint16_t new_word = static_cast<std::uint16_t>(rng());
    data[4] = static_cast<std::uint8_t>(new_word >> 8);
    data[5] = static_cast<std::uint8_t>(new_word & 0xff);
    const std::uint16_t direct = internetChecksum(data);
    const std::uint16_t incremental =
        incrementalChecksumUpdate(csum, old_word, new_word);
    EXPECT_EQ(incremental, direct);
  }
}

TEST(Checksum, Incremental32MatchesRecompute) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(20);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const std::uint16_t csum = internetChecksum(data);
    const std::uint32_t old_val =
        (std::uint32_t{data[12]} << 24) | (std::uint32_t{data[13]} << 16) |
        (std::uint32_t{data[14]} << 8) | data[15];
    const std::uint32_t new_val = rng();
    data[12] = static_cast<std::uint8_t>(new_val >> 24);
    data[13] = static_cast<std::uint8_t>(new_val >> 16);
    data[14] = static_cast<std::uint8_t>(new_val >> 8);
    data[15] = static_cast<std::uint8_t>(new_val);
    EXPECT_EQ(incrementalChecksumUpdate32(csum, old_val, new_val),
              internetChecksum(data));
  }
}

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.src = IpAddress(10, 1, 2, 3);
  h.dst = IpAddress(192, 168, 0, 1);
  h.proto = IpProto::kTcp;
  h.ttl = 17;
  h.tos = 0x10;
  h.id = 0xBEEF;
  h.total_length = 1500;
  std::vector<std::uint8_t> wire;
  h.serialize(wire);
  ASSERT_EQ(wire.size(), Ipv4Header::kWireBytes);
  auto parsed = Ipv4Header::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->proto, h.proto);
  EXPECT_EQ(parsed->ttl, h.ttl);
  EXPECT_EQ(parsed->tos, h.tos);
  EXPECT_EQ(parsed->id, h.id);
  EXPECT_EQ(parsed->total_length, h.total_length);
}

TEST(Ipv4Header, ParseRejectsCorruption) {
  Ipv4Header h;
  h.src = IpAddress(1, 2, 3, 4);
  h.dst = IpAddress(5, 6, 7, 8);
  std::vector<std::uint8_t> wire;
  h.serialize(wire);
  wire[8] ^= 0xFF;  // corrupt the TTL: checksum must fail
  EXPECT_FALSE(Ipv4Header::parse(wire).has_value());
  EXPECT_FALSE(Ipv4Header::parse(std::span(wire).subspan(0, 10)).has_value());
}

TEST(TcpFlags, ByteRoundTrip) {
  for (int b = 0; b < 32; ++b) {
    TcpFlags f = TcpFlags::fromByte(static_cast<std::uint8_t>(b));
    EXPECT_EQ(f.toByte(), b);
  }
}

TEST(TcpHeader, SerializeParseRoundTrip) {
  TcpHeader h;
  h.src_port = 5001;
  h.dst_port = 80;
  h.seq = 0xDEADBEEF;
  h.ack = 0x12345678;
  h.flags.syn = true;
  h.flags.ack = true;
  h.window = 16384;
  std::vector<std::uint8_t> wire;
  h.serialize(wire);
  ASSERT_EQ(wire.size(), TcpHeader::kWireBytes);
  auto parsed = TcpHeader::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seq, h.seq);
  EXPECT_EQ(parsed->ack, h.ack);
  EXPECT_EQ(parsed->flags, h.flags);
  EXPECT_EQ(parsed->window, h.window);
}

TEST(IcmpHeader, SerializeParseRoundTripAndChecksum) {
  IcmpHeader h;
  h.type = IcmpHeader::kEchoRequest;
  h.ident = 77;
  h.seq = 12;
  std::vector<std::uint8_t> wire;
  h.serialize(wire);
  auto parsed = IcmpHeader::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ident, 77);
  EXPECT_EQ(parsed->seq, 12);
  wire[4] ^= 0x01;
  EXPECT_FALSE(IcmpHeader::parse(wire).has_value());
}

TEST(Packet, UdpSizes) {
  const Packet p = Packet::udp(IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 2),
                               4000, 5000, 1430);
  EXPECT_EQ(p.l4HeaderBytes(), 8u);
  EXPECT_EQ(p.l4PayloadBytes(), 1430u);
  EXPECT_EQ(p.ipPacketBytes(), 20u + 8u + 1430u);
  EXPECT_EQ(p.wireBytes(), p.ipPacketBytes() + kEthernetOverheadOnWire);
  EXPECT_EQ(p.udpHeader()->length, 8u + 1430u);
}

TEST(Packet, EncapsulationAccountsInnerSize) {
  auto inner = std::make_unique<Packet>(
      Packet::udp(IpAddress(10, 1, 0, 2), IpAddress(10, 1, 1, 2), 1, 2, 100));
  const std::size_t inner_bytes = inner->ipPacketBytes();
  const Packet outer = Packet::encapsulateUdp(
      IpAddress(198, 32, 154, 10), IpAddress(198, 32, 154, 11), 33001, 33001,
      std::move(inner));
  EXPECT_EQ(outer.inner.ipBytes(), inner_bytes);
  EXPECT_EQ(outer.l4PayloadBytes(), inner_bytes);
  EXPECT_EQ(outer.ipPacketBytes(), 28u + 128u);
}

TEST(Packet, NestedEncapsulationAddsEachLayer) {
  auto inner = std::make_unique<Packet>(
      Packet::udp(IpAddress(10, 1, 0, 2), IpAddress(10, 1, 1, 2), 1, 2, 100));
  auto mid = std::make_unique<Packet>(Packet::encapsulateUdp(
      IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2), 10, 11, std::move(inner),
      OpenVpnHeader::kWireBytes));
  const Packet outer = Packet::encapsulateUdp(
      IpAddress(3, 3, 3, 3), IpAddress(4, 4, 4, 4), 20, 21, std::move(mid));
  EXPECT_EQ(outer.ipPacketBytes(),
            28u + (28u + OpenVpnHeader::kWireBytes + (28u + 100u)));
}

/// A three-deep tunnel chain: a TCP segment inside an OpenVPN-framed UDP
/// tunnel inside a plain UDP tunnel.
Packet threeLevelTunnel() {
  TcpHeader h;
  h.src_port = 5001;
  h.dst_port = 40000;
  auto tcp = std::make_unique<Packet>(
      Packet::tcp(IpAddress(10, 1, 0, 2), IpAddress(10, 1, 1, 2), h, 1448));
  auto vpn = std::make_unique<Packet>(Packet::encapsulateUdp(
      IpAddress(10, 2, 0, 1), IpAddress(10, 2, 0, 2), 1194, 1194,
      std::move(tcp), OpenVpnHeader::kWireBytes));
  return Packet::encapsulateUdp(IpAddress(198, 32, 154, 10),
                                IpAddress(198, 32, 154, 11), 33001, 33001,
                                std::move(vpn));
}

TEST(Packet, TunnelSizesMatchTheWireAtEveryLevel) {
  const Packet outer = threeLevelTunnel();
  int levels = 0;
  for (const Packet* p = &outer; p != nullptr; p = p->inner.get(), ++levels) {
    SCOPED_TRACE(levels);
    EXPECT_EQ(p->ipPacketBytes(), p->serialize().size());
    if (const UdpHeader* udp = p->udpHeader()) {
      EXPECT_EQ(udp->length, p->ipPacketBytes() - Ipv4Header::kWireBytes);
    }
    if (p->inner) {
      EXPECT_EQ(p->inner.ipBytes(), p->inner->serialize().size());
    }
  }
  EXPECT_EQ(levels, 3);
}

TEST(Packet, CopiedTunnelPacketIsIndependent) {
  Packet original = threeLevelTunnel();
  const Packet copy = original;
  ASSERT_TRUE(copy.inner);
  EXPECT_NE(copy.inner.get(), original.inner.get());
  EXPECT_NE(copy.inner->inner.get(), original.inner->inner.get());
  EXPECT_EQ(copy.serialize(), original.serialize());
  EXPECT_EQ(copy.summary(), original.summary());

  // Decapsulating (and then changing) the original leaves the copy whole.
  const std::size_t bytes = copy.ipPacketBytes();
  PacketBox vpn = original.inner.take();
  PacketBox tcp = vpn->inner.take();
  tcp->payload_bytes = 1;
  EXPECT_FALSE(original.inner);
  EXPECT_EQ(original.inner.ipBytes(), 0u);
  EXPECT_EQ(copy.ipPacketBytes(), bytes);
  EXPECT_EQ(copy.inner->inner->payload_bytes, 1448u);

  // Copy assignment replaces the chain with a deep copy too.
  Packet assigned = Packet::udp(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2),
                                1, 2, 10);
  assigned = copy;
  EXPECT_NE(assigned.inner.get(), copy.inner.get());
  EXPECT_EQ(assigned.serialize(), copy.serialize());
}

TEST(Packet, DecapsulationHandsBackTheSameBox) {
  auto inner = std::make_unique<Packet>(
      Packet::udp(IpAddress(10, 1, 0, 2), IpAddress(10, 1, 1, 2), 1, 2, 100));
  const Packet* const address = inner.get();
  Packet outer = Packet::encapsulateUdp(IpAddress(1, 1, 1, 1),
                                        IpAddress(2, 2, 2, 2), 10, 11,
                                        std::move(inner));
  EXPECT_EQ(outer.inner.get(), address);
  // Moving the tunnel packet (socket buffers, wire boxes) moves the box.
  Packet moved = std::move(outer);
  EXPECT_EQ(moved.inner.get(), address);
  const PacketBox back = moved.inner.take();
  EXPECT_EQ(back.get(), address);
  EXPECT_FALSE(moved.inner);
  EXPECT_EQ(back->payload_bytes, 100u);
}

TEST(Packet, MetaRidesAlongEncapsulation) {
  Packet inner = Packet::udp(IpAddress(10, 1, 0, 2), IpAddress(10, 1, 1, 2), 1,
                             2, 100);
  inner.meta.app_seq = 42;
  inner.meta.app_send_time = 7;
  const Packet outer = Packet::encapsulateUdp(
      IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2), 10, 11,
      std::make_unique<Packet>(std::move(inner)));
  EXPECT_EQ(outer.meta.app_seq, 42u);
  EXPECT_EQ(outer.meta.app_send_time, 7);
}

TEST(Packet, IcmpEchoReplySwapsAddresses) {
  const Packet request = Packet::icmpEchoRequest(
      IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 2), 7, 3, 56);
  const Packet reply = Packet::icmpEchoReply(request);
  EXPECT_EQ(reply.ip.src, request.ip.dst);
  EXPECT_EQ(reply.ip.dst, request.ip.src);
  EXPECT_EQ(reply.icmpHeader()->type, IcmpHeader::kEchoReply);
  EXPECT_EQ(reply.icmpHeader()->seq, 3);
  EXPECT_EQ(reply.payload_bytes, 56u);
}

TEST(Packet, IcmpErrorInheritsMetaButNotTraceId) {
  // Measurement metadata must ride along so traceroute can correlate
  // the error with its probe, but the causal trace id must not: the
  // error is a new packet, and icmpError itself guarantees that — call
  // sites are no longer expected to clear it.
  Packet original =
      Packet::udp(IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 9), 33434, 33434, 32);
  original.meta.flow_id = 5;
  original.meta.app_seq = 12;
  original.meta.app_send_time = 99;
  original.meta.trace_id = 0xdeadbeef;
  const Packet error =
      Packet::icmpError(IpAddress(10, 0, 0, 3), 11, 0, original);
  EXPECT_EQ(error.meta.flow_id, 5u);
  EXPECT_EQ(error.meta.app_seq, 12u);
  EXPECT_EQ(error.meta.app_send_time, 99);
  EXPECT_EQ(error.meta.trace_id, 0u);
  EXPECT_EQ(error.ip.src, IpAddress(10, 0, 0, 3));
  EXPECT_EQ(error.ip.dst, original.ip.src);
}

TEST(Packet, SerializeParseRoundTripUdp) {
  Packet p = Packet::udp(IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 2), 1000,
                         2000, 64);
  const auto wire = p.serialize();
  EXPECT_EQ(wire.size(), p.ipPacketBytes());
  auto parsed = Packet::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip.src, p.ip.src);
  EXPECT_EQ(parsed->udpHeader()->dst_port, 2000);
  EXPECT_EQ(parsed->payload_bytes, 64u);
}

TEST(Packet, SerializeParseRoundTripTcpRandomized) {
  std::mt19937 rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    TcpHeader h;
    h.src_port = static_cast<std::uint16_t>(rng());
    h.dst_port = static_cast<std::uint16_t>(rng());
    h.seq = rng();
    h.ack = rng();
    h.window = static_cast<std::uint16_t>(rng());
    h.flags = TcpFlags::fromByte(static_cast<std::uint8_t>(rng() & 0x1f));
    Packet p = Packet::tcp(IpAddress(rng()), IpAddress(rng()), h,
                           rng() % 1400);
    auto parsed = Packet::parse(p.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->tcpHeader()->seq, h.seq);
    EXPECT_EQ(parsed->tcpHeader()->ack, h.ack);
    EXPECT_EQ(parsed->tcpHeader()->flags, h.flags);
    EXPECT_EQ(parsed->payload_bytes, p.payload_bytes);
    EXPECT_EQ(parsed->ip.src, p.ip.src);
    EXPECT_EQ(parsed->ip.dst, p.ip.dst);
  }
}

TEST(Packet, SerializedTunnelParsesToOuter) {
  const Packet outer = Packet::encapsulateUdp(
      IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2), 10, 11,
      std::make_unique<Packet>(Packet::udp(IpAddress(10, 1, 0, 2),
                                           IpAddress(10, 1, 1, 2), 1, 2, 100)));
  const Packet* inner = outer.inner.get();
  auto parsed = Packet::parse(outer.serialize());
  ASSERT_TRUE(parsed.has_value());
  // The outer parses as a UDP datagram whose payload is the inner packet.
  EXPECT_EQ(parsed->payload_bytes, inner->ipPacketBytes());
  // And the payload itself parses as the inner packet.
  const auto wire = outer.serialize();
  auto inner_parsed = Packet::parse(
      std::span(wire).subspan(Ipv4Header::kWireBytes + UdpHeader::kWireBytes));
  ASSERT_TRUE(inner_parsed.has_value());
  EXPECT_EQ(inner_parsed->ip.dst, inner->ip.dst);
}

TEST(Packet, SummaryMentionsProtocolAndPorts) {
  const Packet p = Packet::udp(IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 2),
                               1000, 2000, 64);
  const std::string s = p.summary();
  EXPECT_NE(s.find("udp"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.1"), std::string::npos);
  EXPECT_NE(s.find("1000>2000"), std::string::npos);
}

struct SizeCase {
  std::size_t payload;
};

class PacketSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PacketSizeSweep, WireSizeIsMonotonicInPayload) {
  const std::size_t payload = GetParam();
  const Packet p = Packet::udp(IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 2),
                               1, 2, payload);
  EXPECT_EQ(p.ipPacketBytes(), 28u + payload);
  EXPECT_EQ(p.serialize().size(), p.ipPacketBytes());
}

INSTANTIATE_TEST_SUITE_P(Payloads, PacketSizeSweep,
                         ::testing::Values(0, 1, 56, 512, 1430, 1472));

TEST(PacketFuzz, RandomBytesNeverCrashTheParser) {
  // Parsers face bytes from the wire; arbitrary garbage must be rejected
  // gracefully, never read out of bounds.
  std::mt19937 rng(20060911);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> data(rng() % 128);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    (void)Packet::parse(data);
    (void)Ipv4Header::parse(data);
    (void)UdpHeader::parse(data);
    (void)TcpHeader::parse(data);
    (void)IcmpHeader::parse(data);
    (void)OpenVpnHeader::parse(data);
  }
  SUCCEED();
}

TEST(PacketFuzz, BitFlippedValidPacketsParseOrFailCleanly) {
  // Take a valid serialized packet, flip one bit anywhere, and parse:
  // either it fails (checksum) or it parses — but never crashes, and an
  // IP-header flip must be caught by the checksum.
  std::mt19937 rng(7);
  const Packet original = Packet::udp(IpAddress(10, 1, 0, 2),
                                      IpAddress(10, 1, 1, 2), 1000, 2000, 64);
  const auto wire = original.serialize();
  int header_flips_caught = 0;
  int header_flips = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = wire;
    const std::size_t bit = rng() % (mutated.size() * 8);
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto parsed = Packet::parse(mutated);
    if (bit / 8 < Ipv4Header::kWireBytes) {
      ++header_flips;
      if (!parsed.has_value()) ++header_flips_caught;
    }
  }
  ASSERT_GT(header_flips, 100);
  // The Internet checksum catches every single-bit header error.
  EXPECT_EQ(header_flips_caught, header_flips);
}

// ---------------------------------------------------------------------------
// The per-thread packet-box cache

PacketBox udpBox() {
  return std::make_unique<Packet>(
      Packet::udp(IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 2), 1, 2, 100));
}

std::uintptr_t addressOf(const Packet* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

TEST(PacketBoxCache, NeverHoldsMoreThanItsCapacity) {
  trimPacketCache();
  std::vector<PacketBox> boxes;
  for (std::size_t i = 0; i < kPacketCacheCapacity + 100; ++i) {
    boxes.push_back(udpBox());
  }
  EXPECT_EQ(packetCacheSize(), 0u);
  boxes.clear();  // the last 100 frees go back to the heap
  EXPECT_EQ(packetCacheSize(), kPacketCacheCapacity);
  trimPacketCache();
  EXPECT_EQ(packetCacheSize(), 0u);
}

TEST(PacketBoxCache, ReusesTheLastFreedBlockFirst) {
  trimPacketCache();
  PacketBox a = udpBox();
  PacketBox b = udpBox();
  const std::uintptr_t block_a = addressOf(a.get());
  const std::uintptr_t block_b = addressOf(b.get());
  a.reset();
  b.reset();
  EXPECT_EQ(packetCacheSize(), 2u);
  PacketBox c = udpBox();
  PacketBox d = udpBox();
  EXPECT_EQ(addressOf(c.get()), block_b);
  EXPECT_EQ(addressOf(d.get()), block_a);
  EXPECT_EQ(packetCacheSize(), 0u);
}

TEST(PacketBoxCache, ABoxFreedOnAnotherThreadIsCachedThereUntilItExits) {
  // The freeing thread keeps the block and returns it to the heap when
  // it exits (a leak there fails the ASan build's leak check, and the
  // counting build's PacketBoxCache.ThreadExitReturnsItsBlocksToTheHeap).
  trimPacketCache();
  PacketBox box = udpBox();
  std::size_t cached_there = 0;
  std::thread([&] {
    box.reset();
    cached_there = packetCacheSize();
  }).join();
  EXPECT_EQ(cached_there, 1u);
  EXPECT_EQ(packetCacheSize(), 0u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PacketBoxCache, CachedBlocksArePoisoned) {
  trimPacketCache();
  PacketBox box = udpBox();
  const Packet* block = box.get();
  EXPECT_FALSE(__asan_address_is_poisoned(block));
  box.reset();
  ASSERT_EQ(packetCacheSize(), 1u);
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  box = udpBox();  // the same block, handed out again
  EXPECT_EQ(box.get(), block);
  EXPECT_FALSE(__asan_address_is_poisoned(block));
}

TEST(PacketBoxCacheDeathTest, UseOfARecycledBoxIsReported) {
  EXPECT_DEATH(
      {
        PacketBox box = udpBox();
        const Packet* freed = box.get();
        box.reset();
        volatile std::uint8_t ttl = freed->ip.ttl;
        (void)ttl;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace vini::packet
