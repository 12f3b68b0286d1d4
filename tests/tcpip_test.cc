// Host stack tests: routing table LPM, UDP sockets (immediate and
// buffered), ICMP echo, kernel forwarding, TUN devices, port capture.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "phys/network.h"
#include "tcpip/host_stack.h"
#include "tcpip/stack_manager.h"

namespace vini::tcpip {
namespace {

using packet::IpAddress;
using packet::Packet;
using packet::Prefix;
using sim::kMillisecond;
using sim::kSecond;

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable rt;
  Route def{Prefix::defaultRoute(), reinterpret_cast<Device*>(1), {}, 100};
  Route ten{Prefix::mustParse("10.0.0.0/8"), reinterpret_cast<Device*>(2), {}, 0};
  Route ten1{Prefix::mustParse("10.1.0.0/16"), reinterpret_cast<Device*>(3), {}, 0};
  rt.addRoute(def);
  rt.addRoute(ten);
  rt.addRoute(ten1);
  EXPECT_EQ(rt.lookup(IpAddress(10, 1, 2, 3))->device,
            reinterpret_cast<Device*>(3));
  EXPECT_EQ(rt.lookup(IpAddress(10, 2, 2, 3))->device,
            reinterpret_cast<Device*>(2));
  EXPECT_EQ(rt.lookup(IpAddress(8, 8, 8, 8))->device,
            reinterpret_cast<Device*>(1));
}

TEST(RoutingTable, SamePrefixLowerMetricWins) {
  RoutingTable rt;
  rt.addRoute({Prefix::defaultRoute(), reinterpret_cast<Device*>(1), {}, 100});
  rt.addRoute({Prefix::defaultRoute(), reinterpret_cast<Device*>(2), {}, 5});
  EXPECT_EQ(rt.lookup(IpAddress(1, 2, 3, 4))->device,
            reinterpret_cast<Device*>(2));
}

TEST(RoutingTable, ReplaceAndRemove) {
  RoutingTable rt;
  const Prefix p = Prefix::mustParse("10.0.0.0/8");
  rt.addRoute({p, reinterpret_cast<Device*>(1), {}, 0});
  rt.addRoute({p, reinterpret_cast<Device*>(2), {}, 0});  // replaces
  EXPECT_EQ(rt.routes().size(), 1u);
  EXPECT_EQ(rt.lookup(IpAddress(10, 0, 0, 1))->device,
            reinterpret_cast<Device*>(2));
  EXPECT_TRUE(rt.removeRoute(p));
  EXPECT_FALSE(rt.removeRoute(p));
  EXPECT_EQ(rt.lookup(IpAddress(10, 0, 0, 1)), nullptr);
}

struct Chain {
  // a - b - c on Gig-E; stacks on each.
  sim::EventQueue queue;
  phys::PhysNetwork net{queue};
  StackManager stacks{net};
  HostStack *sa, *sb, *sc;

  Chain() {
    auto& a = net.addNode("a", IpAddress(1, 0, 0, 1));
    auto& b = net.addNode("b", IpAddress(1, 0, 0, 2));
    auto& c = net.addNode("c", IpAddress(1, 0, 0, 3));
    net.addLink(a, b);
    net.addLink(b, c);
    sa = &stacks.ensure(a);
    sb = &stacks.ensure(b);
    sc = &stacks.ensure(c);
  }
};

TEST(HostStack, UdpEndToEndThroughForwarder) {
  Chain world;
  int received = 0;
  std::size_t payload_seen = 0;
  world.sc->openUdp(7777).setReceiveHandler([&](Packet p) {
    ++received;
    payload_seen = p.payload_bytes;
  });
  world.sa->openUdp(1000).sendTo(world.sc->address(), 7777, 333);
  world.queue.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(payload_seen, 333u);
  EXPECT_EQ(world.sb->stats().forwarded, 1u);
}

TEST(HostStack, UnknownUdpPortCountsDrop) {
  Chain world;
  world.sa->openUdp(1000).sendTo(world.sc->address(), 9999, 10);
  world.queue.run();
  EXPECT_EQ(world.sc->stats().dropped_no_listener, 1u);
}

TEST(HostStack, IcmpEchoRepliesWithRtt) {
  Chain world;
  sim::Duration rtt = -1;
  world.sa->setIcmpReplyHandler(42, [&](Packet p) {
    rtt = world.queue.now() - p.meta.app_send_time;
  });
  packet::PacketMeta meta;
  meta.app_send_time = world.queue.now();
  world.sa->sendIcmpEcho(world.sc->address(), 42, 1, 56, meta);
  world.queue.run();
  ASSERT_GT(rtt, 0);
  // Four NIC traversals each way plus kernel forwarding: sub-millisecond.
  EXPECT_LT(rtt, 2 * kMillisecond);
}

TEST(HostStack, TtlExpiryDropsForwardedPackets) {
  Chain world;
  int received = 0;
  world.sc->openUdp(7777).setReceiveHandler([&](Packet) { ++received; });
  Packet p = Packet::udp(world.sa->address(), world.sc->address(), 1, 7777, 10);
  p.ip.ttl = 1;  // dies at the forwarder
  world.sa->sendPacket(std::move(p));
  world.queue.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(world.sb->stats().dropped_ttl, 1u);
}

TEST(HostStack, ForwardingDisabledDropsTransit) {
  HostConfig no_forward;
  no_forward.ip_forward = false;
  // A fresh 3-node net where b's kernel has ip_forward = 0.
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  auto& a = net.addNode("a", IpAddress(1, 0, 0, 1));
  auto& b = net.addNode("b", IpAddress(1, 0, 0, 2));
  auto& c = net.addNode("c", IpAddress(1, 0, 0, 3));
  net.addLink(a, b);
  net.addLink(b, c);
  StackManager stacks(net);
  stacks.setConfigFor("b", no_forward);
  HostStack& sa = stacks.ensure(a);
  HostStack& sb = stacks.ensure(b);
  HostStack& sc = stacks.ensure(c);
  int received = 0;
  sc.openUdp(7777).setReceiveHandler([&](Packet) { ++received; });
  sa.openUdp(1).sendTo(sc.address(), 7777, 10);
  queue.run();
  EXPECT_EQ(received, 0);
  EXPECT_GT(sb.stats().dropped_no_route, 0u);
}

TEST(HostStack, BufferedSocketQueuesAndOverflows) {
  Chain world;
  UdpSocket& sock = world.sc->openUdp(5000);
  sock.setBuffered(1000);  // small buffer
  int notifications = 0;
  sock.setNotify([&](const Packet&) { ++notifications; });
  auto& sender = world.sa->openUdp(1);
  for (int i = 0; i < 20; ++i) sender.sendTo(world.sc->address(), 5000, 100);
  world.queue.run();
  EXPECT_GT(sock.bufferDrops(), 0u);
  EXPECT_GT(sock.queuedPackets(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(notifications), sock.queuedPackets());
  // Drain.
  std::size_t drained = 0;
  while (sock.readPacket().has_value()) ++drained;
  EXPECT_EQ(drained, static_cast<std::size_t>(notifications));
  EXPECT_EQ(sock.queuedBytes(), 0u);
  EXPECT_FALSE(sock.readPacket().has_value());
}

TEST(HostStack, LoopbackDeliveryToOwnAddress) {
  Chain world;
  int received = 0;
  world.sa->openUdp(1234).setReceiveHandler([&](Packet) { ++received; });
  world.sa->openUdp(1).sendTo(world.sa->address(), 1234, 10);
  world.queue.run();
  EXPECT_EQ(received, 1);
}

TEST(HostStack, LocalAddressesAddOnceAndRemove) {
  Chain world;
  HostStack& stack = *world.sa;
  const IpAddress tap(10, 9, 0, 1);
  EXPECT_TRUE(stack.isLocalAddress(stack.address()));
  EXPECT_FALSE(stack.isLocalAddress(tap));
  stack.addLocalAddress(tap);
  stack.addLocalAddress(tap);  // a second add is a no-op
  EXPECT_TRUE(stack.isLocalAddress(tap));
  stack.removeLocalAddress(tap);  // so one remove clears it
  EXPECT_FALSE(stack.isLocalAddress(tap));
  EXPECT_TRUE(stack.isLocalAddress(stack.address()));
  stack.removeLocalAddress(tap);  // removing an absent address is a no-op
  EXPECT_TRUE(stack.isLocalAddress(stack.address()));
}

TEST(HostStack, TunDeviceRoundTrip) {
  Chain world;
  TunDevice& tun = world.sa->createTunDevice("tap0", IpAddress(10, 1, 0, 2));
  Route r;
  r.prefix = Prefix::mustParse("10.0.0.0/8");
  r.device = &tun;
  world.sa->routingTable().addRoute(r);

  // Kernel -> user: a packet routed at 10.x lands in the reader.
  int read = 0;
  tun.setReader([&](packet::PacketBox p) {
    ++read;
    EXPECT_EQ(p->ip.dst, IpAddress(10, 9, 9, 9));
  });
  world.sa->sendPacket(Packet::udp(world.sa->address(), IpAddress(10, 9, 9, 9),
                                   1, 2, 10));
  world.queue.run();
  EXPECT_EQ(read, 1);

  // User -> kernel: an injected packet addressed to the tun address is
  // delivered locally (ICMP echo gets answered).
  int replies = 0;
  world.sa->setIcmpReplyHandler(9, [&](Packet) { ++replies; });
  // Inject an echo request as if it arrived from the overlay; the reply
  // routes back out through the tun device to the reader.
  int reader_saw_reply = 0;
  tun.setReader([&](packet::PacketBox p) {
    if (p->isIcmp() && p->icmpHeader()->type == packet::IcmpHeader::kEchoReply) {
      ++reader_saw_reply;
    }
  });
  tun.inject(Packet::icmpEchoRequest(IpAddress(10, 5, 5, 5),
                                     IpAddress(10, 1, 0, 2), 9, 1, 56));
  world.queue.run();
  EXPECT_EQ(reader_saw_reply, 1);
}

TEST(HostStack, PortCaptureInterceptsBeforeSocketDemux) {
  Chain world;
  int socket_got = 0;
  int capture_got = 0;
  world.sc->openUdp(6000).setReceiveHandler([&](Packet) { ++socket_got; });
  world.sc->setPortCapture(packet::IpProto::kUdp, 6000,
                           [&](Packet) { ++capture_got; });
  world.sa->openUdp(1).sendTo(world.sc->address(), 6000, 10);
  world.queue.run();
  EXPECT_EQ(capture_got, 1);
  EXPECT_EQ(socket_got, 0);
  world.sc->clearPortCapture(packet::IpProto::kUdp, 6000);
  world.sa->openUdp(2).sendTo(world.sc->address(), 6000, 10);
  world.queue.run();
  EXPECT_EQ(capture_got, 1);
  EXPECT_EQ(socket_got, 1);
}

TEST(HostStack, NicRateLimitsThroughput) {
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  auto& a = net.addNode("a", IpAddress(1, 0, 0, 1));
  auto& b = net.addNode("b", IpAddress(1, 0, 0, 2));
  phys::LinkConfig fast;
  fast.bandwidth_bps = 1e9;
  net.addLink(a, b, fast);
  StackManager stacks(net);
  HostConfig slow_nic;
  slow_nic.nic_bps = 10e6;  // 10 Mb/s access
  stacks.setConfigFor("a", slow_nic);
  HostStack& sa = stacks.ensure(a);
  HostStack& sb = stacks.ensure(b);

  std::uint64_t bytes = 0;
  sb.openUdp(7000).setReceiveHandler([&](Packet p) { bytes += p.ipPacketBytes(); });
  auto& sender = sa.openUdp(1);
  // Offer 100 Mb/s for one second.
  const int packets = 8500;
  for (int i = 0; i < packets; ++i) sender.sendTo(sb.address(), 7000, 1430);
  queue.runUntil(kSecond);
  const double mbps = static_cast<double>(bytes) * 8 / 1e6;
  EXPECT_LT(mbps, 11.0);
  EXPECT_GT(mbps, 8.0);
}

TEST(HostStack, KernelForwardingAccountsCpu) {
  Chain world;
  auto& sender = world.sa->openUdp(1);
  world.sc->openUdp(7777).setReceiveHandler([](Packet) {});
  world.sb->resetKernelAccounting();
  for (int i = 0; i < 100; ++i) sender.sendTo(world.sc->address(), 7777, 1000);
  world.queue.run();
  EXPECT_GT(world.sb->kernelCpuConsumed(), 0);
}

TEST(HostStack, EphemeralPortsAreUnique) {
  Chain world;
  std::set<std::uint16_t> ports;
  for (int i = 0; i < 100; ++i) {
    ports.insert(world.sa->openUdp(0).port());
  }
  EXPECT_EQ(ports.size(), 100u);
}

TEST(HostStack, TraceHooksObserveTraffic) {
  Chain world;
  int tx_seen = 0;
  int rx_seen = 0;
  world.sa->setTxTrace([&](const Packet&) { ++tx_seen; });
  world.sc->setRxTrace([&](const Packet&) { ++rx_seen; });
  world.sc->openUdp(7777).setReceiveHandler([](Packet) {});
  world.sa->openUdp(1).sendTo(world.sc->address(), 7777, 10);
  world.queue.run();
  EXPECT_EQ(tx_seen, 1);
  EXPECT_EQ(rx_seen, 1);
}

// ---------------------------------------------------------------------------
// NIC receive: the node's RxStage, applied by the channel that delivers

TEST(Channel, FrameIntoAHostCostsOneEvent) {
  // From serialization start to socket delivery, a frame into a host
  // stack costs one event: the channel's delivery, scheduled after the
  // receive latency, hands the packet straight to the kernel.
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  auto& a = net.addNode("a", IpAddress(1, 0, 0, 1));
  auto& b = net.addNode("b", IpAddress(1, 0, 0, 2));
  phys::LinkConfig config;
  config.propagation = kMillisecond;
  phys::PhysLink& link = net.addLink(a, b, config);
  StackManager stacks(net);
  stacks.ensure(a);
  HostStack& sb = stacks.ensure(b);
  sim::Time delivered_at = -1;
  sb.openUdp(7000).setReceiveHandler(
      [&](Packet) { delivered_at = queue.now(); });
  queue.run();

  const std::uint64_t before = queue.executedCount();
  auto p = std::make_unique<Packet>(Packet::udp(a.address(), b.address(), 1,
                                                7000, 100));
  const sim::Time ta =
      sim::serializationDelay(p->wireBytes(), config.bandwidth_bps) +
      kMillisecond;
  link.channelFrom(a.id()).transmit(std::move(p));
  queue.run();
  EXPECT_EQ(queue.executedCount() - before, 1u);
  // The receive latency is at least 0.2 of its mean.
  EXPECT_GE(delivered_at, ta + sb.config().rx_latency_mean / 5);
}

TEST(HostStack, ReceiveFifoIsPerLink) {
  // a and b both feed c, whose receive stage adds a 1 ms spike to every
  // packet.  A back-to-back burst on a-c stacks its spikes but stays in
  // order; a packet on the quiet b-c link draws its own latency instead
  // of waiting behind the burst.
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  auto& a = net.addNode("a", IpAddress(1, 0, 0, 1));
  auto& b = net.addNode("b", IpAddress(1, 0, 0, 2));
  auto& c = net.addNode("c", IpAddress(1, 0, 0, 3));
  phys::LinkConfig config;
  config.propagation = kMillisecond;
  phys::PhysLink& ac = net.addLink(a, c, config);
  phys::PhysLink& bc = net.addLink(b, c, config);
  StackManager stacks(net);
  HostConfig spiky;
  spiky.rx_spike_probability = 1.0;
  spiky.rx_spike_min = kMillisecond;
  spiky.rx_spike_max = kMillisecond;
  stacks.setConfigFor("c", spiky);
  HostStack& sc = stacks.ensure(c);
  struct Delivery {
    std::uint32_t src = 0;
    std::uint64_t seq = 0;
    sim::Time at = 0;
  };
  std::vector<Delivery> got;
  sc.openUdp(7000).setReceiveHandler([&](Packet p) {
    got.push_back({p.ip.src.value(), p.meta.app_seq, queue.now()});
  });
  auto make = [&](phys::PhysNode& from, std::uint64_t seq) {
    auto p = std::make_unique<Packet>(
        Packet::udp(from.address(), c.address(), 1, 7000, 1000));
    p->meta.app_seq = seq;
    return p;
  };
  const int kBurst = 20;
  for (int i = 0; i < kBurst; ++i) {
    ac.channelFrom(a.id()).transmit(make(a, static_cast<std::uint64_t>(i)));
  }
  auto quiet = make(b, 0);
  const sim::Time quiet_arrival =
      sim::serializationDelay(quiet->wireBytes(), config.bandwidth_bps) +
      kMillisecond;
  bc.channelFrom(b.id()).transmit(std::move(quiet));
  queue.run();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBurst) + 1);
  std::uint64_t next_seq = 0;
  sim::Time last_burst = 0;
  sim::Time quiet_at = -1;
  for (const Delivery& d : got) {
    if (d.src == b.address().value()) {
      quiet_at = d.at;
      continue;
    }
    EXPECT_EQ(d.seq, next_seq++);
    EXPECT_GT(d.at, last_burst);  // each burst packet adds its own spike
    last_burst = d.at;
  }
  // Its own latency (at most 3x the mean) and its own spike.
  EXPECT_LE(quiet_at, quiet_arrival + 3 * spiky.rx_latency_mean + kMillisecond);
  EXPECT_GT(last_burst, quiet_at + 10 * kMillisecond);
}

TEST(StackManager, EnsureIsIdempotent) {
  Chain world;
  auto* node = world.net.nodeByName("a");
  EXPECT_EQ(&world.stacks.ensure(*node), world.sa);
  EXPECT_EQ(world.stacks.getByName("a"), world.sa);
  EXPECT_EQ(world.stacks.getByName("zzz"), nullptr);
}

}  // namespace
}  // namespace vini::tcpip
