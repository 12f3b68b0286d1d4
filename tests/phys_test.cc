// Physical substrate tests: link serialization/queueing/loss, topology
// routing, and the expose-vs-mask failure semantics of Section 3.1.
#include <gtest/gtest.h>

#include "phys/network.h"

namespace vini::phys {
namespace {

using packet::IpAddress;
using packet::Packet;
using sim::kMicrosecond;
using sim::kMillisecond;
using sim::kSecond;

packet::PacketBox smallPacket(IpAddress src, IpAddress dst,
                              std::size_t payload = 100) {
  return std::make_unique<Packet>(Packet::udp(src, dst, 1, 2, payload));
}

struct TwoNodes {
  sim::EventQueue queue;
  phys::PhysNetwork net{queue};
  PhysNode* a = nullptr;
  PhysNode* b = nullptr;
  PhysLink* link = nullptr;

  explicit TwoNodes(LinkConfig config = {}) {
    a = &net.addNode("a", IpAddress(1, 0, 0, 1));
    b = &net.addNode("b", IpAddress(1, 0, 0, 2));
    link = &net.addLink(*a, *b, config);
  }
};

TEST(Channel, DeliversAfterSerializationAndPropagation) {
  LinkConfig config;
  config.bandwidth_bps = 1e9;
  config.propagation = kMillisecond;
  TwoNodes world(config);

  sim::Time delivered_at = -1;
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&) { delivered_at = world.queue.now(); });
  packet::PacketBox p = smallPacket(world.a->address(), world.b->address(), 1000);
  const auto wire_bits = static_cast<double>(p->wireBytes()) * 8.0;
  world.link->channelFrom(world.a->id()).transmit(std::move(p));
  world.queue.run();

  const auto expected = static_cast<sim::Duration>(wire_bits / 1e9 * 1e9) + kMillisecond;
  EXPECT_EQ(delivered_at, expected);
}

TEST(Channel, BackToBackPacketsSerializeSequentially) {
  LinkConfig config;
  config.bandwidth_bps = 8e6;  // 1 byte per microsecond
  TwoNodes world(config);

  std::vector<sim::Time> deliveries;
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&) { deliveries.push_back(world.queue.now()); });
  for (int i = 0; i < 3; ++i) {
    world.link->channelFrom(world.a->id()).transmit(
        smallPacket(world.a->address(), world.b->address(), 100));
  }
  world.queue.run();
  ASSERT_EQ(deliveries.size(), 3u);
  // Each packet (166 wire bytes -> 166 us at 1 B/us) waits for the prior.
  EXPECT_EQ(deliveries[1] - deliveries[0], deliveries[2] - deliveries[1]);
  EXPECT_GT(deliveries[1] - deliveries[0], 150 * kMicrosecond);
}

TEST(Channel, DropTailQueueOverflowCounts) {
  LinkConfig config;
  config.bandwidth_bps = 1e6;  // slow: packets pile up
  config.queue_bytes = 500;    // tiny queue
  TwoNodes world(config);

  int delivered = 0;
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&) { ++delivered; });
  auto& channel = world.link->channelFrom(world.a->id());
  for (int i = 0; i < 20; ++i) {
    channel.transmit(smallPacket(world.a->address(), world.b->address(), 100));
  }
  world.queue.run();
  EXPECT_GT(channel.stats().queue_drops, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered), channel.stats().tx_packets);
  EXPECT_LT(delivered, 20);
}

TEST(Channel, RandomLossDropsApproximatelyTheConfiguredFraction) {
  LinkConfig config;
  config.loss_rate = 0.2;
  TwoNodes world(config);

  int delivered = 0;
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&) { ++delivered; });
  auto& channel = world.link->channelFrom(world.a->id());
  const int total = 5000;
  for (int i = 0; i < total; ++i) {
    channel.transmit(smallPacket(world.a->address(), world.b->address(), 10));
  }
  world.queue.run();
  EXPECT_NEAR(static_cast<double>(delivered) / total, 0.8, 0.03);
  EXPECT_EQ(channel.stats().loss_drops + static_cast<std::uint64_t>(delivered),
            static_cast<std::uint64_t>(total));
}

TEST(Channel, DownLinkEatsPackets) {
  TwoNodes world;
  int delivered = 0;
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&) { ++delivered; });
  world.link->setUp(false);
  auto& channel = world.link->channelFrom(world.a->id());
  channel.transmit(smallPacket(world.a->address(), world.b->address()));
  world.queue.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(channel.stats().down_drops, 1u);
}

TEST(Channel, MidFlightFailureDropsPacket) {
  LinkConfig config;
  config.propagation = 10 * kMillisecond;
  TwoNodes world(config);
  int delivered = 0;
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&) { ++delivered; });
  world.link->channelFrom(world.a->id())
      .transmit(smallPacket(world.a->address(), world.b->address()));
  // Fail the link while the packet is propagating.
  world.queue.scheduleAfter(5 * kMillisecond, [&] { world.link->setUp(false); });
  world.queue.run();
  EXPECT_EQ(delivered, 0);
}

TEST(PhysLink, StateListenersFireOnTransitionOnly) {
  TwoNodes world;
  int notifications = 0;
  world.link->subscribe([&](PhysLink&, bool) { ++notifications; });
  world.link->setUp(true);  // no-op: already up
  EXPECT_EQ(notifications, 0);
  world.link->setUp(false);
  world.link->setUp(false);  // no-op
  world.link->setUp(true);
  EXPECT_EQ(notifications, 2);
}

struct Diamond {
  // a - b - d  and  a - c - d, with the b path cheaper.
  sim::EventQueue queue;
  PhysNetwork net;
  PhysNode *a, *b, *c, *d;
  PhysLink *ab, *bd, *ac, *cd;

  explicit Diamond(NetworkConfig config = {}) : net(queue, config) {
    a = &net.addNode("a", IpAddress(1, 0, 0, 1));
    b = &net.addNode("b", IpAddress(1, 0, 0, 2));
    c = &net.addNode("c", IpAddress(1, 0, 0, 3));
    d = &net.addNode("d", IpAddress(1, 0, 0, 4));
    LinkConfig cheap;
    cheap.weight = 1.0;
    LinkConfig pricey;
    pricey.weight = 5.0;
    ab = &net.addLink(*a, *b, cheap);
    bd = &net.addLink(*b, *d, cheap);
    ac = &net.addLink(*a, *c, pricey);
    cd = &net.addLink(*c, *d, pricey);
  }
};

TEST(PhysNetwork, ShortestPathByWeight) {
  Diamond world;
  PhysLink* next = world.net.nextLinkFor(world.a->id(), world.d->address());
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next, world.ab);
  auto path = world.net.pathBetween(world.a->id(), world.d->id());
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], world.ab);
  EXPECT_EQ(path[1], world.bd);
}

TEST(PhysNetwork, ExposeModeKeepsRoutesPinnedThroughFailure) {
  Diamond world;  // default: expose (no masking)
  world.bd->setUp(false);
  // The route still points into the dead path: packets will die there.
  PhysLink* next = world.net.nextLinkFor(world.a->id(), world.d->address());
  EXPECT_EQ(next, world.ab);
}

TEST(PhysNetwork, MaskModeReroutesAfterConvergenceDelay) {
  NetworkConfig config;
  config.mask_failures = true;
  config.reroute_delay = 200 * kMillisecond;
  Diamond world(config);
  world.net.recomputeRoutes();
  world.bd->setUp(false);
  // Before the convergence delay: still the old route.
  EXPECT_EQ(world.net.nextLinkFor(world.a->id(), world.d->address()), world.ab);
  world.queue.runUntil(world.queue.now() + 300 * kMillisecond);
  // After: silently rerouted around the failure.
  EXPECT_EQ(world.net.nextLinkFor(world.a->id(), world.d->address()), world.ac);
}

TEST(PhysNetwork, UnknownAddressHasNoRoute) {
  Diamond world;
  EXPECT_EQ(world.net.nextLinkFor(world.a->id(), IpAddress(9, 9, 9, 9)), nullptr);
}

TEST(PhysNetwork, RegisteredAddressRoutesToItsNode) {
  Diamond world;
  const IpAddress web(64, 236, 16, 20);
  world.net.registerAddress(web, world.d->id());
  EXPECT_EQ(world.net.nextLinkFor(world.a->id(), web), world.ab);
}

TEST(PhysNetwork, LookupHelpers) {
  Diamond world;
  EXPECT_EQ(world.net.nodeByName("c"), world.c);
  EXPECT_EQ(world.net.nodeByName("zzz"), nullptr);
  EXPECT_EQ(world.net.linkBetween("a", "b"), world.ab);
  EXPECT_EQ(world.net.linkBetween("a", "d"), nullptr);
  EXPECT_EQ(world.net.nodeForAddress(world.b->address()), world.b->id());
  EXPECT_EQ(world.net.nodeForAddress(IpAddress(9, 9, 9, 9)), -1);
}

TEST(PhysNetwork, PathBetweenUnreachableIsEmpty) {
  sim::EventQueue queue;
  PhysNetwork net(queue);
  auto& a = net.addNode("a", IpAddress(1, 0, 0, 1));
  auto& b = net.addNode("b", IpAddress(1, 0, 0, 2));
  EXPECT_TRUE(net.pathBetween(a.id(), b.id()).empty());
}

TEST(PhysNetwork, EqualCostTieBreaksDeterministically) {
  // Two equal-cost paths: route choice must be stable across recomputes.
  sim::EventQueue queue;
  PhysNetwork net(queue);
  auto& a = net.addNode("a", IpAddress(1, 0, 0, 1));
  auto& b = net.addNode("b", IpAddress(1, 0, 0, 2));
  auto& c = net.addNode("c", IpAddress(1, 0, 0, 3));
  auto& d = net.addNode("d", IpAddress(1, 0, 0, 4));
  net.addLink(a, b);
  net.addLink(b, d);
  net.addLink(a, c);
  net.addLink(c, d);
  PhysLink* first = net.nextLinkFor(a.id(), d.address());
  for (int i = 0; i < 5; ++i) {
    net.recomputeRoutes();
    EXPECT_EQ(net.nextLinkFor(a.id(), d.address()), first);
  }
}

}  // namespace
}  // namespace vini::phys
