// Physical substrate tests: link serialization/queueing/loss, topology
// routing, and the expose-vs-mask failure semantics of Section 3.1.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
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
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&, sim::Time) { delivered_at = world.queue.now(); });
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
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&, sim::Time) { deliveries.push_back(world.queue.now()); });
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
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&, sim::Time) { ++delivered; });
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
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&, sim::Time) { ++delivered; });
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
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&, sim::Time) { ++delivered; });
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
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&, sim::Time) { ++delivered; });
  world.link->channelFrom(world.a->id())
      .transmit(smallPacket(world.a->address(), world.b->address()));
  // Fail the link while the packet is propagating.
  world.queue.scheduleAfter(5 * kMillisecond, [&] { world.link->setUp(false); });
  world.queue.run();
  EXPECT_EQ(delivered, 0);
}

// ---------------------------------------------------------------------------
// The link-down contract: a frame is dropped as link_down when the link
// is down at transmit or at the end of its serialization, and as
// link_down_midflight when it is down at arrival.  A down-up blip inside
// either interval is not a drop.

/// Sends one traced 100-byte frame at t = 0 over a 1 Mb/s link with
/// 10 ms of propagation (serialization ends at 1.328 ms, arrival at
/// 11.328 ms) into a node with receive stage `rx`, applies `flaps` as
/// (time, up) transitions, and returns the frame's fate: "delivered" or
/// the drop reason on its root span.
std::string fateOfOneFrame(const std::vector<std::pair<sim::Time, bool>>& flaps,
                           const RxStage& rx = {}) {
  obs::ScopedObs scope;
  LinkConfig config;
  config.bandwidth_bps = 1e6;
  config.propagation = 10 * kMillisecond;
  TwoNodes world(config);
  world.b->setRxStage(rx);
  bool delivered = false;
  world.b->setPacketHandler(
      [&](packet::PacketBox, PhysLink&, sim::Time) { delivered = true; });
  packet::PacketBox p = smallPacket(world.a->address(), world.b->address());
  p->meta.trace_id = scope.spans().newTraceId();
  scope.spans().openRoot(p->meta.trace_id, scope.spans().intern("test"), 0);
  world.link->channelFrom(world.a->id()).transmit(std::move(p));
  for (const auto& [t, up] : flaps) {
    world.queue.schedule(t, [&world, up = up] { world.link->setUp(up); });
  }
  world.queue.run();
  if (delivered) return "delivered";
  for (const auto& rec : scope.spans().records()) {
    if (rec.root) return scope.spans().name(rec.reason);
  }
  return "dropped without a reason";
}

TEST(Channel, DownUpBlipInsideSerializationIsDelivered) {
  EXPECT_EQ(fateOfOneFrame({{300 * kMicrosecond, false},
                            {800 * kMicrosecond, true}}),
            "delivered");
}

TEST(Channel, DownAcrossSerializationEndIsLinkDownDrop) {
  EXPECT_EQ(fateOfOneFrame({{kMillisecond, false}, {5 * kMillisecond, true}}),
            "link_down");
}

TEST(Channel, DownUpDuringPropagationIsDelivered) {
  EXPECT_EQ(
      fateOfOneFrame({{3 * kMillisecond, false}, {6 * kMillisecond, true}}),
      "delivered");
}

TEST(Channel, DownAtArrivalIsMidflightDrop) {
  EXPECT_EQ(fateOfOneFrame({{6 * kMillisecond, false}}),
            "link_down_midflight");
}

TEST(Channel, DownDuringReceiveHoldIsDelivered) {
  // A 5 ms receive stage with no jitter delivers at 16.328 ms; the link
  // fails after the frame reached the receiving NIC.
  RxStage rx;
  rx.latency_mean = 5 * kMillisecond;
  EXPECT_EQ(fateOfOneFrame({{13 * kMillisecond, false}}, rx), "delivered");
  EXPECT_EQ(fateOfOneFrame({{11 * kMillisecond, false}}, rx),
            "link_down_midflight");
}

TEST(Channel, ReceiveStageHoldsTheFrameAfterArrival) {
  LinkConfig config;
  config.propagation = kMillisecond;
  TwoNodes world(config);
  RxStage rx;
  rx.latency_mean = 50 * kMicrosecond;  // no jitter: exactly the mean
  world.b->setRxStage(rx);
  sim::Time delivered_at = -1;
  sim::Time arrived = -1;
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&, sim::Time at) {
    delivered_at = world.queue.now();
    arrived = at;
  });
  packet::PacketBox p = smallPacket(world.a->address(), world.b->address());
  const sim::Time ta = sim::serializationDelay(p->wireBytes(), 1e9) + kMillisecond;
  world.link->channelFrom(world.a->id()).transmit(std::move(p));
  world.queue.run();
  EXPECT_EQ(arrived, ta);
  EXPECT_EQ(delivered_at, ta + 50 * kMicrosecond);
  EXPECT_EQ(world.link->channelFrom(world.a->id()).longestHold(),
            50 * kMicrosecond);
}

TEST(Channel, SetConfigAppliesToWaitingFrames) {
  LinkConfig config;
  config.bandwidth_bps = 8e6;  // 1 byte per microsecond
  TwoNodes world(config);
  std::vector<sim::Time> deliveries;
  world.b->setPacketHandler(
      [&](packet::PacketBox, PhysLink&, sim::Time) { deliveries.push_back(world.queue.now()); });
  auto& channel = world.link->channelFrom(world.a->id());
  std::size_t wire = 0;
  for (int i = 0; i < 3; ++i) {
    packet::PacketBox p = smallPacket(world.a->address(), world.b->address());
    wire = p->wireBytes();
    channel.transmit(std::move(p));
  }
  // The first frame is already serializing; the other two wait.
  LinkConfig faster = config;
  faster.bandwidth_bps = 16e6;
  channel.setConfig(faster);
  world.queue.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], sim::serializationDelay(wire, 8e6));
  EXPECT_EQ(deliveries[1] - deliveries[0], sim::serializationDelay(wire, 16e6));
  EXPECT_EQ(deliveries[2] - deliveries[1], sim::serializationDelay(wire, 16e6));
}

TEST(Channel, IdleWireCostsOneEventPerFrame) {
  LinkConfig config;
  config.bandwidth_bps = 8e6;  // 166 us per frame
  config.propagation = kMillisecond;
  TwoNodes world(config);
  int delivered = 0;
  world.b->setPacketHandler([&](packet::PacketBox, PhysLink&, sim::Time) { ++delivered; });
  auto& channel = world.link->channelFrom(world.a->id());
  const int kFrames = 10;

  // Spaced wider than their serialization time: each frame finds the
  // wire idle, and its arrival is its only event beyond the one that
  // sends it.
  for (int i = 0; i < kFrames; ++i) {
    world.queue.schedule(i * kMillisecond, [&] {
      channel.transmit(smallPacket(world.a->address(), world.b->address()));
    });
  }
  std::uint64_t before = world.queue.executedCount();
  world.queue.run();
  EXPECT_EQ(world.queue.executedCount() - before, 2u * kFrames);
  EXPECT_EQ(delivered, kFrames);

  // Back to back: every frame but the first also waits for a
  // wire-free event.
  for (int i = 0; i < kFrames; ++i) {
    channel.transmit(smallPacket(world.a->address(), world.b->address()));
  }
  before = world.queue.executedCount();
  world.queue.run();
  EXPECT_EQ(world.queue.executedCount() - before, 2u * kFrames - 1);
  EXPECT_EQ(delivered, 2 * kFrames);
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

TEST(PhysLink, TransitionLogHoldsOnlyOnePropagationWindow) {
  LinkConfig config;
  config.propagation = 10 * kMillisecond;
  TwoNodes world(config);
  // A link flapping every millisecond for a second: only transitions
  // within the last propagation delay can decide a frame in flight.
  for (int i = 1; i <= 1000; ++i) {
    world.queue.schedule(i * kMillisecond,
                         [&world, up = i % 2 == 0] { world.link->setUp(up); });
  }
  world.queue.run();
  EXPECT_LE(world.link->transitions().size(), 11u);
  EXPECT_EQ(world.link->transitions().back(), kSecond);
}

TEST(PhysLink, TransitionLogCoversReceiveHold) {
  // Ten back-to-back frames (166 us each) into a receive stage that adds
  // a 2 ms spike to every frame: the spikes stack, so the last frame is
  // delivered about 19 ms after it arrived at ~2.7 ms.
  LinkConfig config;
  config.bandwidth_bps = 8e6;
  config.propagation = kMillisecond;
  TwoNodes world(config);
  RxStage rx;
  rx.spike_probability = 1.0;
  rx.spike_min = 2 * kMillisecond;
  rx.spike_max = 2 * kMillisecond;
  world.b->setRxStage(rx);
  int delivered = 0;
  world.b->setPacketHandler(
      [&](packet::PacketBox, PhysLink&, sim::Time) { ++delivered; });
  auto& channel = world.link->channelFrom(world.a->id());
  for (int i = 0; i < 10; ++i) {
    channel.transmit(smallPacket(world.a->address(), world.b->address()));
  }
  // A down-up pair after every frame has arrived: it decides no frame's
  // fate, but frames still held read the log across it.  Pruning at
  // 9 ms by propagation alone would drop the 8 ms entry and leave the
  // held frames reading the link as down when they finished serializing.
  world.queue.schedule(8 * kMillisecond, [&] { world.link->setUp(false); });
  world.queue.schedule(9 * kMillisecond, [&] { world.link->setUp(true); });
  world.queue.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_GT(channel.longestHold(), 15 * kMillisecond);
  EXPECT_EQ(world.link->transitions().size(), 2u);
  EXPECT_EQ(channel.stats().down_drops, 0u);
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
