// VINI core tests: slices, virtual topology construction, addressing,
// admission control, fate sharing, upcalls, embedding, and the
// experiment schedule.
#include <gtest/gtest.h>

#include "core/embedder.h"
#include "core/schedule.h"
#include <thread>

#include "core/thread_annotations.h"
#include "core/vini.h"
#include "topo/abilene.h"

namespace vini::core {
namespace {

using packet::IpAddress;
using packet::Prefix;
using sim::kSecond;

struct Substrate {
  sim::EventQueue queue;
  phys::PhysNetwork net{queue};

  explicit Substrate(int nodes = 4) {
    for (int i = 0; i < nodes; ++i) {
      net.addNode("n" + std::to_string(i),
                  IpAddress(9, 0, 0, static_cast<std::uint8_t>(i + 1)));
    }
    // Chain n0 - n1 - n2 - ...
    for (int i = 0; i + 1 < nodes; ++i) {
      net.addLink(*net.nodeById(i), *net.nodeById(i + 1));
    }
  }
};

TEST(Slice, DistinctOverlayPrefixesAndPorts) {
  Substrate world;
  Vini vini(world.net);
  Slice& s1 = vini.createSlice("exp1");
  Slice& s2 = vini.createSlice("exp2");
  EXPECT_EQ(s1.overlayPrefix().str(), "10.1.0.0/16");
  EXPECT_EQ(s2.overlayPrefix().str(), "10.2.0.0/16");
  EXPECT_NE(s1.tunnelPort(), s2.tunnelPort());
  EXPECT_EQ(vini.sliceByName("exp2"), &s2);
  EXPECT_EQ(vini.sliceByName("nope"), nullptr);
}

TEST(Slice, TapAddressesFollowNodeIndex) {
  Substrate world;
  Vini vini(world.net);
  Slice& slice = vini.createSlice("exp");
  VirtualNode& a = slice.addNode(*world.net.nodeById(0), "a");
  VirtualNode& b = slice.addNode(*world.net.nodeById(1), "b");
  EXPECT_EQ(a.tapAddress().str(), "10.1.0.2");
  EXPECT_EQ(b.tapAddress().str(), "10.1.1.2");
}

TEST(Slice, LinkAllocatesSlash30WithDistinctEnds) {
  Substrate world;
  Vini vini(world.net);
  Slice& slice = vini.createSlice("exp");
  VirtualNode& a = slice.addNode(*world.net.nodeById(0), "a");
  VirtualNode& b = slice.addNode(*world.net.nodeById(1), "b");
  VirtualLink& link = slice.addLink(a, b);

  EXPECT_EQ(link.subnet().length(), 30);
  EXPECT_TRUE(slice.overlayPrefix().covers(link.subnet()));
  EXPECT_NE(link.interfaceA().address(), link.interfaceB().address());
  EXPECT_TRUE(link.subnet().contains(link.interfaceA().address()));
  EXPECT_TRUE(link.subnet().contains(link.interfaceB().address()));
  EXPECT_EQ(link.interfaceA().peerAddress(), link.interfaceB().address());
  EXPECT_EQ(link.interfaceB().peerAddress(), link.interfaceA().address());
  // Both nodes see one interface each ("unique interfaces per
  // experiment" — the node's degree grows with the topology).
  EXPECT_EQ(a.interfaces().size(), 1u);
  EXPECT_EQ(b.interfaces().size(), 1u);
}

TEST(Slice, ManyLinksGetDisjointSubnets) {
  Substrate world(4);
  Vini vini(world.net);
  Slice& slice = vini.createSlice("exp");
  std::vector<VirtualNode*> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(&slice.addNode(*world.net.nodeById(i), "v" + std::to_string(i)));
  }
  std::set<Prefix> subnets;
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      subnets.insert(slice.addLink(*nodes[i], *nodes[j]).subnet());
    }
  }
  EXPECT_EQ(subnets.size(), 6u);  // full mesh of 4: all distinct
  // Node degree is 3: three interfaces on one physical node.
  EXPECT_EQ(nodes[0]->interfaces().size(), 3u);
}

TEST(Slice, RejectsDuplicatePlacementAndForeignEndpoints) {
  Substrate world;
  Vini vini(world.net);
  Slice& s1 = vini.createSlice("exp1");
  Slice& s2 = vini.createSlice("exp2");
  VirtualNode& a = s1.addNode(*world.net.nodeById(0), "a");
  EXPECT_THROW(s1.addNode(*world.net.nodeById(0), "a2"), std::runtime_error);
  VirtualNode& b2 = s2.addNode(*world.net.nodeById(1), "b2");
  EXPECT_THROW(s1.addLink(a, b2), std::runtime_error);
  EXPECT_THROW(s1.addLink(a, a), std::runtime_error);
}

TEST(Vini, AdmissionControlCapsReservations) {
  Substrate world;
  Vini vini(world.net);
  ResourceSpec half;
  half.cpu_reservation = 0.5;
  Slice& s1 = vini.createSlice("exp1", half);
  Slice& s2 = vini.createSlice("exp2", half);
  s1.addNode(*world.net.nodeById(0), "a");
  // 0.5 + 0.5 > 0.9: rejected on the same node...
  EXPECT_THROW(s2.addNode(*world.net.nodeById(0), "b"), std::runtime_error);
  // ...but fine elsewhere.
  s2.addNode(*world.net.nodeById(1), "b");
  EXPECT_NEAR(vini.reservedCpuOn(*world.net.nodeById(0)), 0.5, 1e-9);
  EXPECT_NEAR(vini.reservedCpuOn(*world.net.nodeById(1)), 0.5, 1e-9);
}

TEST(VirtualLink, PinsToCurrentUnderlayPath) {
  Substrate world(3);
  Vini vini(world.net);
  Slice& slice = vini.createSlice("exp");
  VirtualNode& a = slice.addNode(*world.net.nodeById(0), "a");
  VirtualNode& c = slice.addNode(*world.net.nodeById(2), "c");
  VirtualLink& link = slice.addLink(a, c);  // path crosses n1
  EXPECT_EQ(link.underlayPath().size(), 2u);
  EXPECT_TRUE(link.isUp());
}

TEST(VirtualLink, SharesFateWithUnderlayInExposeMode) {
  Substrate world(3);
  Vini vini(world.net);  // expose_underlay_failures = true
  Slice& slice = vini.createSlice("exp");
  VirtualNode& a = slice.addNode(*world.net.nodeById(0), "a");
  VirtualNode& c = slice.addNode(*world.net.nodeById(2), "c");
  VirtualLink& link = slice.addLink(a, c);

  int transitions = 0;
  bool latest = true;
  link.subscribe([&](VirtualLink&, bool up) {
    ++transitions;
    latest = up;
  });

  phys::PhysLink* middle = world.net.linkBetween(1, 2);
  middle->setUp(false);
  EXPECT_FALSE(link.isUp());
  EXPECT_FALSE(latest);
  middle->setUp(true);
  EXPECT_TRUE(link.isUp());
  EXPECT_EQ(transitions, 2);
}

TEST(VirtualLink, MaskedModeHidesUnderlayFailure) {
  Substrate world(3);
  ViniConfig config;
  config.expose_underlay_failures = false;  // plain-overlay behaviour
  Vini vini(world.net, config);
  Slice& slice = vini.createSlice("exp");
  VirtualNode& a = slice.addNode(*world.net.nodeById(0), "a");
  VirtualNode& c = slice.addNode(*world.net.nodeById(2), "c");
  VirtualLink& link = slice.addLink(a, c);
  world.net.linkBetween(1, 2)->setUp(false);
  // The virtual link never learns: this is exactly the problem VINI's
  // fate-sharing requirement addresses.
  EXPECT_TRUE(link.isUp());
}

TEST(VirtualLink, AdminDownOverridesHealthyUnderlay) {
  Substrate world(2);
  Vini vini(world.net);
  Slice& slice = vini.createSlice("exp");
  VirtualNode& a = slice.addNode(*world.net.nodeById(0), "a");
  VirtualNode& b = slice.addNode(*world.net.nodeById(1), "b");
  VirtualLink& link = slice.addLink(a, b);
  link.setAdminUp(false);
  EXPECT_FALSE(link.isUp());
  EXPECT_TRUE(link.underlayUp());
  link.setAdminUp(true);
  EXPECT_TRUE(link.isUp());
}

TEST(Upcalls, DeliveredToOwningSliceOnly) {
  Substrate world(3);
  Vini vini(world.net);
  Slice& s1 = vini.createSlice("exp1");
  Slice& s2 = vini.createSlice("exp2");
  VirtualNode& a1 = s1.addNode(*world.net.nodeById(0), "a");
  VirtualNode& c1 = s1.addNode(*world.net.nodeById(2), "c");
  s1.addLink(a1, c1);
  // Slice 2 exists but has no link over n1-n2.
  s2.addNode(*world.net.nodeById(0), "x");

  std::vector<UpcallEvent> events1;
  std::vector<UpcallEvent> events2;
  vini.upcalls().subscribe(s1.id(), [&](const UpcallEvent& e) { events1.push_back(e); });
  vini.upcalls().subscribe(s2.id(), [&](const UpcallEvent& e) { events2.push_back(e); });

  world.net.linkBetween(1, 2)->setUp(false);
  ASSERT_GE(events1.size(), 2u);  // phys alarm + virtual-link-down
  EXPECT_EQ(events1[0].type, UpcallEvent::Type::kPhysLinkDown);
  EXPECT_EQ(events1[1].type, UpcallEvent::Type::kVirtualLinkDown);
  EXPECT_TRUE(events2.empty());

  world.net.linkBetween(1, 2)->setUp(true);
  EXPECT_EQ(events1.back().type, UpcallEvent::Type::kVirtualLinkUp);
}

TEST(Embedder, HonorsExplicitBindings) {
  Substrate world(4);
  Vini vini(world.net);
  TopologyEmbedder embedder(vini);
  TopologySpec spec;
  spec.name = "exp";
  spec.nodes = {{"x", "n2"}, {"y", "n0"}};
  spec.links = {{"x", "y", 7}};
  Embedding embedding = embedder.embed(spec);
  ASSERT_NE(embedding.slice, nullptr);
  EXPECT_EQ(embedding.slice->nodeByName("x")->physNode().name(), "n2");
  EXPECT_EQ(embedding.slice->nodeByName("y")->physNode().name(), "n0");
  ASSERT_EQ(embedding.slice->links().size(), 1u);
  EXPECT_EQ(embedding.link_costs.at(embedding.slice->links()[0].get()), 7u);
}

TEST(Embedder, AutoPlacesOnDistinctNodes) {
  Substrate world(4);
  Vini vini(world.net);
  TopologyEmbedder embedder(vini);
  TopologySpec spec;
  spec.name = "exp";
  spec.nodes = {{"x", ""}, {"y", ""}, {"z", ""}};
  spec.links = {{"x", "y", 1}, {"y", "z", 1}};
  Embedding embedding = embedder.embed(spec);
  std::set<std::string> used;
  for (const auto& node : embedding.slice->nodes()) {
    used.insert(node->physNode().name());
  }
  EXPECT_EQ(used.size(), 3u);
}

TEST(Embedder, RejectsBadSpecs) {
  Substrate world(2);
  Vini vini(world.net);
  TopologyEmbedder embedder(vini);
  TopologySpec bad_phys;
  bad_phys.name = "a";
  bad_phys.nodes = {{"x", "nosuch"}};
  EXPECT_THROW(embedder.embed(bad_phys), std::runtime_error);

  TopologySpec too_big;
  too_big.name = "b";
  too_big.nodes = {{"x", ""}, {"y", ""}, {"z", ""}};
  EXPECT_THROW(embedder.embed(too_big), std::runtime_error);

  TopologySpec bad_link;
  bad_link.name = "c";
  bad_link.nodes = {{"x", ""}};
  bad_link.links = {{"x", "ghost", 1}};
  EXPECT_THROW(embedder.embed(bad_link), std::runtime_error);
}

TEST(Vini, PortReservationsAreExclusivePerSlice) {
  // Section 4.1.1: each slice "may reserve specific ports"; VNET keeps
  // them exclusive.  Tunnel ports are reserved at slice creation.
  Substrate world;
  Vini vini(world.net);
  Slice& s1 = vini.createSlice("exp1");
  Slice& s2 = vini.createSlice("exp2");
  EXPECT_EQ(vini.portOwner(s1.tunnelPort()), s1.id());
  EXPECT_EQ(vini.portOwner(s2.tunnelPort()), s2.id());
  // A slice cannot take another's tunnel port.
  EXPECT_FALSE(vini.reservePort(s2, s1.tunnelPort()));
  // Fresh ports work, and re-reserving your own is idempotent.
  EXPECT_TRUE(vini.reservePort(s1, 1194));
  EXPECT_TRUE(vini.reservePort(s1, 1194));
  EXPECT_FALSE(vini.reservePort(s2, 1194));
  EXPECT_EQ(vini.portOwner(1194), s1.id());
  EXPECT_EQ(vini.portOwner(9999), -1);
}

TEST(ShardToken, SameThreadMayAssertRepeatedly) {
  ShardToken token;
  token.assertHeld();  // first touch claims the shard
  token.assertHeld();  // same thread: fine
  token.release();
  token.assertHeld();  // reclaim after release: fine
}

TEST(ShardToken, ForeignThreadAborts) {
  // Claims are enforced inside a parallel window; in a serial phase
  // ownership migrates freely, so the collision must happen in one.
  ShardToken token;
  EXPECT_DEATH(
      [&token] {
        beginShardParallelPhase();
        token.assertHeld();
        std::thread([&token] { token.assertHeld(); }).join();
      }(),
      "ShardToken ownership violation");
}

TEST(EventSchedule, RunsActionsAndKeepsLog) {
  sim::EventQueue queue;
  EventSchedule schedule(queue);
  std::vector<int> fired;
  schedule.atSeconds(2.0, "two", [&] { fired.push_back(2); });
  schedule.atSeconds(1.0, "one", [&] { fired.push_back(1); });
  queue.runUntil(10 * kSecond);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  ASSERT_EQ(schedule.log().size(), 2u);
  EXPECT_EQ(schedule.log()[0].label, "one");
  EXPECT_EQ(schedule.log()[1].when, 2 * kSecond);
  EXPECT_EQ(schedule.scheduledCount(), 2u);
}

}  // namespace
}  // namespace vini::core
