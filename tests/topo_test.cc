// Topology catalogue, rcc-style config parsing, and ready-made worlds.
#include <gtest/gtest.h>

#include "topo/abilene.h"
#include "topo/router_config.h"
#include "topo/worlds.h"

namespace vini::topo {
namespace {

using sim::kSecond;

TEST(Abilene, HasElevenPopsAndFourteenLinks) {
  EXPECT_EQ(abilenePopNames().size(), 11u);
  EXPECT_EQ(abileneLinks().size(), 14u);
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  buildAbilene(net);
  EXPECT_EQ(net.nodeCount(), 11u);
  EXPECT_EQ(net.linkCount(), 14u);
}

TEST(Abilene, EveryLinkReferencesRealPops) {
  std::set<std::string> names(abilenePopNames().begin(), abilenePopNames().end());
  for (const auto& link : abileneLinks()) {
    EXPECT_TRUE(names.count(link.a)) << link.a;
    EXPECT_TRUE(names.count(link.b)) << link.b;
    EXPECT_GT(link.one_way_ms, 0.0);
    EXPECT_GT(link.igp_weight, 0u);
  }
}

TEST(Abilene, NorthernPathIsShortestWashingtonToSeattle) {
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  buildAbilene(net);
  auto path = net.pathBetween(net.nodeByName("Washington")->id(),
                              net.nodeByName("Seattle")->id());
  // DC - NY - Chicago - Indianapolis - KC - Denver - Seattle: 6 links.
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(path[0]->name(), "NewYork-Washington");
  EXPECT_EQ(path[4]->name(), "Denver-KansasCity");
  EXPECT_EQ(path[5]->name(), "Seattle-Denver");
}

TEST(Abilene, MirrorSpecBindsEachPopOneToOne) {
  const auto spec = abileneMirrorSpec("x");
  EXPECT_EQ(spec.nodes.size(), 11u);
  EXPECT_EQ(spec.links.size(), 14u);
  for (const auto& node : spec.nodes) {
    EXPECT_EQ(node.name, node.phys_name);
  }
}

TEST(Deter, BuildsChain) {
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  buildDeter(net);
  EXPECT_EQ(net.nodeCount(), 3u);
  EXPECT_EQ(net.linkCount(), 2u);
  EXPECT_NE(net.linkBetween("Src", "Fwdr"), nullptr);
  EXPECT_NE(net.linkBetween("Fwdr", "Sink"), nullptr);
  EXPECT_EQ(net.linkBetween("Src", "Sink"), nullptr);
}

// ---------------------------------------------------------------------------
// Router configs (rcc)

TEST(RouterConfig, ParsesWellFormedConfig) {
  const auto parsed = parseRouterConfigs(R"(
    # Abilene extract
    router Denver {
      interface KansasCity cost 500;
      interface Seattle cost 1100;
    }
    router KansasCity { interface Denver cost 500; }
    router Seattle { interface Denver cost 1100; }
  )");
  EXPECT_TRUE(parsed.faults.empty());
  EXPECT_EQ(parsed.topology.nodes.size(), 3u);
  ASSERT_EQ(parsed.topology.links.size(), 2u);
  for (const auto& link : parsed.topology.links) {
    if (link.a == "Denver" && link.b == "KansasCity") {
      EXPECT_EQ(link.igp_cost, 500u);
    }
  }
}

TEST(RouterConfig, DetectsAsymmetricAdjacency) {
  const auto parsed = parseRouterConfigs(R"(
    router A { interface B cost 10; }
    router B { }
  )");
  ASSERT_EQ(parsed.faults.size(), 1u);
  EXPECT_NE(parsed.faults[0].message.find("asymmetric"), std::string::npos);
  EXPECT_TRUE(parsed.topology.links.empty());
}

TEST(RouterConfig, DetectsCostMismatchAndUsesLower) {
  const auto parsed = parseRouterConfigs(R"(
    router A { interface B cost 10; }
    router B { interface A cost 99; }
  )");
  ASSERT_EQ(parsed.faults.size(), 2u);  // reported from both directions
  ASSERT_EQ(parsed.topology.links.size(), 1u);
  EXPECT_EQ(parsed.topology.links[0].igp_cost, 10u);
}

TEST(RouterConfig, SyntaxErrorsThrow) {
  EXPECT_THROW(parseRouterConfigs("router A {"), std::runtime_error);
  EXPECT_THROW(parseRouterConfigs("router A { interface B; }"), std::runtime_error);
  EXPECT_THROW(parseRouterConfigs("router A { interface B cost x; }"),
               std::runtime_error);
  EXPECT_THROW(parseRouterConfigs("router A {} router A {}"), std::runtime_error);
}

TEST(RouterConfig, EmitParseRoundTripsAbilene) {
  const auto spec = abileneMirrorSpec();
  const std::string text = emitRouterConfigs(spec);
  const auto parsed = parseRouterConfigs(text);
  EXPECT_TRUE(parsed.faults.empty());
  EXPECT_EQ(parsed.topology.nodes.size(), spec.nodes.size());
  EXPECT_EQ(parsed.topology.links.size(), spec.links.size());
  // Costs survive the round trip.
  std::map<std::pair<std::string, std::string>, std::uint32_t> want;
  for (const auto& link : spec.links) {
    auto key = link.a < link.b ? std::make_pair(link.a, link.b)
                               : std::make_pair(link.b, link.a);
    want[key] = link.igp_cost;
  }
  for (const auto& link : parsed.topology.links) {
    auto key = link.a < link.b ? std::make_pair(link.a, link.b)
                               : std::make_pair(link.b, link.a);
    EXPECT_EQ(link.igp_cost, want.at(key));
  }
}

// ---------------------------------------------------------------------------
// Worlds

TEST(Worlds, AbileneMirrorEmbedsElevenRouters) {
  WorldOptions options;
  options.contention = 0.0;
  auto world = makeAbileneWorld(options);
  EXPECT_EQ(world->iias->routers().size(), 11u);
  EXPECT_TRUE(world->runUntilConverged(120 * kSecond));
  // The slice mirrors the substrate: each virtual link pinned to exactly
  // the physical link between its endpoints' PoPs.
  for (const auto& link : world->iias->slice().links()) {
    EXPECT_EQ(link->underlayPath().size(), 1u);
  }
}

TEST(Worlds, ConvergedRoutersKnowAllTaps) {
  WorldOptions options;
  options.contention = 0.0;
  auto world = makeAbileneWorld(options);
  ASSERT_TRUE(world->runUntilConverged(120 * kSecond));
  for (const auto& router : world->iias->routers()) {
    for (const auto& name : abilenePopNames()) {
      if (router->vnode().name() == name) continue;
      EXPECT_TRUE(router->xorp().rib().lookup(world->tapOf(name)).has_value())
          << router->vnode().name() << " -> " << name;
    }
  }
}

}  // namespace
}  // namespace vini::topo
