#include "topo/worlds.h"

#include "obs/obs.h"
#include "topo/calibration.h"

namespace vini::topo {

World::World(tcpip::HostConfig host_default, phys::NetworkConfig net_config,
             int threads)
    : queue(threads),
      net(queue, net_config),
      stacks(net, host_default),
      schedule(queue) {
  // Give the obs layer a read-only view of this world's clock so
  // drop-site root closes and timeline events can self-timestamp.
  if (obs::Obs* ctx = VINI_OBS_CTX()) ctx->clock = &queue;
}

void World::finalizeSharding() {
  if (queue.shardThreads() == 0 || queue.sharded()) return;
  // Conservative lookahead = the smallest cross-node propagation delay;
  // finalizeSharding clamps a linkless topology's 0 to 1 ns.
  queue.finalizeSharding(net.minPropagation());
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    if (!ctx->shardLanesEnabled()) {
      ctx->enableShardLanes(queue.shardLaneCount());
    }
  }
}

tcpip::HostStack& World::stack(const std::string& node_name) {
  phys::PhysNode* node = net.nodeByName(node_name);
  if (!node) throw std::runtime_error("no physical node " + node_name);
  return stacks.ensure(*node);
}

packet::IpAddress World::tapOf(const std::string& vnode_name) {
  if (!iias) return {};
  core::VirtualNode* vnode = iias->slice().nodeByName(vnode_name);
  return vnode ? vnode->tapAddress() : packet::IpAddress{};
}

bool World::runUntilConverged(sim::Duration deadline) {
  const sim::Time limit = queue.now() + deadline;
  std::size_t stable_routes = 0;
  int stable_rounds = 0;
  while (queue.now() < limit) {
    queue.runUntil(queue.now() + sim::kSecond);
    if (!iias->allAdjacent()) {
      stable_rounds = 0;
      continue;
    }
    const std::size_t routes = iias->totalOspfRoutes();
    if (routes == stable_routes && routes > 0) {
      if (++stable_rounds >= 3) return true;
    } else {
      stable_routes = routes;
      stable_rounds = 0;
    }
  }
  return false;
}

namespace {

overlay::IiasConfig iiasConfig(const WorldOptions& options) {
  overlay::IiasConfig config;
  config.costs = clickCosts();
  config.ospf.hello_interval = options.hello_interval;
  config.ospf.dead_interval = options.dead_interval;
  config.enable_rip = options.enable_rip;
  config.socket_buffer = kIiasSocketBuffer;
  return config;
}

core::ViniConfig viniConfig(const WorldOptions& options) {
  core::ViniConfig config;
  config.expose_underlay_failures = options.expose_underlay_failures;
  return config;
}

/// Attach `options.spare_nodes` empty substrate nodes as migration
/// destinations.  `first_octet` is the last-octet base for their
/// addresses; `anchors` are the existing nodes each spare links to.
/// Spare links get a ~10000x IGP weight so no pre-existing best path
/// ever detours through a spare: enabling spares leaves every seeded
/// baseline byte-identical.
void addSpareNodes(phys::PhysNetwork& net, const WorldOptions& options,
                   packet::IpAddress subnet, int addr_base,
                   const std::vector<std::string>& anchors, double link_bps,
                   double one_way_ms) {
  for (int i = 1; i <= options.spare_nodes; ++i) {
    phys::PhysNode& spare = net.addNode(
        "Spare" + std::to_string(i),
        packet::IpAddress((subnet.value() & 0xffffff00u) |
                          static_cast<std::uint32_t>(addr_base + i)),
        deterCpu(options.seed + 1000 + static_cast<std::uint64_t>(i)));
    for (const auto& anchor : anchors) {
      phys::LinkConfig config;
      config.bandwidth_bps = link_bps;
      config.propagation = sim::fromMillis(one_way_ms);
      config.weight = 10000.0;
      net.addLink(spare, *net.nodeByName(anchor), config);
    }
  }
  if (options.spare_nodes > 0) net.recomputeRoutes();
}

}  // namespace

std::unique_ptr<World> makeDeterWorld(const WorldOptions& options) {
  phys::NetworkConfig net_config;
  net_config.mask_failures = options.mask_underlay_failures;
  net_config.seed = options.seed;
  auto world = std::make_unique<World>(deterHost(), net_config,
                                       options.threads);

  DeterOptions deter;
  deter.seed = options.seed + 100;
  buildDeter(world->net, deter);
  addSpareNodes(world->net, options, packet::IpAddress(192, 168, 10, 0), 100,
                {"Src", "Fwdr", "Sink"}, deter.link_bps, deter.one_way_ms);

  world->vini = std::make_unique<core::Vini>(world->net, viniConfig(options));
  core::TopologyEmbedder embedder(*world->vini);
  auto embedding = embedder.embed(deterChainSpec(), options.resources);
  world->iias = std::make_unique<overlay::IiasNetwork>(
      std::move(embedding), world->stacks, iiasConfig(options));
  world->iias->start();
  world->finalizeSharding();
  return world;
}

std::unique_ptr<World> makeAbileneSubstrate(const WorldOptions& options) {
  phys::NetworkConfig net_config;
  net_config.mask_failures = options.mask_underlay_failures;
  net_config.seed = options.seed;
  auto world = std::make_unique<World>(planetLabHost(), net_config,
                                       options.threads);

  AbileneOptions abilene;
  abilene.seed = options.seed + 200;
  abilene.contention = options.contention;
  buildAbilene(world->net, abilene);
  addSpareNodes(world->net, options, packet::IpAddress(198, 32, 154, 0), 200,
                {"Denver", "KansasCity"}, abilene.backbone_bps, 5.0);

  world->vini = std::make_unique<core::Vini>(world->net, viniConfig(options));
  // Safe before the overlay exists: lanes are keyed by *physical* node
  // tags, and every physical name was interned when its links were
  // built — stacking IIAS on the substrate only re-interns them.
  world->finalizeSharding();
  return world;
}

std::unique_ptr<World> makeAbileneWorld(const WorldOptions& options) {
  auto world = makeAbileneSubstrate(options);
  core::TopologyEmbedder embedder(*world->vini);
  auto embedding = embedder.embed(abileneMirrorSpec(), options.resources);
  world->iias = std::make_unique<overlay::IiasNetwork>(
      std::move(embedding), world->stacks, iiasConfig(options));
  world->iias->start();
  world->finalizeSharding();
  return world;
}

}  // namespace vini::topo
