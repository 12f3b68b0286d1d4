// Ready-made experiment worlds.
//
// A World bundles the full stack an experiment needs — event queue,
// physical network, host stacks, the VINI layer, and an IIAS overlay —
// wired the way the paper's two environments were:
//
//  * DETER (Section 5.1.1): three dedicated 2.8 GHz machines in a chain
//    on Gig-E, no CPU contention;
//  * PlanetLab-on-Abilene (Sections 5.1.2, 5.2): eleven shared P-III
//    nodes co-located with the Abilene PoPs, 100 Mb/s access NICs,
//    configurable contention, IIAS mirroring the real topology and IGP
//    weights.
//
// Tests, benches, and examples all build on these.
#pragma once

#include <memory>
#include <string>

#include "core/embedder.h"
#include "core/schedule.h"
#include "core/vini.h"
#include "overlay/iias.h"
#include "phys/network.h"
#include "sim/event_queue.h"
#include "tcpip/stack_manager.h"
#include "topo/abilene.h"
#include "topo/calibration.h"

namespace vini::topo {

struct WorldOptions {
  /// Slice resources: zero/false = PlanetLab default share; the paper's
  /// PL-VINI configuration is {0.25, true}.
  core::ResourceSpec resources;
  /// Contention on shared nodes (ignored for DETER).
  double contention = kPlanetLabContention;
  /// OSPF timers; the Section 5 experiments run hello = 5 s,
  /// dead = 10 s.
  sim::Duration hello_interval = 5 * sim::kSecond;
  sim::Duration dead_interval = 10 * sim::kSecond;
  bool enable_rip = false;
  /// Underlay failure masking (plain-overlay mode, for the ablation).
  bool mask_underlay_failures = false;
  bool expose_underlay_failures = true;
  std::uint64_t seed = 1;
  /// Spare substrate nodes ("Spare1", "Spare2", ...) kept empty at
  /// startup as live-migration destinations.  Their links carry a
  /// prohibitively high IGP weight so baseline underlay routing — and
  /// therefore every existing seeded run — is byte-identical at 0 and
  /// above.
  int spare_nodes = 0;
  /// Worker threads for the sharded engine.  0 = classic single-threaded
  /// engine (byte-identical to the pre-sharding builds); N >= 1 runs the
  /// parallel sharded schedule, whose exports are byte-identical for
  /// every N (threads == 1 is the determinism gate's serial reference).
  /// World factories call World::finalizeSharding() automatically.
  int threads = 0;
};

class World {
 public:
  World(tcpip::HostConfig host_default, phys::NetworkConfig net_config,
        int threads = 0);

  sim::EventQueue queue;
  phys::PhysNetwork net;
  tcpip::StackManager stacks;
  core::EventSchedule schedule;
  std::unique_ptr<core::Vini> vini;
  std::unique_ptr<overlay::IiasNetwork> iias;

  /// Host stack of a physical node (created on demand).
  tcpip::HostStack& stack(const std::string& node_name);

  overlay::IiasRouter* router(const std::string& vnode_name) {
    return iias ? iias->router(vnode_name) : nullptr;
  }

  /// tap0 address of a virtual node.
  packet::IpAddress tapOf(const std::string& vnode_name);

  /// Run until the overlay is adjacency-complete and the route count is
  /// stable; returns false if `deadline` passes first.
  bool runUntilConverged(sim::Duration deadline = 120 * sim::kSecond);

  /// Freeze the lane set and arm the sharded engine (no-op for
  /// threads == 0, idempotent).  The factories below call this after the
  /// world is fully built — every component has interned its node tag by
  /// then — using the topology's minimum cross-node propagation delay as
  /// the conservative lookahead window.  Call manually only for worlds
  /// assembled by hand.
  void finalizeSharding();
};

/// DETER chain: Src - Fwdr - Sink, IIAS on top (Figures 3 and 4).
std::unique_ptr<World> makeDeterWorld(const WorldOptions& options = {});

/// Abilene mirror: the Section 5.2 environment.
std::unique_ptr<World> makeAbileneWorld(const WorldOptions& options = {});

/// Abilene substrate only (no slice/overlay) — for multi-slice tests.
std::unique_ptr<World> makeAbileneSubstrate(const WorldOptions& options = {});

}  // namespace vini::topo
