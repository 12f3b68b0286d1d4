// The physical substrate network.
//
// PhysNetwork owns the nodes and links of the fixed infrastructure and
// provides underlay IP routing between nodes (shortest path by link
// weight).  Two failure-handling modes exist, because the paper draws a
// sharp line between them (Section 3.1, "Exposure of underlying topology
// changes"):
//
//  * expose (default, the VINI requirement): underlay routes are computed
//    on the configured topology and do NOT route around failures — a
//    packet that reaches a dead link dies, and the virtual links pinned
//    to that physical link share its fate.
//  * mask (the behaviour of a plain overlay on the commodity Internet,
//    which the paper criticises): after a failure, the underlay silently
//    recomputes routes around it following a convergence delay, hiding
//    the event from experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/scheduler.h"
#include "packet/ip_address.h"
#include "phys/link.h"
#include "phys/node.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace vini::phys {

struct NetworkConfig {
  /// If true, the underlay reroutes around failures (masking them).
  bool mask_failures = false;
  /// Convergence delay before masked rerouting takes effect.
  sim::Duration reroute_delay = 200 * sim::kMillisecond;
  std::uint64_t seed = 42;
};

class PhysNetwork {
 public:
  PhysNetwork(sim::EventQueue& queue, NetworkConfig config = {});

  // -- Topology construction ----------------------------------------------

  /// Create a node.  `address` is its public underlay address.
  PhysNode& addNode(const std::string& name, packet::IpAddress address,
                    cpu::SchedulerConfig cpu_config = {});

  /// Create a full-duplex link between two nodes.
  PhysLink& addLink(PhysNode& a, PhysNode& b, LinkConfig config = {});

  /// Register an additional address as belonging to `node` (e.g. an
  /// external server reachable at that node).
  void registerAddress(packet::IpAddress addr, NodeId node);

  // -- Lookup ---------------------------------------------------------------

  PhysNode* nodeById(NodeId id);
  PhysNode* nodeByName(const std::string& name);
  bool hasNode(const std::string& name) const {
    return name_to_node_.count(name) != 0;
  }
  NodeId nodeForAddress(packet::IpAddress addr) const;  ///< -1 if unknown
  PhysLink* linkById(int id);
  PhysLink* linkBetween(NodeId a, NodeId b);
  PhysLink* linkBetween(const std::string& a, const std::string& b);

  std::size_t nodeCount() const { return nodes_.size(); }
  std::size_t linkCount() const { return links_.size(); }
  /// Smallest one-way propagation delay over all links — the largest
  /// conservative lookahead a sharded run of this topology could use,
  /// and the window the shard runtime runs with.  0 when the network
  /// has no links.
  sim::Duration minPropagation() const;
  const std::vector<std::unique_ptr<PhysNode>>& nodes() const { return nodes_; }
  const std::vector<std::unique_ptr<PhysLink>>& links() const { return links_; }

  // -- Underlay routing -----------------------------------------------------

  /// Next link out of `from` toward destination address `dst`; nullptr if
  /// the destination is unknown, local, or unreachable.
  PhysLink* nextLinkFor(NodeId from, packet::IpAddress dst);

  /// Current underlay path between two nodes (sequence of links), or an
  /// empty vector if unreachable.  Virtual links pin themselves to this.
  std::vector<PhysLink*> pathBetween(NodeId a, NodeId b);

  /// Recompute all routing tables immediately.
  void recomputeRoutes();

  /// Fail / restore a link, applying the configured masking behaviour.
  void setLinkState(PhysLink& link, bool up);

  sim::EventQueue& queue() { return queue_; }
  sim::Random& random() { return random_; }
  const NetworkConfig& config() const { return config_; }

 private:
  void runDijkstra(NodeId src, std::vector<int>& next_link_out) const;

  sim::EventQueue& queue_;
  NetworkConfig config_;
  sim::Random random_;
  std::vector<std::unique_ptr<PhysNode>> nodes_;
  std::vector<std::unique_ptr<PhysLink>> links_;
  std::unordered_map<packet::IpAddress, NodeId> address_to_node_;
  std::unordered_map<std::string, NodeId> name_to_node_;
  // next_link_[src][dst] = link id of the first hop, or -1.
  std::vector<std::vector<int>> next_link_;
  bool routes_dirty_ = true;
};

}  // namespace vini::phys
