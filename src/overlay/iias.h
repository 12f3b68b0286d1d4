// IiasNetwork: an "Internet In A Slice" deployed over an embedding.
//
// Builds one IiasRouter per virtual node, registers interfaces with the
// embedding's IGP metrics, wires underlay fate-sharing into the routers'
// drop filters, and provides the experiment controls of Section 5.2:
// failing and restoring virtual links by dropping packets within Click.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/embedder.h"
#include "core/vini.h"
#include "overlay/iias_router.h"
#include "tcpip/stack_manager.h"

namespace vini::overlay {

class IiasNetwork {
 public:
  IiasNetwork(core::Embedding embedding, tcpip::StackManager& stacks,
              IiasConfig config = {});
  ~IiasNetwork();

  IiasNetwork(const IiasNetwork&) = delete;
  IiasNetwork& operator=(const IiasNetwork&) = delete;

  /// Start every router's routing protocols.
  void start();
  void stop();

  core::Slice& slice() { return *embedding_.slice; }
  const core::Embedding& embedding() const { return embedding_; }

  IiasRouter* router(const std::string& vnode_name);
  const std::vector<std::unique_ptr<IiasRouter>>& routers() const {
    return routers_;
  }
  tcpip::StackManager& stacks() { return stacks_; }

  // -- Live migration ----------------------------------------------------------

  /// Rebuild the named virtual node's router on its *current* substrate
  /// home (the caller re-homed the node through core::Vini first) and
  /// repair every neighbor's tunnel to point at the new address.  The
  /// replacement starts stopped with an empty control plane — restore a
  /// checkpoint and start() it.  Returns the retired predecessor,
  /// detached from its stack but kept alive: queued data-plane closures
  /// may still reference its elements.  `previous_node_addr` is the
  /// substrate address the node lived at before the re-home (neighbors
  /// may still hold drop-filter state keyed by it).
  std::unique_ptr<IiasRouter> rehomeRouter(const std::string& vnode_name,
                                           packet::IpAddress previous_node_addr);

  // -- Section 5.2 failure controls -------------------------------------------

  /// Fail the virtual link between two virtual nodes by dropping its
  /// packets inside Click at both ends.  The failure holds until
  /// restoreLink, whatever the underlay does meanwhile.
  void failLink(const std::string& a, const std::string& b);
  void restoreLink(const std::string& a, const std::string& b);

  /// Enable upcall-driven fast failover (Section 6.1: "performing
  /// 'upcalls' to notify the affected slices"): when the VINI layer
  /// reports a virtual link down (an exposed underlay failure), the
  /// routers at both ends tear the OSPF adjacency down immediately
  /// instead of waiting out the 10 s dead interval.
  void enableUpcallFailover(core::Vini& vini);

  // -- Convergence helpers --------------------------------------------------------

  /// True when every router is fully adjacent on every up interface.
  bool allAdjacent() const;

  /// Total OSPF route count across routers (for convergence checks).
  std::size_t totalOspfRoutes() const;

 private:
  /// Block or unblock the link's tunnels; a link failed by failLink
  /// stays blocked.
  void applyLinkState(core::VirtualLink& link, bool up);

  core::Embedding embedding_;
  tcpip::StackManager& stacks_;
  IiasConfig config_;
  std::vector<std::unique_ptr<IiasRouter>> routers_;
  std::map<std::string, IiasRouter*> by_name_;
  std::set<int> failed_links_;  ///< VirtualLink::id() held down by failLink
};

}  // namespace vini::overlay
