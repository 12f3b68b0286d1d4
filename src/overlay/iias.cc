#include "overlay/iias.h"

#include <stdexcept>

namespace vini::overlay {

IiasNetwork::IiasNetwork(core::Embedding embedding, tcpip::StackManager& stacks,
                         IiasConfig config)
    : embedding_(std::move(embedding)), stacks_(stacks), config_(config) {
  core::Slice& slice = *embedding_.slice;
  for (const auto& vnode : slice.nodes()) {
    tcpip::HostStack& stack = stacks_.ensure(vnode->physNode());
    auto router = std::make_unique<IiasRouter>(*vnode, stack, config_);
    router->registerVifs(embedding_.link_costs);
    by_name_[vnode->name()] = router.get();
    routers_.push_back(std::move(router));
  }
  // Fate sharing: when the VINI layer takes a virtual link down (an
  // underlay failure in expose mode), its tunnels stop carrying packets.
  for (const auto& link : slice.links()) {
    link->subscribe([this](core::VirtualLink& l, bool up) {
      applyLinkState(l, up);
    });
  }
}

IiasNetwork::~IiasNetwork() = default;

void IiasNetwork::start() {
  for (auto& router : routers_) router->start();
}

void IiasNetwork::stop() {
  for (auto& router : routers_) router->stop();
}

IiasRouter* IiasNetwork::router(const std::string& vnode_name) {
  auto it = by_name_.find(vnode_name);
  return it == by_name_.end() ? nullptr : it->second;
}

std::unique_ptr<IiasRouter> IiasNetwork::rehomeRouter(
    const std::string& vnode_name, packet::IpAddress previous_node_addr) {
  IiasRouter* old_router = router(vnode_name);
  if (!old_router) {
    throw std::runtime_error("rehomeRouter: no router for " + vnode_name);
  }
  core::VirtualNode& vnode = old_router->vnode();
  // Detach before the replacement is built: if the destination is the
  // node's original home (a rollback, or a migration back), both
  // routers share a stack and the tap/tunnel endpoints must not clash.
  old_router->detachFromStack();

  tcpip::HostStack& stack = stacks_.ensure(vnode.physNode());
  auto fresh = std::make_unique<IiasRouter>(vnode, stack, config_);
  fresh->registerVifs(embedding_.link_costs);

  std::unique_ptr<IiasRouter> retired;
  for (auto& slot : routers_) {
    if (slot.get() == old_router) {
      retired = std::move(slot);
      slot = std::move(fresh);
      by_name_[vnode_name] = slot.get();
      break;
    }
  }

  // Neighbors still tunnel toward the old substrate address: repoint
  // them, flush drop-filter state keyed by the old address, and re-apply
  // the current virtual-link state against the new one.
  const packet::IpAddress new_addr = vnode.physNode().address();
  for (const auto& iface : vnode.interfaces()) {
    IiasRouter* neighbor = router(iface->link().peerOf(vnode).name());
    if (!neighbor) continue;
    neighbor->remapTunnelPeer(iface->address(), new_addr);
    neighbor->unblockTunnelTo(previous_node_addr);
  }
  for (const auto& link : slice().links()) {
    if (&link->nodeA() != &vnode && &link->nodeB() != &vnode) continue;
    applyLinkState(*link, link->isUp());
  }
  return retired;
}

void IiasNetwork::applyLinkState(core::VirtualLink& link, bool up) {
  IiasRouter* ra = router(link.nodeA().name());
  IiasRouter* rb = router(link.nodeB().name());
  if (!ra || !rb) return;
  up = up && failed_links_.count(link.id()) == 0;
  const packet::IpAddress addr_a = link.nodeA().physNode().address();
  const packet::IpAddress addr_b = link.nodeB().physNode().address();
  if (up) {
    ra->unblockTunnelTo(addr_b);
    rb->unblockTunnelTo(addr_a);
  } else {
    ra->blockTunnelTo(addr_b);
    rb->blockTunnelTo(addr_a);
  }
}

void IiasNetwork::failLink(const std::string& a, const std::string& b) {
  core::VirtualLink* link = slice().linkBetween(a, b);
  if (!link) throw std::runtime_error("no virtual link " + a + "-" + b);
  failed_links_.insert(link->id());
  applyLinkState(*link, false);
}

void IiasNetwork::restoreLink(const std::string& a, const std::string& b) {
  core::VirtualLink* link = slice().linkBetween(a, b);
  if (!link) throw std::runtime_error("no virtual link " + a + "-" + b);
  failed_links_.erase(link->id());
  // Only restore if the VINI layer agrees the link is healthy; otherwise
  // the underlay's recovery unblocks it.
  if (link->isUp()) applyLinkState(*link, true);
}

void IiasNetwork::enableUpcallFailover(core::Vini& vini) {
  vini.upcalls().subscribe(slice().id(), [this](const core::UpcallEvent& event) {
    if (event.type != core::UpcallEvent::Type::kVirtualLinkDown) return;
    if (event.virtual_link_id < 0 ||
        static_cast<std::size_t>(event.virtual_link_id) >=
            slice().links().size()) {
      return;
    }
    core::VirtualLink& link =
        *slice().links()[static_cast<std::size_t>(event.virtual_link_id)];
    for (core::VirtualNode* node : {&link.nodeA(), &link.nodeB()}) {
      IiasRouter* r = router(node->name());
      if (!r) continue;
      core::VirtualInterface* vif = node->interfaceOnLink(link);
      if (vif && r->xorp().ospf()) r->xorp().ospf()->notifyInterfaceDown(*vif);
    }
  });
}

bool IiasNetwork::allAdjacent() const {
  for (const auto& router : routers_) {
    const auto* ospf = router->xorp().ospf();
    if (!ospf) continue;
    for (const auto& iface : router->vnode().interfaces()) {
      if (!iface->isUp()) continue;
      if (ospf->neighborState(*iface) != xorp::NeighborState::kFull) return false;
    }
  }
  return true;
}

std::size_t IiasNetwork::totalOspfRoutes() const {
  std::size_t n = 0;
  for (const auto& router : routers_) {
    n += router->xorp().rib().winners().size();
  }
  return n;
}

}  // namespace vini::overlay
