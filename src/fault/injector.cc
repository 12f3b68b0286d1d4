#include "fault/injector.h"

#include <cstring>
#include <stdexcept>

#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace vini::fault {

FaultInjector::FaultInjector(core::EventSchedule& schedule,
                             phys::PhysNetwork& net,
                             overlay::IiasNetwork* overlay,
                             Supervisor* supervisor)
    : schedule_(schedule), net_(net), overlay_(overlay), supervisor_(supervisor) {}

phys::PhysLink& FaultInjector::linkOrThrow(const std::string& a,
                                           const std::string& b) {
  shard_.assertHeld();
  phys::PhysLink* link = net_.linkBetween(a, b);
  if (!link) {
    throw std::runtime_error("fault schedule references unknown link " + a +
                             "-" + b);
  }
  return *link;
}

core::VirtualLink& FaultInjector::vlinkOrThrow(const std::string& a,
                                              const std::string& b) {
  shard_.assertHeld();
  core::VirtualLink* link =
      overlay_ != nullptr ? overlay_->slice().linkBetween(a, b) : nullptr;
  if (!link) {
    throw std::runtime_error("fault schedule references unknown virtual link " +
                             a + "-" + b);
  }
  return *link;
}

FaultInjector::LinkState& FaultInjector::stateOf(const phys::PhysLink& link) {
  shard_.assertHeld();
  return link_states_[link.id()];
}

void FaultInjector::refreshLink(phys::PhysLink& link) {
  shard_.assertHeld();
  const LinkState& state = stateOf(link);
  const bool up = !state.fault_down && state.crash_holds == 0;
  if (up != link.isUp()) net_.setLinkState(link, up);
}

void FaultInjector::recordFault(const std::string& entity, const char* kind) {
  shard_.assertHeld();
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    ctx->metrics.counter("fault", entity, kind).inc();
    ctx->metrics.counter("fault", "all", kind).inc();
    if (ctx->clock != nullptr) {
      ctx->timeline.instant("fault/" + entity, kind, ctx->clock->now());
    }
  }
}

void FaultInjector::setLinkFault(const std::string& a, const std::string& b,
                                 bool down) {
  shard_.assertHeld();
  phys::PhysLink& link = linkOrThrow(a, b);
  stateOf(link).fault_down = down;
  refreshLink(link);
  recordFault(link.name(), down ? "link_down" : "link_up");
}

void FaultInjector::degradeLink(const std::string& a, const std::string& b,
                                const DegradeSpec& spec) {
  shard_.assertHeld();
  phys::PhysLink& link = linkOrThrow(a, b);
  phys::LinkConfig config = link.config();
  if (spec.loss_rate) config.loss_rate = *spec.loss_rate;
  if (spec.delay_seconds) config.propagation = sim::fromSeconds(*spec.delay_seconds);
  if (spec.bandwidth_bps) config.bandwidth_bps = *spec.bandwidth_bps;
  link.applyConfig(config);
  recordFault(link.name(), "degrade");
}

void FaultInjector::restoreLink(const std::string& a, const std::string& b) {
  shard_.assertHeld();
  phys::PhysLink& link = linkOrThrow(a, b);
  link.restoreConfig();
  recordFault(link.name(), "restore");
}

bool FaultInjector::frozen(const std::string& router) const {
  shard_.assertHeld();
  return migration_guard_ && migration_guard_(router);
}

void FaultInjector::ensureManaged(const std::string& node) {
  shard_.assertHeld();
  if (!supervisor_ || !overlay_) return;
  // Never capture daemon pointers of a router that is frozen for
  // migration: they are about to be rebuilt on another substrate node.
  if (frozen(node)) return;
  for (const auto& router : overlay_->routers()) {
    if (router->vnode().name() != node) continue;
    overlay::IiasRouter* r = router.get();
    if (xorp::OspfProcess* ospf = r->xorp().ospf()) {
      supervisor_->manage(node + "/ospf", [ospf] { ospf->stop(); },
                          [ospf] { ospf->start(); });
    }
    if (xorp::RipProcess* rip = r->xorp().rip()) {
      supervisor_->manage(node + "/rip", [rip] { rip->stop(); },
                          [rip] { rip->start(); });
    }
    if (xorp::BgpProcess* bgp = r->xorp().bgp()) {
      supervisor_->manage(node + "/bgp", [bgp] { bgp->stop(); },
                          [bgp] { bgp->start(); });
    }
    return;
  }
}

namespace {

overlay::IiasRouter* routerOnPhysNode(overlay::IiasNetwork* overlay,
                                      const std::string& phys_name) {
  if (!overlay) return nullptr;
  for (const auto& router : overlay->routers()) {
    if (router->vnode().physNode().name() == phys_name) return router.get();
  }
  return nullptr;
}

xorp::XorpInstance* xorpOnNode(overlay::IiasNetwork* overlay,
                               const std::string& vnode_name) {
  if (!overlay) return nullptr;
  overlay::IiasRouter* router = overlay->router(vnode_name);
  return router ? &router->xorp() : nullptr;
}

}  // namespace

void FaultInjector::crashNode(const std::string& name) {
  shard_.assertHeld();
  if (crashed_nodes_.count(name)) return;  // already down
  phys::PhysNode* node = net_.nodeByName(name);
  if (!node) {
    throw std::runtime_error("fault schedule references unknown node " + name);
  }
  crashed_nodes_.insert(name);
  // A dead machine's routing daemons die with it, and no restart can
  // happen until the machine itself comes back (supervisor hold).
  if (overlay::IiasRouter* router = routerOnPhysNode(overlay_, name)) {
    const std::string vnode = router->vnode().name();
    if (!frozen(vnode)) {
      ensureManaged(vnode);
      if (supervisor_) {
        for (const char* cls : {"ospf", "rip", "bgp"}) {
          const std::string id = vnode + "/" + cls;
          if (supervisor_->manages(id)) supervisor_->hold(id);
        }
      } else {
        router->xorp().stop();
      }
    }
  }
  // Every attached link loses carrier.
  for (const auto& link : net_.links()) {
    if (!link->attaches(node->id())) continue;
    ++stateOf(*link).crash_holds;
    refreshLink(*link);
  }
  recordFault(name, "node_crash");
}

void FaultInjector::restartNode(const std::string& name) {
  shard_.assertHeld();
  if (!crashed_nodes_.count(name)) return;  // not down
  phys::PhysNode* node = net_.nodeByName(name);
  if (!node) {
    throw std::runtime_error("fault schedule references unknown node " + name);
  }
  crashed_nodes_.erase(name);
  for (const auto& link : net_.links()) {
    if (!link->attaches(node->id())) continue;
    LinkState& state = stateOf(*link);
    if (state.crash_holds > 0) --state.crash_holds;
    refreshLink(*link);
  }
  if (overlay::IiasRouter* router = routerOnPhysNode(overlay_, name)) {
    const std::string vnode = router->vnode().name();
    if (!frozen(vnode)) {
      if (supervisor_) {
        for (const char* cls : {"ospf", "rip", "bgp"}) {
          const std::string id = vnode + "/" + cls;
          if (supervisor_->manages(id)) supervisor_->release(id);
        }
      } else {
        router->xorp().start();
      }
    }
  }
  recordFault(name, "node_restart");
}

void FaultInjector::procEvent(const std::string& node, ProcClass proc,
                              bool kill) {
  shard_.assertHeld();
  xorp::XorpInstance* xorp = xorpOnNode(overlay_, node);
  if (!xorp) {
    throw std::runtime_error("fault schedule references unknown router node " +
                             node);
  }
  const std::string id = node + "/" + procClassName(proc);
  if (frozen(node)) {
    // The daemons are checkpointed and mid-flight; the kill "lands" on a
    // process that no longer exists here.  Count it and move on.
    recordFault(id, "proc_skip_frozen");
    return;
  }
  ensureManaged(node);
  if (supervisor_ && supervisor_->manages(id)) {
    kill ? supervisor_->kill(id) : supervisor_->restartNow(id);
  } else {
    switch (proc) {
      case ProcClass::kOspf:
        if (xorp->ospf()) kill ? xorp->ospf()->stop() : xorp->ospf()->start();
        break;
      case ProcClass::kRip:
        if (xorp->rip()) kill ? xorp->rip()->stop() : xorp->rip()->start();
        break;
      case ProcClass::kBgp:
        if (xorp->bgp()) kill ? xorp->bgp()->stop() : xorp->bgp()->start();
        break;
    }
  }
  recordFault(id, kill ? "proc_kill" : "proc_restart");
}

void FaultInjector::srlgEvent(const std::string& group, bool down) {
  shard_.assertHeld();
  auto it = srlgs_.find(group);
  if (it == srlgs_.end()) {
    throw std::runtime_error("fault schedule references undefined srlg " +
                             group);
  }
  // One scheduled thunk fails every member: atomic at simulation time.
  for (const auto& [a, b] : it->second) {
    phys::PhysLink& link = linkOrThrow(a, b);
    stateOf(link).fault_down = down;
    refreshLink(link);
  }
  recordFault(group, down ? "srlg_down" : "srlg_up");
}

void FaultInjector::vlinkEvent(const std::string& a, const std::string& b,
                               bool down) {
  shard_.assertHeld();
  core::VirtualLink& link = vlinkOrThrow(a, b);
  if (down) {
    overlay_->failLink(a, b);
  } else {
    overlay_->restoreLink(a, b);
  }
  recordFault(link.name(), down ? "vlink_down" : "vlink_up");
}

void FaultInjector::apply(const FaultSchedule& schedule) {
  shard_.assertHeld();
  // Validate up front so a bad schedule fails before anything runs.
  for (const auto& [group, members] : schedule.srlgs) {
    for (const auto& [a, b] : members) linkOrThrow(a, b);
    srlgs_[group] = members;
  }
  for (const auto& event : schedule.events) {
    switch (event.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkRestore:
        linkOrThrow(event.a, event.b);
        break;
      case FaultKind::kNodeCrash:
      case FaultKind::kNodeRestart:
        if (!net_.hasNode(event.a)) {
          throw std::runtime_error("fault schedule references unknown node " +
                                   event.a);
        }
        break;
      case FaultKind::kProcKill:
      case FaultKind::kProcRestart:
        if (!xorpOnNode(overlay_, event.a)) {
          throw std::runtime_error(
              "fault schedule references unknown router node " + event.a);
        }
        break;
      case FaultKind::kSrlgDown:
      case FaultKind::kSrlgUp:
        if (!srlgs_.count(event.a)) {
          throw std::runtime_error("fault schedule references undefined srlg " +
                                   event.a);
        }
        break;
      case FaultKind::kMigrate:
        if (!migration_handler_) {
          throw std::runtime_error(
              "fault schedule contains migrate events but no migration "
              "handler is installed");
        }
        if (overlay_ == nullptr || overlay_->router(event.a) == nullptr) {
          throw std::runtime_error(
              "fault schedule migrates unknown router " + event.a);
        }
        if (!net_.hasNode(event.b)) {
          throw std::runtime_error(
              "fault schedule migrates to unknown node " + event.b);
        }
        break;
      case FaultKind::kVlinkDown:
      case FaultKind::kVlinkUp:
        vlinkOrThrow(event.a, event.b);
        break;
    }
  }

  for (const auto& event : schedule.events) {
    std::string label = "fault ";
    switch (event.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkRestore:
        label += "link " + event.a + "-" + event.b;
        break;
      case FaultKind::kNodeCrash:
      case FaultKind::kNodeRestart:
        label += "node " + event.a;
        break;
      case FaultKind::kProcKill:
      case FaultKind::kProcRestart:
        label += "proc " + event.a + " " + procClassName(event.proc);
        break;
      case FaultKind::kSrlgDown:
      case FaultKind::kSrlgUp:
        label += "srlg " + event.a;
        break;
      case FaultKind::kMigrate:
        label += "migrate " + event.a + " to " + event.b;
        break;
      case FaultKind::kVlinkDown:
      case FaultKind::kVlinkUp:
        label += "vlink " + event.a + "-" + event.b;
        break;
    }
    const char* space = std::strrchr(faultKindName(event.kind), ' ');
    label += space ? space : "";

    const FaultEvent ev = event;
    schedule_.atSeconds(event.at_seconds, label, [this, ev] {
      switch (ev.kind) {
        case FaultKind::kLinkDown: setLinkFault(ev.a, ev.b, true); break;
        case FaultKind::kLinkUp: setLinkFault(ev.a, ev.b, false); break;
        case FaultKind::kLinkDegrade: degradeLink(ev.a, ev.b, ev.degrade); break;
        case FaultKind::kLinkRestore: restoreLink(ev.a, ev.b); break;
        case FaultKind::kNodeCrash: crashNode(ev.a); break;
        case FaultKind::kNodeRestart: restartNode(ev.a); break;
        case FaultKind::kProcKill: procEvent(ev.a, ev.proc, true); break;
        case FaultKind::kProcRestart: procEvent(ev.a, ev.proc, false); break;
        case FaultKind::kSrlgDown: srlgEvent(ev.a, true); break;
        case FaultKind::kSrlgUp: srlgEvent(ev.a, false); break;
        case FaultKind::kMigrate:
          if (migration_handler_) {
            recordFault(ev.a, "migrate");
            migration_handler_(ev.a, ev.b, ev.budget_ms);
          }
          break;
        case FaultKind::kVlinkDown: vlinkEvent(ev.a, ev.b, true); break;
        case FaultKind::kVlinkUp: vlinkEvent(ev.a, ev.b, false); break;
      }
    });
  }
}

}  // namespace vini::fault
