// FaultInjector: schedules a FaultSchedule against a live world.
//
// The injector turns parsed/generated fault events into labelled
// EventSchedule actions, so every injected fault lands in the
// experiment's audit log exactly like a scripted action.  It composes
// the two reasons a link can be down — an explicit link fault and a
// crashed endpoint node — as independent holds: the link comes back
// only when both clear.  Killed routing daemons are handed to the
// Supervisor (backoff restart, full state loss); without one, kills and
// restarts act directly on the processes.
//
// Every applied fault is mirrored into the obs metrics registry as
// fault.<entity>.<kind> counters (plus fault.all.* totals) when an obs
// context is installed — the chaos report and dashboards read them.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule.h"
#include "core/thread_annotations.h"
#include "fault/fault.h"
#include "fault/supervisor.h"
#include "overlay/iias.h"
#include "phys/network.h"

namespace vini::fault {

class FaultInjector {
 public:
  /// `overlay` and `supervisor` may be null: without an overlay, node,
  /// proc and vlink events are rejected at apply(); without a
  /// supervisor, killed processes stay dead until an explicit restart
  /// event.
  FaultInjector(core::EventSchedule& schedule, phys::PhysNetwork& net,
                overlay::IiasNetwork* overlay = nullptr,
                Supervisor* supervisor = nullptr);

  /// Validate every event against the world and schedule it.  Throws
  /// std::runtime_error on unknown links/virtual links/nodes/groups or
  /// on node/proc/vlink events without an overlay.
  void apply(const FaultSchedule& schedule);

  // -- Immediate operations (the scheduled thunks call these; tests may
  // call them directly) ----------------------------------------------------

  void setLinkFault(const std::string& a, const std::string& b, bool down);
  void degradeLink(const std::string& a, const std::string& b,
                   const DegradeSpec& spec);
  void restoreLink(const std::string& a, const std::string& b);
  void crashNode(const std::string& name);
  void restartNode(const std::string& name);
  void procEvent(const std::string& node, ProcClass proc, bool kill);
  /// Fail/restore every member of a defined SRLG atomically (one event).
  void srlgEvent(const std::string& group, bool down);
  /// Fail/restore one IIAS virtual link inside Click (Section 5.2).
  void vlinkEvent(const std::string& a, const std::string& b, bool down);

  bool nodeCrashed(const std::string& name) const {
    shard_.assertHeld();
    return crashed_nodes_.count(name) != 0;
  }

  // -- Live migration hooks ---------------------------------------------------

  /// Handler for `migrate <router> to <node>` events: (router,
  /// destination substrate node, optional budget in ms).  Without one,
  /// apply() rejects schedules containing migrate events.
  using MigrationHandler = std::function<void(
      const std::string&, const std::string&, std::optional<double>)>;
  void setMigrationHandler(MigrationHandler handler) {
    shard_.assertHeld();
    migration_handler_ = std::move(handler);
  }

  /// Queried with a virtual router name before any daemon-level
  /// operation; returning true means the router is frozen mid-migration
  /// and its daemons must not be touched (their pointers are about to be
  /// rebuilt on another node).  Link-level effects still apply.
  void setMigrationGuard(std::function<bool(const std::string&)> guard) {
    shard_.assertHeld();
    migration_guard_ = std::move(guard);
  }

 private:
  struct LinkState {
    bool fault_down = false;  ///< explicit link fault held
    int crash_holds = 0;      ///< endpoints currently crashed
  };

  phys::PhysLink& linkOrThrow(const std::string& a, const std::string& b);
  /// The overlay's virtual link a-b; throws without an overlay.
  core::VirtualLink& vlinkOrThrow(const std::string& a, const std::string& b);
  void refreshLink(phys::PhysLink& link);
  LinkState& stateOf(const phys::PhysLink& link);
  /// Register the node's routing daemons with the supervisor (id
  /// "<node>/<class>") the first time a fault touches them.
  void ensureManaged(const std::string& node);
  void recordFault(const std::string& entity, const char* kind);
  bool frozen(const std::string& router) const;

  // Fault events touch links whose endpoints may live on different
  // shards; the injector will run on the shard owning the schedule's
  // queue and reach others through their mailboxes.
  core::ShardToken shard_;
  core::EventSchedule& schedule_;
  phys::PhysNetwork& net_;
  overlay::IiasNetwork* overlay_;
  Supervisor* supervisor_;
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      srlgs_ VINI_GUARDED_BY(shard_);
  // cross-shard: a link's endpoints may be owned by two shards.
  std::map<int, LinkState> link_states_ VINI_GUARDED_BY(shard_);  // by PhysLink::id()
  std::set<std::string> crashed_nodes_ VINI_GUARDED_BY(shard_);
  MigrationHandler migration_handler_ VINI_GUARDED_BY(shard_);
  std::function<bool(const std::string&)> migration_guard_
      VINI_GUARDED_BY(shard_);
};

}  // namespace vini::fault
