// Fault schedules: the one scripted-event grammar.
//
// Section 4 promises researchers they can "inject failures" and
// Section 6.2 asks for experiments "specified using the same type of
// syntax that is used to construct ns or Emulab experiments" and for
// playback of real-world event traces.  A *fault schedule* covers
// everything a deployment actually suffers: plain link up/down faults,
// whole-node crashes, routing daemon kills (with supervised restart),
// degraded links (extra loss, inflated delay, reduced bandwidth —
// runtime-mutable LinkConfig), correlated failures through shared-risk
// link groups (SRLGs: one conduit cut takes every fiber in it down
// atomically), and the Section 5.2 experiment control of failing an
// IIAS virtual link by dropping its packets inside Click.  Every
// `.trace` file takes this one path: parseFaultSchedule reads it,
// check::checkFaultSchedule lints it, generateFaultCampaign generates
// it, FaultInjector applies it.
//
// Trace format.  Timeless definition lines first (by convention), then
// one event per line; a line whose first word starts with '#' is a
// comment:
//
//   # add links to a named group
//   srlg westcoast Seattle Sunnyvale
//   srlg westcoast Seattle Denver
//   t=10 link Denver KansasCity down
//   t=40 link Denver KansasCity up
//   t=15 link Chicago NewYork degrade loss=0.2 delay=0.05 bw=10000000
//   t=45 link Chicago NewYork restore
//   t=20 srlg westcoast down
//   t=50 srlg westcoast up
//   t=25 node Houston crash
//   t=55 node Houston restart
//   t=30 proc Atlanta ospf kill
//   t=60 proc Atlanta ospf restart
//   t=35 migrate Denver to SpareWest budget=250
//   t=70 vlink Denver KansasCity down
//   t=94 vlink Denver KansasCity up
//
// `link` acts on the substrate (fate sharing carries it up to every
// virtual link riding it); `vlink` acts on one IIAS virtual link only.
// Times are finite and nonnegative, and every numeric value is finite.
// Parsing throws std::runtime_error naming the line number and the
// offending text; static linting happens in check::checkFaultSchedule.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>


namespace vini::fault {

enum class FaultKind {
  kLinkDown,
  kLinkUp,
  kLinkDegrade,
  kLinkRestore,
  kNodeCrash,
  kNodeRestart,
  kProcKill,
  kProcRestart,
  kSrlgDown,
  kSrlgUp,
  kMigrate,
  kVlinkDown,
  kVlinkUp,
};

enum class ProcClass { kOspf, kRip, kBgp };

const char* faultKindName(FaultKind kind);  ///< "link down", "node crash", ...
const char* procClassName(ProcClass proc);  ///< "ospf", "rip", "bgp"

/// Quality parameters for a degraded link.  Unset fields keep the
/// link's base value; at least one must be set for the event to lint.
struct DegradeSpec {
  std::optional<double> loss_rate;
  std::optional<double> delay_seconds;
  std::optional<double> bandwidth_bps;
};

struct FaultEvent {
  double at_seconds = 0;
  FaultKind kind = FaultKind::kLinkDown;
  /// Link events: a/b are the endpoint node names (virtual node names
  /// for vlink events).  Node and proc events: a is the node name.
  /// SRLG events: a is the group name.
  std::string a;
  std::string b;
  ProcClass proc = ProcClass::kOspf;  ///< proc events only
  DegradeSpec degrade;                ///< degrade events only
  /// Migrate events only: downtime budget in milliseconds (unset =
  /// migrator default).  `a` is the virtual router, `b` the destination
  /// substrate node.
  std::optional<double> budget_ms;
};

struct FaultSchedule {
  /// Named shared-risk groups: group name -> member links (endpoint
  /// name pairs).  A `srlg G down` event fails every member atomically.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>> srlgs;
  std::vector<FaultEvent> events;
};

/// Serialize to / parse from the text format above.  parse throws
/// std::runtime_error naming the line and offending text.
std::string emitFaultSchedule(const FaultSchedule& schedule);
FaultSchedule parseFaultSchedule(const std::string& text);

// -- Seeded campaign generation ---------------------------------------------

/// One fault class's availability model (independent exponential
/// time-to-failure / time-to-repair per entity).  A disabled class
/// forks no random stream, so it leaves every other class's draws as
/// they are.
struct FaultClassModel {
  bool enabled = true;
  double mttf_seconds = 600.0;
  /// Mean time to repair.  For the proc class, 0 means "no explicit
  /// restart events": recovery is the Supervisor's job.
  double mttr_seconds = 60.0;
};

struct CampaignModel {
  /// Seeds the whole campaign.
  std::uint64_t seed = 1;
  /// Plain link up/down faults.
  FaultClassModel link;
  FaultClassModel degrade{true, 900.0, 120.0};
  FaultClassModel node{true, 1200.0, 90.0};
  FaultClassModel proc{true, 600.0, 0.0};
  /// Live-migration events (off by default: only worlds with spare
  /// substrate nodes can honor them).  mttf is the mean gap between
  /// migrations of one router; mttr is unused (a migration completes or
  /// rolls back on its own).
  FaultClassModel migrate{false, 900.0, 0.0};
  /// Quality applied by generated degrade events.
  double degrade_loss = 0.2;
  double degrade_delay_seconds = 0.05;
  double degrade_bandwidth_bps = 10e6;
  /// Downtime budget stamped on generated migrate events.
  double migrate_budget_ms = 500.0;
};

/// One router the campaign may migrate: it ping-pongs between its home
/// substrate node and a spare.
struct MigrationTarget {
  std::string router;  ///< virtual router name
  std::string home;    ///< its original substrate node
  std::string spare;   ///< the spare substrate node to move to
};

/// What the campaign may break.  Node names must not contain '-'.
struct CampaignTargets {
  std::vector<std::string> links;       ///< "A-B" link names
  std::vector<std::string> nodes;       ///< crashable nodes
  std::vector<std::string> proc_nodes;  ///< nodes running routing daemons
  std::vector<ProcClass> proc_classes;  ///< daemon classes to kill
  std::vector<MigrationTarget> migrations;  ///< routers with a spare home
};

/// Generate a seeded fault campaign over [0, duration_seconds).  Each
/// entity evolves through an explicit up/down state machine (failures
/// only inside the horizon, the final repair allowed to cross it), so an
/// entity never fails while already failed.  Events come back sorted by time;
/// identical (targets, duration, model) always yields an identical
/// schedule.  Throws std::invalid_argument when an enabled class has a
/// nonpositive mttf_seconds.
FaultSchedule generateFaultCampaign(const CampaignTargets& targets,
                                    double duration_seconds,
                                    const CampaignModel& model);

}  // namespace vini::fault
