// Static checkers over everything users author (the vini-verify linter).
//
// The paper's promise is *controlled* experimentation: a misconfigured
// topology, an overcommitted CPU reservation, or a malformed failure
// trace silently breaks that promise long before any VINI mechanism is
// exercised.  These checkers validate every spec up front — the same
// admission-control discipline a real testbed controller applies —
// and report findings through check::Report with stable codes.
//
// Check-code catalogue (V0xx = static checks; see audit.h for V1xx):
//
//   Topology specs (checkTopologySpec)
//     V001  duplicate virtual node name
//     V002  link endpoint references an unknown node
//     V003  self-link (both endpoints the same node)
//     V004  duplicate link (same endpoints, either direction)
//     V005  topology is not connected
//     V006  link with zero IGP cost (breaks shortest-path routing)
//     V007  unsatisfiable physical binding (two virtual nodes bound to
//           one physical node, or a binding to an unknown physical node)
//
//   V010-V014 (the retired experiment-script checker's codes) and
//   V020-V022 (the retired link-trace checker's codes) are never
//   reused: scripted virtual-link failures and plain link up/down
//   traces are fault schedules and report V110/V112/V113 below.
//
//   Fault schedules (checkFaultSchedule)
//     V110  event references an unknown node, link, virtual link, or
//           SRLG (or an SRLG definition names an unknown link)
//     V111  invalid degrade parameters (loss outside [0, 1], nonpositive
//           bandwidth, negative delay, or no parameters at all)
//     V112  lifecycle overlap (crash of an already-crashed node, restart
//           of a node that never crashed, down of an already-down link,
//           virtual link or SRLG, up of a virtual link that is not
//           down, restart of a never-killed process; up of an
//           already-up link or SRLG is a warning, and so is re-kill of
//           an already-killed process — the supervisor may have
//           restarted it off-trace)
//     V113  non-monotonic timestamps
//
//   Node / link / scheduler configs
//     V030  CPU reservations admitted on one node sum past the machine
//     V031  invalid link parameter (nonpositive bandwidth, zero queue,
//           loss rate outside [0, 1])
//     V032  negative link propagation delay
//     V033  nonpositive scheduler parameter (timeslice, speed factor,
//           contention resample period)
//
//   Parsing (reported by vini_lint when a file fails to parse)
//     V098  rcc-style router-config fault (asymmetric adjacency or
//           cost mismatch; warning — the topology still parses)
//     V099  file failed to parse at all
#pragma once

#include <string>
#include <vector>

#include "check/diagnostic.h"
#include "core/embedder.h"
#include "core/slice.h"
#include "cpu/scheduler.h"
#include "fault/fault.h"
#include "phys/link.h"
#include "phys/network.h"

namespace vini::check {

/// Validate a virtual topology spec (V001-V007).  When `net` is given,
/// physical bindings are also resolved against it.
void checkTopologySpec(const core::TopologySpec& spec, Report& report,
                       const phys::PhysNetwork* net = nullptr);

/// Validate a fault schedule (V110-V113).  `topology` resolves node and
/// link references; null disables that part of V110 (SRLG references
/// are still resolved against the schedule's own definitions).
void checkFaultSchedule(const fault::FaultSchedule& schedule, Report& report,
                        const core::TopologySpec* topology = nullptr);

/// Validate one link configuration (V031, V032).
void checkLinkConfig(const phys::LinkConfig& config, const std::string& where,
                     Report& report);

/// Validate one node scheduler configuration (V033).
void checkSchedulerConfig(const cpu::SchedulerConfig& config,
                          const std::string& where, Report& report);

/// One slice's demand on the substrate: its topology plus resources.
struct SliceDemand {
  const core::TopologySpec* topology = nullptr;
  core::ResourceSpec resources;
};

/// Admission pre-check: sum CPU reservations per physical node across
/// all demands (V030).  `max_per_node` mirrors
/// core::ViniConfig::max_node_reservation.
void checkCpuReservations(const std::vector<SliceDemand>& demands,
                          Report& report, double max_per_node = 1.0);

/// Audit a live physical network's link and scheduler configs
/// (V031-V033) — catches programmatically built misconfigurations.
void checkPhysNetworkConfigs(const phys::PhysNetwork& net, Report& report);

}  // namespace vini::check
