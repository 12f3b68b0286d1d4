// Chaos campaigns: seeded random fault storms with invariant audits.
//
// runChaosCampaign drives a ready-made World through a generated fault
// campaign (links flapping and degrading, nodes crashing, routing
// daemons killed and supervised back to life), waits for quiescence,
// and then audits the invariants that must hold in any correct run:
//
//   V120  the overlay re-converged within the recovery bound
//   V121  no forwarding loop between any pair of router taps
//   V122  channel stats and the obs metrics registry agree (packet
//         conservation between the data path and its observers)
//   V123  no timer owned by a dead routing process is still armed
//
// Everything — fault times, backoff jitter, protocol timers — draws
// from seeded streams, so a campaign is bit-reproducible: two runs with
// the same seed produce byte-identical event logs and reports.
#pragma once

#include <cstdint>
#include <string>

#include "check/diagnostic.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "fault/supervisor.h"
#include "migrate/manager.h"
#include "topo/worlds.h"

namespace vini::fault {

struct ChaosOptions {
  double duration_seconds = 120.0;
  /// Per-class availability models; mttf/mttr are interpreted against
  /// duration_seconds, so defaults here are chaos-dense, not realistic.
  /// Each class's `enabled` is its one switch; model.seed seeds the
  /// campaign, and the supervisor and migration seeds derive from it.
  /// Live migrations (model.migrate, off by default) need
  /// spare substrate nodes (topo::WorldOptions::spare_nodes) to host
  /// them; with no spares the class stays silent even when enabled.
  /// The migrate class is appended after every other fault class, so
  /// enabling it leaves existing seeded schedules byte-identical.
  CampaignModel model;
  SupervisorConfig supervisor;
  migrate::MigrationPolicy migration;
  /// Extra settle time beyond the last fault before auditing; 0 derives
  /// a bound from the routers' dead interval and the supervisor backoff.
  double recovery_seconds = 0.0;
};

struct ChaosReport {
  /// Deterministic, line-per-event account of everything that happened:
  /// injected faults and supervised restarts, sorted by time.
  std::string event_log;
  check::Report invariants;
  bool converged = false;
  std::size_t fault_event_count = 0;
  std::uint64_t supervised_restarts = 0;
  /// Migration accounting (present only when model.migrate was
  /// enabled; format() omits the line otherwise, so enabling the class
  /// changes no migration-free campaign's report).
  bool migrations_enabled = false;
  std::size_t migrations_requested = 0;
  std::size_t migrations_completed = 0;
  std::size_t migrations_rolled_back = 0;
  /// MigrationManager::reportJson() — the CI artifact.
  std::string migration_json;

  bool passed() const { return converged && !invariants.hasErrors(); }
  /// Full human-readable report (also byte-stable across runs).
  std::string format() const;
};

/// Defaults for ChaosOptions::model tuned so a 120 s campaign exercises
/// every fault class a handful of times.
CampaignModel denseCampaignModel(std::uint64_t seed);

/// Run a seeded campaign against the world and audit the invariants.
/// The world must already be converged (or be freshly built; the
/// harness converges it first).
ChaosReport runChaosCampaign(topo::World& world, const ChaosOptions& options);

}  // namespace vini::fault
