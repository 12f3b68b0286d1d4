// MigrationManager: live slice migration with downtime budgets.
//
// Moves a running virtual router (IIAS router + tunnels + XORP daemons)
// between substrate nodes without breaking established TCP flows
// through it.  The state machine:
//
//   prepare -> pre-copy -> freeze -> switchover -> resume -> verify
//                             \         |
//                              \        v (probe fails / admission)
//                               \    retry (capped exp backoff + jitter)
//                                \      |
//                                 `-> rollback (budget would be breached)
//
// Every phase has an explicit deadline.  The downtime budget governs
// the freeze window: if retries cannot complete the switchover inside
// the budget, the manager rolls back — the source router warm-restarts
// from the same checkpoint, with its original OpenVPN leases intact —
// so the budget holds on *every* path.
//
// Runtime invariants (auditInvariants):
//   V130  downtime within budget, on completed and rolled-back
//         migrations alike;
//   V131  no forwarding loop across the overlay at the moment a
//         migration resumes (checked against the live FIBs);
//   V132  migration-span conservation: every freeze has exactly one
//         matching resume or rollback, and no router is left frozen;
//   V133  no frozen-instance timers firing: retired and rolled-over
//         daemon instances hold no armed timers.
//
// The freeze window is exported to the obs Timeline as a
// "migrate/<router>" track (switchover duration + phase instants), so
// the outage is visible in Chrome-trace form next to the packet spans.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "check/diagnostic.h"
#include "core/vini.h"
#include "migrate/checkpoint.h"
#include "overlay/iias.h"
#include "overlay/openvpn.h"
#include "phys/network.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace vini::migrate {

/// Phase deadlines and the switchover retry policy (the Supervisor's
/// capped-exponential-backoff-with-seeded-jitter shape).
struct MigrationPolicy {
  /// Downtime allowed between freeze and resume when the migrate verb
  /// does not carry its own `budget=` value.
  double default_budget_ms = 500.0;
  /// Pre-copy duration ceiling (the warm state transfer ahead of the
  /// freeze; actual duration scales with checkpoint size).
  sim::Duration precopy_deadline = 5 * sim::kSecond;
  /// How long a retired source instance lingers before verification
  /// tears it down — queued data-plane closures drain meanwhile.
  sim::Duration verify_delay = 10 * sim::kSecond;
  int max_switchover_attempts = 5;
  /// Delay before switchover retry n (never below 1 ns).
  sim::Backoff backoff{50 * sim::kMillisecond, 2.0, sim::kSecond, 0.25};
  std::uint64_t seed = 1;
};

struct MigrationRecord {
  std::string router;
  std::string from;  ///< substrate node at request time
  std::string to;    ///< requested destination
  double budget_ms = 0;
  sim::Time t_request = 0;
  sim::Time t_freeze = 0;
  sim::Time t_resume = 0;
  sim::Time t_verified = 0;
  double downtime_ms = 0;
  int attempts = 0;
  bool completed = false;    ///< switched over and verified
  bool rolled_back = false;  ///< back on the source, budget respected
  std::string failure;       ///< why the switchover gave up (if it did)
};

class MigrationManager {
 public:
  MigrationManager(sim::EventQueue& queue, phys::PhysNetwork& net,
                   core::Vini& vini, overlay::IiasNetwork& iias,
                   MigrationPolicy policy = {});
  ~MigrationManager();

  MigrationManager(const MigrationManager&) = delete;
  MigrationManager& operator=(const MigrationManager&) = delete;

  // -- Wiring ------------------------------------------------------------------

  /// Called at freeze with each supervised daemon id ("<router>/ospf",
  /// ...) so an external supervisor forgets its (soon stale) handles.
  void setDaemonForget(std::function<void(const std::string&)> fn) {
    daemon_forget_ = std::move(fn);
  }

  /// Destination health probe, consulted before each switchover attempt
  /// (e.g. "has chaos crashed that node?").  Absent = always healthy.
  void setNodeProbe(std::function<bool(const std::string&)> fn) {
    node_probe_ = std::move(fn);
  }

  /// Carry an OpenVPN ingress along: when the server's router migrates,
  /// its leases ride the checkpoint, the server re-attaches to the
  /// rebuilt router, and each client re-pins its underlay host route.
  void attachIngress(overlay::OpenVpnServer* server,
                     std::vector<overlay::OpenVpnClient*> clients);

  // -- The verb ----------------------------------------------------------------

  /// Start migrating `router` to substrate node `dest`.  Throws on an
  /// unknown router or destination; a router already mid-migration
  /// logs and skips (campaigns may schedule overlapping moves).
  void requestMigration(const std::string& router, const std::string& dest,
                        std::optional<double> budget_ms = std::nullopt);

  /// True while `router` is frozen (checkpointed, daemons down, its
  /// pointers about to go stale) — fault injectors must not capture or
  /// restart its daemons.
  bool frozen(const std::string& router) const {
    return frozen_.count(router) != 0;
  }

  std::size_t activeMigrations() const { return in_flight_.size(); }
  const std::vector<MigrationRecord>& records() const { return records_; }

  struct LogEntry {
    sim::Time when = 0;
    std::string text;
  };
  const std::vector<LogEntry>& log() const { return log_; }

  /// Append V130–V133 findings to `report` (call on a quiesced world).
  void auditInvariants(check::Report& report) const;

  /// Deterministic JSON summary of every record (the CI artifact).
  std::string reportJson() const;

 private:
  enum class Phase { kPrecopy, kRetry, kVerify };

  struct Active {
    std::size_t record_index = 0;  ///< into records_ (indices are stable)
    std::string router;
    std::string dest;
    packet::IpAddress from_addr;  ///< substrate address before the move
    std::string wire;             ///< checkpoint, in wire form
    bool carries_ingress = false;
    int attempts = 0;
    Phase phase = Phase::kPrecopy;
    /// One timer per migration, created once and re-armed between
    /// phases — a timer must never be destroyed from its own callback.
    std::unique_ptr<sim::OneShotTimer> timer;
    /// Retired instances linger here until verify: queued CPU-process
    /// closures may still hold raw element pointers into them.
    std::vector<std::unique_ptr<overlay::IiasRouter>> retired;
  };

  void step(Active& a);
  void freezeAndSwitch(Active& a);
  void attemptSwitchover(Active& a);
  void resume(Active& a, bool rolled_back);
  void rollback(Active& a, const std::string& why);
  void verify(Active& a);
  void auditNoForwardingLoop(const std::string& context);
  void logLine(const std::string& text);

  sim::EventQueue& queue_;
  phys::PhysNetwork& net_;
  core::Vini& vini_;
  overlay::IiasNetwork& iias_;
  MigrationPolicy policy_;
  sim::Random random_;

  std::function<void(const std::string&)> daemon_forget_;
  std::function<bool(const std::string&)> node_probe_;
  overlay::OpenVpnServer* vpn_server_ = nullptr;
  std::vector<overlay::OpenVpnClient*> vpn_clients_;

  std::set<std::string> frozen_;
  std::map<std::string, std::unique_ptr<Active>> in_flight_;
  std::vector<MigrationRecord> records_;
  std::vector<LogEntry> log_;
  check::Report violations_;  ///< V131 findings, caught live at resume
};

}  // namespace vini::migrate
