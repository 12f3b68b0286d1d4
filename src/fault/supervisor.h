// Supervisor: restart killed processes with exponential backoff.
//
// PL-VINI keeps long-running daemons alive the way any deployment does:
// a supervisor notices the death and restarts the process after a
// backoff that grows exponentially with consecutive failures (so a
// crash-looping daemon does not saturate its node) and carries jitter
// (so daemons killed by one correlated event do not restart in
// lockstep).  The restarted process comes back with *no* state — the
// stop/start hooks are expected to implement full state loss, and the
// routing protocols re-learn adjacencies and routes from scratch.
//
// All randomness is drawn from a seeded stream, so a supervised chaos
// run is bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace vini::fault {

struct SupervisorConfig {
  /// Restart delay after the n-th consecutive failure.
  sim::Backoff backoff{sim::kSecond, 2.0, 60 * sim::kSecond, 0.25};
  /// A process that stayed up this long has its failure count forgiven;
  /// the next death backs off from backoff.initial again.
  sim::Duration stable_uptime = 300 * sim::kSecond;
  std::uint64_t seed = 1;
};

/// One completed (or scheduled) supervised restart, for the audit log.
struct RestartRecord {
  std::string id;
  sim::Time killed_at = 0;
  sim::Time restarted_at = 0;
  sim::Duration delay = 0;
  int attempt = 0;  ///< consecutive-failure count at the time of death
};

class Supervisor {
 public:
  Supervisor(sim::EventQueue& queue, SupervisorConfig config = {});

  /// Register a child.  `stop` must leave the process dead with no
  /// timers pending; `start` must bring it back with empty state.  The
  /// child is assumed to be running now.  Re-registering an id is a
  /// no-op (the first hooks win), so injectors may register lazily.
  void manage(const std::string& id, std::function<void()> stop,
              std::function<void()> start);
  bool manages(const std::string& id) const {
    shard_.assertHeld();
    return children_.count(id) != 0;
  }

  /// Kill the child now and schedule a backoff-delayed restart.
  /// No-op if it is already dead (a second kill has nothing to do).
  void kill(const std::string& id);

  /// Kill the child and keep it down: no restart until release().
  /// Models the whole node being down — the supervisor itself died.
  void hold(const std::string& id);

  /// End a hold: schedules a normal backoff-delayed restart.
  void release(const std::string& id);

  /// Explicit (trace-driven) restart: cancels any pending backoff and
  /// starts the child immediately.  No-op while held or running.
  void restartNow(const std::string& id);

  /// Drop a child without touching it: cancels any pending restart and
  /// erases the registration.  Live migration uses this before freezing
  /// a router — the registered hooks capture pointers into daemons that
  /// will be rebuilt elsewhere, so they must never fire again; the
  /// injector lazily re-manages the rebuilt daemons on the next fault.
  /// No-op for unknown ids.
  void forget(const std::string& id);

  bool isRunning(const std::string& id) const;
  /// Children dead with a restart scheduled (or awaiting release).
  std::size_t pendingRestarts() const;
  std::uint64_t restartsCompleted() const {
    shard_.assertHeld();
    return restarts_completed_;
  }
  /// Every restart that actually ran, in execution order.
  const std::vector<RestartRecord>& log() const {
    shard_.assertHeld();
    return log_;
  }
  const SupervisorConfig& config() const { return config_; }

 private:
  struct Child {
    std::function<void()> stop;
    std::function<void()> start;
    bool running = true;
    bool held = false;
    int attempts = 0;             ///< consecutive failures
    sim::Time last_start = 0;
    sim::Time killed_at = 0;
    sim::EventId pending = 0;     ///< scheduled restart, 0 = none
  };

  Child& childOrThrow(const std::string& id);
  void scheduleRestart(const std::string& id, Child& child);
  void completeRestart(const std::string& id);

  // The supervisor runs on the shard owning its queue; kills arriving
  // from fault events on other shards will come through the mailbox.
  core::ShardToken shard_;
  sim::EventQueue& queue_;
  SupervisorConfig config_;
  // cross-shard: backoff draws must stay on one stream for determinism.
  sim::Random random_ VINI_GUARDED_BY(shard_);
  /// std::map: deterministic iteration for any future bulk operation.
  std::map<std::string, Child> children_ VINI_GUARDED_BY(shard_);
  std::vector<RestartRecord> log_ VINI_GUARDED_BY(shard_);
  std::uint64_t restarts_completed_ VINI_GUARDED_BY(shard_) = 0;
};

}  // namespace vini::fault
