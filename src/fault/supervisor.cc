#include "fault/supervisor.h"

#include <stdexcept>

#include "obs/obs.h"

namespace vini::fault {

Supervisor::Supervisor(sim::EventQueue& queue, SupervisorConfig config)
    : queue_(queue), config_(config), random_(config.seed) {}

void Supervisor::manage(const std::string& id, std::function<void()> stop,
                        std::function<void()> start) {
  shard_.assertHeld();
  if (children_.count(id)) return;
  Child child;
  child.stop = std::move(stop);
  child.start = std::move(start);
  child.last_start = queue_.now();
  children_.emplace(id, std::move(child));
}

Supervisor::Child& Supervisor::childOrThrow(const std::string& id) {
  shard_.assertHeld();
  auto it = children_.find(id);
  if (it == children_.end()) {
    throw std::runtime_error("supervisor does not manage '" + id + "'");
  }
  return it->second;
}

void Supervisor::kill(const std::string& id) {
  shard_.assertHeld();
  Child& child = childOrThrow(id);
  if (!child.running) return;  // already dead; the restart is in flight
  // A long stable run forgives past failures.
  if (queue_.now() - child.last_start >= config_.stable_uptime) {
    child.attempts = 0;
  }
  ++child.attempts;
  child.killed_at = queue_.now();
  child.running = false;
  VINI_OBS_TIMELINE_INSTANT("supervisor/" + id, "kill", queue_.now());
  child.stop();
  if (!child.held) scheduleRestart(id, child);
}

void Supervisor::hold(const std::string& id) {
  shard_.assertHeld();
  Child& child = childOrThrow(id);
  child.held = true;
  if (child.pending != 0) {
    queue_.cancel(child.pending);
    child.pending = 0;
  }
  if (child.running) {
    if (queue_.now() - child.last_start >= config_.stable_uptime) {
      child.attempts = 0;
    }
    ++child.attempts;
    child.killed_at = queue_.now();
    child.running = false;
    child.stop();
  }
}

void Supervisor::release(const std::string& id) {
  shard_.assertHeld();
  Child& child = childOrThrow(id);
  if (!child.held) return;
  child.held = false;
  if (!child.running && child.pending == 0) scheduleRestart(id, child);
}

void Supervisor::restartNow(const std::string& id) {
  shard_.assertHeld();
  Child& child = childOrThrow(id);
  if (child.running || child.held) return;
  if (child.pending != 0) {
    queue_.cancel(child.pending);
    child.pending = 0;
  }
  completeRestart(id);
}

void Supervisor::forget(const std::string& id) {
  shard_.assertHeld();
  auto it = children_.find(id);
  if (it == children_.end()) return;
  if (it->second.pending != 0) queue_.cancel(it->second.pending);
  children_.erase(it);
}

void Supervisor::scheduleRestart(const std::string& id, Child& child) {
  shard_.assertHeld();
  const sim::Duration delay = config_.backoff.delay(child.attempts, &random_);
  child.pending = queue_.scheduleAfter(delay, "fault.supervisor",
                                       [this, id] { completeRestart(id); });
}

void Supervisor::completeRestart(const std::string& id) {
  shard_.assertHeld();
  Child& child = childOrThrow(id);
  child.pending = 0;
  if (child.running || child.held) return;
  RestartRecord record;
  record.id = id;
  record.killed_at = child.killed_at;
  record.restarted_at = queue_.now();
  record.delay = queue_.now() - child.killed_at;
  record.attempt = child.attempts;
  // The whole outage, kill to restart, as one track-visible bar.
  VINI_OBS_TIMELINE_DURATION("supervisor/" + id, "down", record.killed_at,
                             record.delay);
  child.start();
  child.running = true;
  child.last_start = queue_.now();
  ++restarts_completed_;
  log_.push_back(std::move(record));
}

bool Supervisor::isRunning(const std::string& id) const {
  shard_.assertHeld();
  auto it = children_.find(id);
  return it != children_.end() && it->second.running;
}

std::size_t Supervisor::pendingRestarts() const {
  shard_.assertHeld();
  std::size_t n = 0;
  for (const auto& [id, child] : children_) {
    if (!child.running) ++n;
  }
  return n;
}

}  // namespace vini::fault
