#include "migrate/manager.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "obs/obs.h"

namespace vini::migrate {

namespace {

/// Fixed-width ns-precision timestamp (same shape as the chaos log).
std::string formatTime(sim::Time t) {
  const auto secs = t / sim::kSecond;
  const auto frac = t % sim::kSecond;
  std::ostringstream os;
  os << secs << ".";
  std::string f = std::to_string(frac);
  os << std::string(9 - f.size(), '0') << f;
  return os.str();
}

/// Milliseconds with fixed 3-digit precision, integer arithmetic only.
std::string formatMs(double ms) {
  const auto micros = static_cast<long long>(ms * 1000.0 + 0.5);
  std::ostringstream os;
  os << micros / 1000 << ".";
  std::string f = std::to_string(micros % 1000);
  os << std::string(3 - f.size(), '0') << f;
  return os.str();
}

}  // namespace

MigrationManager::MigrationManager(sim::EventQueue& queue,
                                   phys::PhysNetwork& net, core::Vini& vini,
                                   overlay::IiasNetwork& iias,
                                   MigrationPolicy policy)
    : queue_(queue),
      net_(net),
      vini_(vini),
      iias_(iias),
      policy_(policy),
      random_(policy.seed) {}

MigrationManager::~MigrationManager() = default;

void MigrationManager::attachIngress(overlay::OpenVpnServer* server,
                                     std::vector<overlay::OpenVpnClient*> clients) {
  vpn_server_ = server;
  vpn_clients_ = std::move(clients);
}

void MigrationManager::logLine(const std::string& text) {
  log_.push_back(LogEntry{queue_.now(), text});
}

void MigrationManager::requestMigration(const std::string& router,
                                        const std::string& dest,
                                        std::optional<double> budget_ms) {
  overlay::IiasRouter* r = iias_.router(router);
  if (!r) throw std::runtime_error("migrate: unknown router " + router);
  if (!net_.nodeByName(dest)) {
    throw std::runtime_error("migrate: unknown destination node " + dest);
  }
  if (in_flight_.count(router) != 0) {
    logLine("migrate " + router + " to " + dest + " skipped (already migrating)");
    return;
  }
  const std::string from = r->vnode().physNode().name();
  if (from == dest) {
    logLine("migrate " + router + " to " + dest + " skipped (already there)");
    return;
  }

  MigrationRecord record;
  record.router = router;
  record.from = from;
  record.to = dest;
  record.budget_ms = budget_ms.value_or(policy_.default_budget_ms);
  record.t_request = queue_.now();
  const std::size_t index = records_.size();
  records_.push_back(record);

  auto active = std::make_unique<Active>();
  Active& a = *active;
  a.record_index = index;
  a.router = router;
  a.dest = dest;
  a.from_addr = r->vnode().physNode().address();
  in_flight_[router] = std::move(active);

  logLine("migrate " + router + " " + from + "->" + dest + " start budget=" +
          formatMs(record.budget_ms) + "ms");
  VINI_OBS_TIMELINE_INSTANT("migrate/" + router, "prepare", queue_.now());
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    ctx->metrics.counter("migrate", router, "requests").inc();
  }

  // Pre-copy: the warm state transfer ahead of the freeze.  Modeled as
  // a delay proportional to the state being shipped, capped by the
  // phase deadline.
  const RouterCheckpoint warm = captureCheckpoint(*r);
  const std::size_t items = warm.ospf.lsdb.size() + warm.rip.routes.size() +
                            warm.bgp_origins.size() + warm.fib.size();
  sim::Duration precopy = 10 * sim::kMillisecond +
                          static_cast<sim::Duration>(items) * sim::kMillisecond;
  precopy = std::min(precopy, policy_.precopy_deadline);
  a.phase = Phase::kPrecopy;
  a.timer = std::make_unique<sim::OneShotTimer>(queue_, [this, &a] { step(a); });
  a.timer->armAfter(precopy);
}

void MigrationManager::step(Active& a) {
  switch (a.phase) {
    case Phase::kPrecopy:
      freezeAndSwitch(a);
      break;
    case Phase::kRetry:
      attemptSwitchover(a);
      break;
    case Phase::kVerify:
      verify(a);
      break;
  }
}

void MigrationManager::freezeAndSwitch(Active& a) {
  overlay::IiasRouter* r = iias_.router(a.router);
  MigrationRecord& record = records_[a.record_index];
  record.t_freeze = queue_.now();
  frozen_.insert(a.router);
  logLine("migrate " + a.router + " freeze");
  VINI_OBS_TIMELINE_INSTANT("migrate/" + a.router, "freeze", queue_.now());

  // An external supervisor's daemon handles go stale the moment the
  // router is rebuilt elsewhere: make it forget them now.
  if (daemon_forget_) {
    for (const char* cls : {"ospf", "rip", "bgp"}) {
      daemon_forget_(a.router + "/" + std::string(cls));
    }
  }

  // Final checkpoint, captured BEFORE stop (stop models a crash and
  // clears the protocol state), then shipped through the wire format so
  // the grammar is exercised on the production path.
  RouterCheckpoint cp = captureCheckpoint(*r);
  a.carries_ingress = vpn_server_ != nullptr && vpn_server_->attachedRouter() == r;
  if (a.carries_ingress) {
    cp.has_leases = true;
    cp.leases = vpn_server_->exportLeases();
    cp.lease_next_host = vpn_server_->nextHost();
  }
  a.wire = emitCheckpoint(cp);
  r->stop();

  a.attempts = 0;
  attemptSwitchover(a);
}

void MigrationManager::attemptSwitchover(Active& a) {
  MigrationRecord& record = records_[a.record_index];
  ++a.attempts;
  record.attempts = a.attempts;

  const bool healthy = !node_probe_ || node_probe_(a.dest);
  if (healthy) {
    core::VirtualNode* vnode = iias_.slice().nodeByName(a.router);
    phys::PhysNode* dest = net_.nodeByName(a.dest);
    bool rehomed = false;
    try {
      vini_.rehomeNode(*vnode, *dest);
      rehomed = true;
      a.retired.push_back(iias_.rehomeRouter(a.router, a.from_addr));
      overlay::IiasRouter* fresh = iias_.router(a.router);
      const RouterCheckpoint cp = parseCheckpoint(a.wire);
      restoreCheckpoint(*fresh, cp);
      if (a.carries_ingress) {
        vpn_server_->attachTo(*fresh);
        vpn_server_->restoreLeases(cp.leases, cp.lease_next_host);
        for (overlay::OpenVpnClient* client : vpn_clients_) {
          client->rehome(*vpn_server_);
        }
      }
      fresh->start();
      resume(a, /*rolled_back=*/false);
      return;
    } catch (const std::exception& e) {
      // Admission control (or a corrupt checkpoint) refused the move.
      // Undo any partial re-home, then fall through to retry/rollback.
      logLine("migrate " + a.router + " attempt " +
              std::to_string(a.attempts) + " failed: " + e.what());
      if (rehomed && a.retired.empty()) {
        // Node moved but the router swap never happened: move it back.
        phys::PhysNode* home = net_.nodeByName(record.from);
        if (home) vini_.rehomeNode(*vnode, *home);
      }
    }
  } else {
    logLine("migrate " + a.router + " attempt " + std::to_string(a.attempts) +
            " failed: destination " + a.dest + " down");
  }

  // Retry with capped exponential backoff + seeded jitter — unless the
  // next attempt could not land inside the downtime budget, in which
  // case roll back NOW so the budget holds on this path too.
  const sim::Duration elapsed = queue_.now() - record.t_freeze;
  const sim::Duration budget =
      static_cast<sim::Duration>(record.budget_ms * 1e6);
  if (a.attempts >= policy_.max_switchover_attempts) {
    rollback(a, "attempts exhausted");
    return;
  }
  const sim::Duration delay = std::max<sim::Duration>(
      policy_.backoff.delay(a.attempts, &random_), 1);
  if (elapsed + delay >= budget) {
    rollback(a, "downtime budget would be breached");
    return;
  }
  a.phase = Phase::kRetry;
  a.timer->armAfter(delay);
}

void MigrationManager::rollback(Active& a, const std::string& why) {
  MigrationRecord& record = records_[a.record_index];
  record.failure = why;
  logLine("migrate " + a.router + " rollback (" + why + ")");
  VINI_OBS_TIMELINE_INSTANT("migrate/" + a.router, "rollback", queue_.now());

  // The source router object is still installed and attached — it was
  // only stopped.  Warm-restart it from the same checkpoint; the
  // original leases were never disturbed, but run the restore anyway so
  // rollback exercises the identical path as switchover.
  overlay::IiasRouter* source = iias_.router(a.router);
  const RouterCheckpoint cp = parseCheckpoint(a.wire);
  restoreCheckpoint(*source, cp);
  if (a.carries_ingress) {
    vpn_server_->restoreLeases(cp.leases, cp.lease_next_host);
    for (overlay::OpenVpnClient* client : vpn_clients_) {
      client->rehome(*vpn_server_);
    }
  }
  source->start();
  resume(a, /*rolled_back=*/true);
}

void MigrationManager::resume(Active& a, bool rolled_back) {
  MigrationRecord& record = records_[a.record_index];
  record.t_resume = queue_.now();
  record.rolled_back = rolled_back;
  record.downtime_ms =
      static_cast<double>(record.t_resume - record.t_freeze) / 1e6;
  frozen_.erase(a.router);
  logLine("migrate " + a.router + (rolled_back ? " resumed on " + record.from +
                                                     " (rolled back)"
                                               : " resumed on " + record.to) +
          " downtime=" + formatMs(record.downtime_ms) + "ms attempts=" +
          std::to_string(record.attempts));
  const std::string track = "migrate/" + a.router;
  VINI_OBS_TIMELINE_DURATION(track, "switchover", record.t_freeze,
                             record.t_resume - record.t_freeze);
  VINI_OBS_TIMELINE_INSTANT(track, rolled_back ? "rollback-resume" : "resume",
                            queue_.now());
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    ctx->metrics.counter("migrate", a.router,
                         rolled_back ? "rollbacks" : "switchovers").inc();
    ctx->metrics.gauge("migrate", a.router, "downtime_ms")
        .add(record.downtime_ms);
  }

  // V131, checked live: the overlay must be loop-free the moment
  // forwarding resumes, not merely after re-convergence.
  auditNoForwardingLoop("resume of " + a.router);

  a.phase = Phase::kVerify;
  a.timer->armAfter(policy_.verify_delay);
}

void MigrationManager::verify(Active& a) {
  const std::string router = a.router;
  MigrationRecord& record = records_[a.record_index];
  record.t_verified = queue_.now();
  record.completed = !record.rolled_back;

  // Retired instances must be quiet before teardown: a timer firing on
  // a frozen instance is exactly the V133 failure mode.
  for (const auto& retired : a.retired) {
    xorp::XorpInstance& xorp = retired->xorp();
    if ((xorp.ospf() && xorp.ospf()->running()) ||
        (xorp.rip() && xorp.rip()->running())) {
      violations_.error("V133", "router " + router,
                        "retired instance still running at verify");
    }
  }
  logLine("migrate " + router + (record.rolled_back ? " rollback verified"
                                                    : " verified"));
  VINI_OBS_TIMELINE_INSTANT("migrate/" + router, "verify", queue_.now());
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    ctx->metrics.counter("migrate", router, "completed").inc();
  }
  // Destroy the Active (and with it the lingering retired routers —
  // their queued closures drained during the verify delay).  Deferred
  // by one event: erasing here would destroy the very timer whose
  // callback frame we are standing in.
  queue_.schedule(queue_.now(), [this, router] { in_flight_.erase(router); });
}

void MigrationManager::auditNoForwardingLoop(const std::string& context) {
  // Walk every router-pair route over the live FIBs (the V121 walk,
  // applied mid-migration).
  std::unordered_map<packet::IpAddress, overlay::IiasRouter*> owner;
  for (const auto& router : iias_.routers()) {
    owner[router->vnode().tapAddress()] = router.get();
    for (const auto& iface : router->vnode().interfaces()) {
      owner[iface->address()] = router.get();
    }
  }
  for (const auto& src : iias_.routers()) {
    for (const auto& dst : iias_.routers()) {
      if (src.get() == dst.get()) continue;
      const packet::IpAddress target = dst->vnode().tapAddress();
      overlay::IiasRouter* cur = src.get();
      std::unordered_set<std::string> visited{cur->vnode().name()};
      while (true) {
        const auto entry = cur->fibElement().fib().lookup(target);
        if (!entry) break;            // blackhole: lossy, but not looping
        if (entry->port != 0) break;  // delivered off the tunnel mesh
        if (entry->next_hop.isZero()) break;
        auto it = owner.find(entry->next_hop);
        if (it == owner.end()) break;
        overlay::IiasRouter* next = it->second;
        if (!visited.insert(next->vnode().name()).second) {
          violations_.error("V131", context,
                            "forwarding loop: " + next->vnode().name() +
                                " revisited while resolving " + target.str());
          break;
        }
        cur = next;
      }
    }
  }
}

void MigrationManager::auditInvariants(check::Report& report) const {
  // Live findings first (V131 at resume, V133 at verify).
  for (const auto& d : violations_.diagnostics()) {
    report.add(d.severity, d.code, d.location, d.message);
  }
  // V130: the downtime budget is a hard invariant on every terminal
  // record — completed and rolled-back alike.
  for (const auto& record : records_) {
    if (record.t_resume == 0) continue;  // never froze / still in flight
    if (record.downtime_ms > record.budget_ms) {
      report.error("V130", "migrate " + record.router,
                   "downtime " + formatMs(record.downtime_ms) +
                       " ms exceeds budget " + formatMs(record.budget_ms) +
                       " ms" + (record.rolled_back ? " (rolled back)" : ""));
    }
  }
  // V132: migration-span conservation — every freeze resumed exactly
  // once (no router left frozen, no record frozen-but-never-resumed).
  for (const auto& router : frozen_) {
    report.error("V132", "router " + router,
                 "router left frozen after the campaign");
  }
  for (const auto& record : records_) {
    if (record.t_freeze != 0 && record.t_resume == 0) {
      report.error("V132", "migrate " + record.router,
                   "froze at t=" + formatTime(record.t_freeze) +
                       " but never resumed");
    }
  }
  // V133: any still-lingering retired instance must be quiet.
  for (const auto& [router, active] : in_flight_) {
    for (const auto& retired : active->retired) {
      xorp::XorpInstance& xorp = retired->xorp();
      if (xorp.ospf() && !xorp.ospf()->running() &&
          !xorp.ospf()->timersQuiet()) {
        report.error("V133", "router " + router,
                     "frozen ospf instance still owns armed timers");
      }
      if (xorp.rip() && !xorp.rip()->running() && !xorp.rip()->timersQuiet()) {
        report.error("V133", "router " + router,
                     "frozen rip instance still owns armed timers");
      }
    }
  }
}

std::string MigrationManager::reportJson() const {
  std::ostringstream os;
  os << "{\"migrations\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const MigrationRecord& r = records_[i];
    if (i) os << ",";
    os << "{\"router\":\"" << r.router << "\",\"from\":\"" << r.from
       << "\",\"to\":\"" << r.to << "\",\"budget_ms\":" << formatMs(r.budget_ms)
       << ",\"downtime_ms\":" << formatMs(r.downtime_ms)
       << ",\"attempts\":" << r.attempts << ",\"completed\":"
       << (r.completed ? "true" : "false") << ",\"rolled_back\":"
       << (r.rolled_back ? "true" : "false") << ",\"t_freeze\":\""
       << formatTime(r.t_freeze) << "\",\"t_resume\":\""
       << formatTime(r.t_resume) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace vini::migrate
