#include "check/checkers.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace vini::check {

namespace {

/// Canonical undirected link key.
std::pair<std::string, std::string> linkKey(const std::string& a,
                                            const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

std::string describeLink(const std::string& a, const std::string& b) {
  return a + "-" + b;
}

/// Node and link name sets of a topology, for reference resolution.
struct TopologyIndex {
  std::set<std::string> nodes;
  std::set<std::pair<std::string, std::string>> links;

  explicit TopologyIndex(const core::TopologySpec& spec) {
    for (const auto& node : spec.nodes) nodes.insert(node.name);
    for (const auto& link : spec.links) links.insert(linkKey(link.a, link.b));
  }

  bool hasLink(const std::string& a, const std::string& b) const {
    return links.count(linkKey(a, b)) != 0;
  }
};

}  // namespace

void checkTopologySpec(const core::TopologySpec& spec, Report& report,
                       const phys::PhysNetwork* net) {
  const std::string topo = "topology '" + spec.name + "'";

  // V001: duplicate node names (later checks use the first occurrence).
  std::set<std::string> names;
  for (const auto& node : spec.nodes) {
    if (!names.insert(node.name).second) {
      report.error("V001", topo + " node " + node.name,
                   "duplicate virtual node name '" + node.name + "'");
    }
  }

  // V007: unsatisfiable physical bindings.  A slice gets at most one
  // virtual node per physical node (core::Slice::addNode enforces this
  // at admission), and an explicit binding must name a real node.
  std::map<std::string, std::string> phys_users;  // phys -> first vnode
  for (const auto& node : spec.nodes) {
    if (node.phys_name.empty()) continue;
    auto [it, inserted] = phys_users.emplace(node.phys_name, node.name);
    if (!inserted && it->second != node.name) {
      report.error("V007", topo + " node " + node.name,
                   "virtual nodes '" + it->second + "' and '" + node.name +
                       "' are both bound to physical node '" + node.phys_name +
                       "'");
    }
    if (net != nullptr && !net->hasNode(node.phys_name)) {
      report.error("V007", topo + " node " + node.name,
                   "binding references unknown physical node '" +
                       node.phys_name + "'");
    }
  }

  // Per-link checks.
  std::set<std::pair<std::string, std::string>> seen_links;
  for (const auto& link : spec.links) {
    const std::string where = topo + " link " + describeLink(link.a, link.b);
    // V002: unknown endpoints.
    for (const std::string& end : {link.a, link.b}) {
      if (names.count(end) == 0) {
        report.error("V002", where,
                     "link endpoint '" + end + "' is not a declared node");
      }
    }
    // V003: self-links.
    if (link.a == link.b) {
      report.error("V003", where, "link connects node '" + link.a +
                                      "' to itself");
      continue;  // a self-link is not a duplicate of anything else
    }
    // V004: duplicate links (either direction).
    if (!seen_links.insert(linkKey(link.a, link.b)).second) {
      report.error("V004", where,
                   "duplicate link between '" + link.a + "' and '" + link.b +
                       "'");
    }
    // V006: zero IGP cost breaks shortest-path semantics.
    if (link.igp_cost == 0) {
      report.error("V006", where, "link has zero IGP cost");
    }
  }

  // V005: connectivity (over well-formed links only).  A partitioned
  // virtual topology means part of the experiment can never converge.
  if (names.size() > 1) {
    std::map<std::string, std::vector<std::string>> adjacency;
    for (const auto& link : spec.links) {
      if (link.a == link.b) continue;
      if (names.count(link.a) == 0 || names.count(link.b) == 0) continue;
      adjacency[link.a].push_back(link.b);
      adjacency[link.b].push_back(link.a);
    }
    std::set<std::string> reached;
    std::vector<std::string> frontier = {*names.begin()};
    reached.insert(*names.begin());
    while (!frontier.empty()) {
      const std::string at = std::move(frontier.back());
      frontier.pop_back();
      for (const auto& next : adjacency[at]) {
        if (reached.insert(next).second) frontier.push_back(next);
      }
    }
    if (reached.size() < names.size()) {
      report.error("V005", topo,
                   "topology is not connected: only " +
                       std::to_string(reached.size()) + " of " +
                       std::to_string(names.size()) +
                       " nodes reachable from '" + *names.begin() + "'");
    }
  }
}

void checkFaultSchedule(const fault::FaultSchedule& schedule, Report& report,
                        const core::TopologySpec* topology) {
  std::unique_ptr<TopologyIndex> index;
  if (topology != nullptr) index = std::make_unique<TopologyIndex>(*topology);

  // V110: SRLG definitions must name real links.
  for (const auto& [group, members] : schedule.srlgs) {
    for (const auto& [a, b] : members) {
      if (index != nullptr && !index->hasLink(a, b)) {
        report.error("V110", "srlg " + group,
                     "group member " + describeLink(a, b) +
                         " is not a link in the topology");
      }
    }
  }

  double last_time = 0.0;
  bool first = true;
  // Per-class lifecycle state.  Everything starts healthy.
  std::set<std::pair<std::string, std::string>> links_down;
  std::set<std::pair<std::string, std::string>> links_degraded;
  std::set<std::pair<std::string, std::string>> vlinks_down;
  std::set<std::string> nodes_crashed;
  std::set<std::string> srlgs_down;
  std::set<std::pair<std::string, int>> procs_killed;

  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const fault::FaultEvent& event = schedule.events[i];
    std::ostringstream where_os;
    where_os << "fault event " << (i + 1) << " (t=" << event.at_seconds << " "
             << fault::faultKindName(event.kind);
    switch (event.kind) {
      case fault::FaultKind::kLinkDown:
      case fault::FaultKind::kLinkUp:
      case fault::FaultKind::kLinkDegrade:
      case fault::FaultKind::kLinkRestore:
      case fault::FaultKind::kVlinkDown:
      case fault::FaultKind::kVlinkUp:
        where_os << " " << describeLink(event.a, event.b);
        break;
      case fault::FaultKind::kProcKill:
      case fault::FaultKind::kProcRestart:
        where_os << " " << event.a << "/" << fault::procClassName(event.proc);
        break;
      case fault::FaultKind::kMigrate:
        where_os << " " << event.a << " to " << event.b;
        break;
      default:
        where_os << " " << event.a;
        break;
    }
    where_os << ")";
    const std::string where = where_os.str();

    // V113: replayable schedules must be time-sorted.
    if (!first && event.at_seconds < last_time) {
      report.error("V113", where,
                   "timestamp moves backwards (previous event at " +
                       std::to_string(last_time) + "s)");
    }
    first = false;
    last_time = std::max(last_time, event.at_seconds);

    switch (event.kind) {
      case fault::FaultKind::kLinkDown:
      case fault::FaultKind::kLinkUp:
      case fault::FaultKind::kLinkDegrade:
      case fault::FaultKind::kLinkRestore: {
        // V110: the link must exist.
        if (index != nullptr && !index->hasLink(event.a, event.b)) {
          report.error("V110", where,
                       "event references unknown link " +
                           describeLink(event.a, event.b));
          continue;
        }
        const auto key = linkKey(event.a, event.b);
        if (event.kind == fault::FaultKind::kLinkDown) {
          // V112: down/up must alternate.
          if (!links_down.insert(key).second) {
            report.error("V112", where,
                         "link goes down while already down");
          }
        } else if (event.kind == fault::FaultKind::kLinkUp) {
          if (links_down.erase(key) == 0) {
            report.warning("V112", where, "link comes up while already up");
          }
        } else if (event.kind == fault::FaultKind::kLinkDegrade) {
          // V111: degrade parameters must be meaningful.
          const fault::DegradeSpec& d = event.degrade;
          if (!d.loss_rate && !d.delay_seconds && !d.bandwidth_bps) {
            report.error("V111", where,
                         "degrade sets no parameters (nothing to apply)");
          }
          if (d.loss_rate && (*d.loss_rate < 0.0 || *d.loss_rate > 1.0 ||
                              std::isnan(*d.loss_rate))) {
            report.error("V111", where,
                         "loss rate " + std::to_string(*d.loss_rate) +
                             " outside [0, 1]");
          }
          if (d.bandwidth_bps && !(*d.bandwidth_bps > 0.0)) {
            report.error("V111", where,
                         "nonpositive bandwidth " +
                             std::to_string(*d.bandwidth_bps) + " b/s");
          }
          if (d.delay_seconds && *d.delay_seconds < 0.0) {
            report.error("V111", where,
                         "negative delay " +
                             std::to_string(*d.delay_seconds) + " s");
          }
          if (!links_degraded.insert(key).second) {
            report.warning("V112", where,
                           "link degraded while already degraded "
                           "(previous quality is replaced)");
          }
        } else {  // kLinkRestore
          if (links_degraded.erase(key) == 0) {
            report.warning("V112", where,
                           "restore of a link that was never degraded");
          }
        }
        break;
      }
      case fault::FaultKind::kNodeCrash:
      case fault::FaultKind::kNodeRestart: {
        if (index != nullptr && index->nodes.count(event.a) == 0) {
          report.error("V110", where,
                       "event references unknown node " + event.a);
          continue;
        }
        if (event.kind == fault::FaultKind::kNodeCrash) {
          if (!nodes_crashed.insert(event.a).second) {
            report.error("V112", where,
                         "node crashes while already crashed");
          }
        } else if (nodes_crashed.erase(event.a) == 0) {
          report.error("V112", where,
                       "restart of a node that never crashed");
        }
        break;
      }
      case fault::FaultKind::kProcKill:
      case fault::FaultKind::kProcRestart: {
        if (index != nullptr && index->nodes.count(event.a) == 0) {
          report.error("V110", where,
                       "event references unknown node " + event.a);
          continue;
        }
        const auto key =
            std::make_pair(event.a, static_cast<int>(event.proc));
        if (event.kind == fault::FaultKind::kProcKill) {
          // A supervisor may restart the process off-trace between two
          // kills, so a re-kill is only suspicious, not wrong.
          if (!procs_killed.insert(key).second) {
            report.warning("V112", where,
                           "process killed while already killed "
                           "(valid only under a supervisor)");
          }
        } else if (procs_killed.erase(key) == 0) {
          report.error("V112", where,
                       "restart of a process that was never killed");
        }
        break;
      }
      case fault::FaultKind::kMigrate: {
        // V110: the migrated router must be a topology node.  The
        // destination is a *substrate* node (often a spare outside the
        // virtual topology), so only an obvious self-migration is
        // checkable statically.
        if (index != nullptr && index->nodes.count(event.a) == 0) {
          report.error("V110", where,
                       "event migrates unknown router " + event.a);
          continue;
        }
        if (event.b.empty()) {
          report.error("V110", where, "migration has no destination node");
        } else if (event.b == event.a) {
          report.error("V112", where,
                       "router migrates to its own substrate node");
        }
        // V111: a budget, when given, must be a positive duration.
        if (event.budget_ms &&
            (!(*event.budget_ms > 0.0) || std::isnan(*event.budget_ms))) {
          report.error("V111", where,
                       "nonpositive downtime budget " +
                           std::to_string(*event.budget_ms) + " ms");
        }
        break;
      }
      case fault::FaultKind::kSrlgDown:
      case fault::FaultKind::kSrlgUp: {
        if (schedule.srlgs.count(event.a) == 0) {
          report.error("V110", where,
                       "event references undefined SRLG " + event.a);
          continue;
        }
        if (event.kind == fault::FaultKind::kSrlgDown) {
          if (!srlgs_down.insert(event.a).second) {
            report.error("V112", where,
                         "SRLG goes down while already down");
          }
        } else if (srlgs_down.erase(event.a) == 0) {
          report.warning("V112", where, "SRLG comes up while already up");
        }
        break;
      }
      case fault::FaultKind::kVlinkDown:
      case fault::FaultKind::kVlinkUp: {
        if (index != nullptr && !index->hasLink(event.a, event.b)) {
          report.error("V110", where,
                       "event references unknown virtual link " +
                           describeLink(event.a, event.b));
          continue;
        }
        // A virtual link is an experiment control, not an outage: both
        // halves of a mispaired fail/restore are errors.
        const auto key = linkKey(event.a, event.b);
        if (event.kind == fault::FaultKind::kVlinkDown) {
          if (!vlinks_down.insert(key).second) {
            report.error("V112", where,
                         "virtual link goes down while already down");
          }
        } else if (vlinks_down.erase(key) == 0) {
          report.error("V112", where,
                       "virtual link comes up while not down");
        }
        break;
      }
    }
  }
}

void checkLinkConfig(const phys::LinkConfig& config, const std::string& where,
                     Report& report) {
  // V031: parameters that make the transmission model meaningless.
  if (!(config.bandwidth_bps > 0.0)) {
    report.error("V031", where,
                 "nonpositive bandwidth " + std::to_string(config.bandwidth_bps) +
                     " b/s");
  }
  if (config.queue_bytes == 0) {
    report.error("V031", where, "zero-byte output queue drops every packet");
  }
  if (config.loss_rate < 0.0 || config.loss_rate > 1.0 ||
      std::isnan(config.loss_rate)) {
    report.error("V031", where,
                 "loss rate " + std::to_string(config.loss_rate) +
                     " outside [0, 1]");
  }
  // V032: time cannot run backwards on the wire.
  if (config.propagation < 0) {
    report.error("V032", where,
                 "negative propagation delay " +
                     std::to_string(config.propagation) + " ns");
  }
}

void checkSchedulerConfig(const cpu::SchedulerConfig& config,
                          const std::string& where, Report& report) {
  // V033: parameters the scheduling model divides or ticks by.
  if (config.timeslice <= 0) {
    report.error("V033", where,
                 "nonpositive timeslice " + std::to_string(config.timeslice) +
                     " ns");
  }
  if (!(config.speed_factor > 0.0)) {
    report.error("V033", where,
                 "nonpositive speed factor " +
                     std::to_string(config.speed_factor));
  }
  if (config.contention_mean > 0.0 && config.contention_resample <= 0) {
    report.error("V033", where,
                 "contended node needs a positive contention resample period");
  }
}

void checkCpuReservations(const std::vector<SliceDemand>& demands,
                          Report& report, double max_per_node) {
  // Sum each physical node's admitted reservation across every demand.
  // Virtual nodes without an explicit binding are placed by the
  // embedder, so only explicit bindings can be pre-checked.
  std::map<std::string, double> reserved;
  std::map<std::string, std::vector<std::string>> holders;
  for (const auto& demand : demands) {
    if (demand.topology == nullptr) continue;
    if (demand.resources.cpu_reservation <= 0.0) continue;
    for (const auto& node : demand.topology->nodes) {
      if (node.phys_name.empty()) continue;
      reserved[node.phys_name] += demand.resources.cpu_reservation;
      holders[node.phys_name].push_back(demand.topology->name);
    }
  }
  for (const auto& [phys, total] : reserved) {
    if (total > max_per_node + 1e-9) {
      std::ostringstream os;
      os << "CPU reservations sum to " << total << " (limit " << max_per_node
         << ") across slices:";
      for (const auto& slice : holders[phys]) os << " " << slice;
      report.error("V030", "physical node " + phys, os.str());
    }
  }
}

void checkPhysNetworkConfigs(const phys::PhysNetwork& net, Report& report) {
  for (const auto& link : net.links()) {
    checkLinkConfig(link->config(), "physical link " + link->name(), report);
  }
  for (const auto& node : net.nodes()) {
    checkSchedulerConfig(node->scheduler().config(),
                         "physical node " + node->name(), report);
  }
}

}  // namespace vini::check
