#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/random.h"

namespace vini::fault {

const char* faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link down";
    case FaultKind::kLinkUp: return "link up";
    case FaultKind::kLinkDegrade: return "link degrade";
    case FaultKind::kLinkRestore: return "link restore";
    case FaultKind::kNodeCrash: return "node crash";
    case FaultKind::kNodeRestart: return "node restart";
    case FaultKind::kProcKill: return "proc kill";
    case FaultKind::kProcRestart: return "proc restart";
    case FaultKind::kSrlgDown: return "srlg down";
    case FaultKind::kSrlgUp: return "srlg up";
    case FaultKind::kMigrate: return "migrate";
    case FaultKind::kVlinkDown: return "vlink down";
    case FaultKind::kVlinkUp: return "vlink up";
  }
  return "?";
}

const char* procClassName(ProcClass proc) {
  switch (proc) {
    case ProcClass::kOspf: return "ospf";
    case ProcClass::kRip: return "rip";
    case ProcClass::kBgp: return "bgp";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Serialization

namespace {

/// max_digits10 precision so emit -> parse round-trips bit-exactly even
/// for generated (irrational-looking) campaign timestamps.
std::string formatDouble(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

}  // namespace

std::string emitFaultSchedule(const FaultSchedule& schedule) {
  std::ostringstream os;
  for (const auto& [group, members] : schedule.srlgs) {
    for (const auto& [a, b] : members) {
      os << "srlg " << group << " " << a << " " << b << "\n";
    }
  }
  for (const auto& event : schedule.events) {
    os << "t=" << formatDouble(event.at_seconds) << " ";
    switch (event.kind) {
      case FaultKind::kLinkDown:
        os << "link " << event.a << " " << event.b << " down";
        break;
      case FaultKind::kLinkUp:
        os << "link " << event.a << " " << event.b << " up";
        break;
      case FaultKind::kLinkDegrade:
        os << "link " << event.a << " " << event.b << " degrade";
        if (event.degrade.loss_rate) {
          os << " loss=" << formatDouble(*event.degrade.loss_rate);
        }
        if (event.degrade.delay_seconds) {
          os << " delay=" << formatDouble(*event.degrade.delay_seconds);
        }
        if (event.degrade.bandwidth_bps) {
          os << " bw=" << formatDouble(*event.degrade.bandwidth_bps);
        }
        break;
      case FaultKind::kLinkRestore:
        os << "link " << event.a << " " << event.b << " restore";
        break;
      case FaultKind::kNodeCrash:
        os << "node " << event.a << " crash";
        break;
      case FaultKind::kNodeRestart:
        os << "node " << event.a << " restart";
        break;
      case FaultKind::kProcKill:
        os << "proc " << event.a << " " << procClassName(event.proc) << " kill";
        break;
      case FaultKind::kProcRestart:
        os << "proc " << event.a << " " << procClassName(event.proc)
           << " restart";
        break;
      case FaultKind::kSrlgDown:
        os << "srlg " << event.a << " down";
        break;
      case FaultKind::kSrlgUp:
        os << "srlg " << event.a << " up";
        break;
      case FaultKind::kMigrate:
        os << "migrate " << event.a << " to " << event.b;
        if (event.budget_ms) os << " budget=" << formatDouble(*event.budget_ms);
        break;
      case FaultKind::kVlinkDown:
        os << "vlink " << event.a << " " << event.b << " down";
        break;
      case FaultKind::kVlinkUp:
        os << "vlink " << event.a << " " << event.b << " up";
        break;
    }
    os << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Parsing

namespace {

[[noreturn]] void badLine(int lineno, const std::string& line) {
  throw std::runtime_error("bad trace line " + std::to_string(lineno) + ": " +
                           line);
}

/// The whole of `text` as a finite double, or nullopt.  std::stod
/// also accepts "nan" and "inf", which no time or quality value may be:
/// they would reach sim::fromSeconds, whose cast is undefined for them.
std::optional<double> finiteNumber(const std::string& text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size() || !std::isfinite(value)) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

double parseTime(const std::string& t_word, int lineno,
                 const std::string& line) {
  if (t_word.rfind("t=", 0) != 0) badLine(lineno, line);
  const std::optional<double> value = finiteNumber(t_word.substr(2));
  if (!value || *value < 0) {
    throw std::runtime_error("bad time '" + t_word + "' on trace line " +
                             std::to_string(lineno) + ": " + line);
  }
  return *value;
}

double parseNumber(const std::string& word, const std::string& value,
                   int lineno, const std::string& line) {
  const std::optional<double> parsed = finiteNumber(value);
  if (!parsed) {
    throw std::runtime_error("bad value '" + word + "' on trace line " +
                             std::to_string(lineno) + ": " + line);
  }
  return *parsed;
}

std::optional<ProcClass> procClassFor(const std::string& word) {
  if (word == "ospf") return ProcClass::kOspf;
  if (word == "rip") return ProcClass::kRip;
  if (word == "bgp") return ProcClass::kBgp;
  return std::nullopt;
}

}  // namespace

FaultSchedule parseFaultSchedule(const std::string& text) {
  FaultSchedule schedule;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    std::istringstream words(line);
    std::string first;
    if (!(words >> first) || first[0] == '#') continue;

    // Timeless definition line: srlg <group> <A> <B>.
    if (first == "srlg") {
      std::string group, a, b, extra;
      if (!(words >> group >> a >> b) || (words >> extra)) {
        badLine(lineno, line);
      }
      schedule.srlgs[group].emplace_back(a, b);
      continue;
    }

    FaultEvent event;
    event.at_seconds = parseTime(first, lineno, line);
    std::string subject;
    if (!(words >> subject)) badLine(lineno, line);

    if (subject == "link") {
      std::string a, b, action;
      if (!(words >> a >> b >> action)) badLine(lineno, line);
      event.a = a;
      event.b = b;
      if (action == "up" || action == "down" || action == "restore") {
        event.kind = action == "up"     ? FaultKind::kLinkUp
                     : action == "down" ? FaultKind::kLinkDown
                                        : FaultKind::kLinkRestore;
        std::string extra;
        if (words >> extra) badLine(lineno, line);
      } else if (action == "degrade") {
        event.kind = FaultKind::kLinkDegrade;
        std::string kv;
        while (words >> kv) {
          const auto eq = kv.find('=');
          if (eq == std::string::npos) badLine(lineno, line);
          const std::string key = kv.substr(0, eq);
          const double value = parseNumber(kv, kv.substr(eq + 1), lineno, line);
          if (key == "loss") {
            event.degrade.loss_rate = value;
          } else if (key == "delay") {
            event.degrade.delay_seconds = value;
          } else if (key == "bw") {
            event.degrade.bandwidth_bps = value;
          } else {
            badLine(lineno, line);
          }
        }
      } else {
        badLine(lineno, line);
      }
    } else if (subject == "node") {
      std::string name, action, extra;
      if (!(words >> name >> action) || (words >> extra)) badLine(lineno, line);
      event.a = name;
      if (action == "crash") {
        event.kind = FaultKind::kNodeCrash;
      } else if (action == "restart") {
        event.kind = FaultKind::kNodeRestart;
      } else {
        badLine(lineno, line);
      }
    } else if (subject == "proc") {
      std::string name, proc_word, action, extra;
      if (!(words >> name >> proc_word >> action) || (words >> extra)) {
        badLine(lineno, line);
      }
      event.a = name;
      const auto proc = procClassFor(proc_word);
      if (!proc) badLine(lineno, line);
      event.proc = *proc;
      if (action == "kill") {
        event.kind = FaultKind::kProcKill;
      } else if (action == "restart") {
        event.kind = FaultKind::kProcRestart;
      } else {
        badLine(lineno, line);
      }
    } else if (subject == "migrate") {
      std::string router, to_word, dest;
      if (!(words >> router >> to_word >> dest) || to_word != "to") {
        badLine(lineno, line);
      }
      event.kind = FaultKind::kMigrate;
      event.a = router;
      event.b = dest;
      std::string kv;
      while (words >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos || kv.substr(0, eq) != "budget") {
          badLine(lineno, line);
        }
        event.budget_ms = parseNumber(kv, kv.substr(eq + 1), lineno, line);
      }
    } else if (subject == "vlink") {
      std::string a, b, action, extra;
      if (!(words >> a >> b >> action) || (words >> extra)) {
        badLine(lineno, line);
      }
      event.a = a;
      event.b = b;
      if (action == "down") {
        event.kind = FaultKind::kVlinkDown;
      } else if (action == "up") {
        event.kind = FaultKind::kVlinkUp;
      } else {
        badLine(lineno, line);
      }
    } else if (subject == "srlg") {
      std::string group, action, extra;
      if (!(words >> group >> action) || (words >> extra)) badLine(lineno, line);
      event.a = group;
      if (action == "down") {
        event.kind = FaultKind::kSrlgDown;
      } else if (action == "up") {
        event.kind = FaultKind::kSrlgUp;
      } else {
        badLine(lineno, line);
      }
    } else {
      badLine(lineno, line);
    }
    schedule.events.push_back(std::move(event));
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Campaign generation

namespace {

/// Alternating up/down timeline for one entity: emits (time, failed)
/// transitions with strictly advancing time, failures only inside the
/// horizon, the final repair allowed to cross it.
template <typename Emit>
void runTimeline(sim::Random& random, double duration_seconds,
                 double mttf_seconds, double mttr_seconds, Emit&& emit) {
  double t = 0;
  bool up = true;
  while (true) {
    const double dwell = random.exponential(up ? mttf_seconds : mttr_seconds);
    t += std::max(dwell, 1e-9);
    if (up && t >= duration_seconds) break;
    up = !up;
    emit(t, /*failed=*/!up);
    if (up && t >= duration_seconds) break;
  }
}

std::pair<std::string, std::string> splitLinkName(const std::string& name) {
  const auto dash = name.find('-');
  if (dash == std::string::npos) {
    throw std::runtime_error("campaign link name '" + name +
                             "' is not of the form A-B");
  }
  return {name.substr(0, dash), name.substr(dash + 1)};
}

}  // namespace

FaultSchedule generateFaultCampaign(const CampaignTargets& targets,
                                    double duration_seconds,
                                    const CampaignModel& model) {
  // A zero mean time to failure draws zero dwells: the timeline would
  // crawl to the horizon in 1 ns steps.  `enabled` is the off switch.
  for (const FaultClassModel* fault_class :
       {&model.link, &model.degrade, &model.node, &model.proc,
        &model.migrate}) {
    if (fault_class->enabled && !(fault_class->mttf_seconds > 0)) {
      throw std::invalid_argument(
          "campaign fault class enabled with nonpositive mttf_seconds");
    }
  }
  FaultSchedule schedule;
  if (duration_seconds <= 0) return schedule;
  // One forked stream per timeline, drawn in a fixed order: adding a
  // fault class never perturbs the draws of another.
  sim::Random master(model.seed);

  if (model.link.enabled) {
    for (const auto& name : targets.links) {
      const auto [a, b] = splitLinkName(name);
      sim::Random stream = master.fork();
      runTimeline(stream, duration_seconds, model.link.mttf_seconds,
                  model.link.mttr_seconds, [&](double t, bool failed) {
                    FaultEvent event;
                    event.at_seconds = t;
                    event.kind =
                        failed ? FaultKind::kLinkDown : FaultKind::kLinkUp;
                    event.a = a;
                    event.b = b;
                    schedule.events.push_back(std::move(event));
                  });
    }
  }

  if (model.degrade.enabled) {
    for (const auto& name : targets.links) {
      const auto [a, b] = splitLinkName(name);
      sim::Random stream = master.fork();
      runTimeline(stream, duration_seconds, model.degrade.mttf_seconds,
                  model.degrade.mttr_seconds, [&](double t, bool failed) {
                    FaultEvent event;
                    event.at_seconds = t;
                    event.kind = failed ? FaultKind::kLinkDegrade
                                        : FaultKind::kLinkRestore;
                    event.a = a;
                    event.b = b;
                    if (failed) {
                      event.degrade.loss_rate = model.degrade_loss;
                      event.degrade.delay_seconds = model.degrade_delay_seconds;
                      event.degrade.bandwidth_bps = model.degrade_bandwidth_bps;
                    }
                    schedule.events.push_back(std::move(event));
                  });
    }
  }

  if (model.node.enabled) {
    for (const auto& name : targets.nodes) {
      sim::Random stream = master.fork();
      runTimeline(stream, duration_seconds, model.node.mttf_seconds,
                  model.node.mttr_seconds, [&](double t, bool failed) {
                    FaultEvent event;
                    event.at_seconds = t;
                    event.kind = failed ? FaultKind::kNodeCrash
                                        : FaultKind::kNodeRestart;
                    event.a = name;
                    schedule.events.push_back(std::move(event));
                  });
    }
  }

  if (model.proc.enabled) {
    for (const auto& name : targets.proc_nodes) {
      for (const ProcClass proc : targets.proc_classes) {
        sim::Random stream = master.fork();
        if (model.proc.mttr_seconds <= 0) {
          // Supervisor-recovered: kills form a renewal process; the
          // restart is the Supervisor's (backoff-delayed) job.
          double t = 0;
          while (true) {
            t += std::max(stream.exponential(model.proc.mttf_seconds), 1e-9);
            if (t >= duration_seconds) break;
            FaultEvent event;
            event.at_seconds = t;
            event.kind = FaultKind::kProcKill;
            event.a = name;
            event.proc = proc;
            schedule.events.push_back(std::move(event));
          }
        } else {
          runTimeline(stream, duration_seconds, model.proc.mttf_seconds,
                      model.proc.mttr_seconds, [&](double t, bool failed) {
                        FaultEvent event;
                        event.at_seconds = t;
                        event.kind = failed ? FaultKind::kProcKill
                                            : FaultKind::kProcRestart;
                        event.a = name;
                        event.proc = proc;
                        schedule.events.push_back(std::move(event));
                      });
        }
      }
    }
  }

  if (model.migrate.enabled) {
    // Appended after every pre-existing class so enabling migrations
    // never perturbs the draws (and thus the schedules) of campaigns
    // that existed before this class did.
    for (const auto& target : targets.migrations) {
      sim::Random stream = master.fork();
      // Renewal process alternating spare/home destinations; like the
      // supervised proc class, completion is the migrator's job.
      double t = 0;
      bool at_home = true;
      while (true) {
        t += std::max(stream.exponential(model.migrate.mttf_seconds), 1e-9);
        if (t >= duration_seconds) break;
        FaultEvent event;
        event.at_seconds = t;
        event.kind = FaultKind::kMigrate;
        event.a = target.router;
        event.b = at_home ? target.spare : target.home;
        event.budget_ms = model.migrate_budget_ms;
        schedule.events.push_back(std::move(event));
        at_home = !at_home;
      }
    }
  }

  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at_seconds < y.at_seconds;
                   });
  return schedule;
}

}  // namespace vini::fault
