// vini_lint: lint experiment specs before they touch the substrate.
//
// Validates the two file formats users author — router configurations
// (.conf, the rcc-style format of topo/router_config.h) and fault
// schedules (.trace, fault/fault.h: scripted virtual-link failures and
// plain link up/down traces included) — and exits nonzero if any
// error-severity diagnostic is found, so it can gate CI.
//
//   vini_lint [--quiet] <file>...
//
// A .conf file defines the reference topology for every trace that
// follows it on the command line, so link references resolve.
//
//   vini_lint examples/specs/abilene.conf examples/specs/denver_failover.trace
//
// Options:
//   --quiet               print only the summary line
//
// See src/check/checkers.h for the full check-code catalogue (V0xx
// static checks, V11x fault-schedule checks).
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/checkers.h"
#include "check/diagnostic.h"
#include "fault/fault.h"
#include "topo/router_config.h"

namespace {

void usage(std::ostream& os) {
  os << "usage: vini_lint [--quiet] <file.conf|file.trace>...\n"
        "\n"
        "Lints VINI experiment specifications; exits 1 if any error is\n"
        "found.  A .conf topology applies to the files that follow it.\n";
}

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool quiet = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "vini_lint: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    usage(std::cerr);
    return 2;
  }

  vini::check::Report report;
  // The most recent topology; traces resolve against it.
  std::optional<vini::core::TopologySpec> topology;

  for (const std::string& path : files) {
    const auto text = readFile(path);
    if (!text) {
      report.error("V099", path, "cannot read file");
      continue;
    }
    if (endsWith(path, ".conf")) {
      try {
        vini::topo::ParsedConfigs parsed = vini::topo::parseRouterConfigs(*text);
        for (const auto& fault : parsed.faults) {
          report.warning("V098", path, fault.message);
        }
        vini::check::checkTopologySpec(parsed.topology, report);
        topology = std::move(parsed.topology);
      } catch (const std::exception& e) {
        report.error("V099", path, e.what());
      }
    } else if (endsWith(path, ".trace")) {
      try {
        vini::check::checkFaultSchedule(vini::fault::parseFaultSchedule(*text),
                                        report,
                                        topology ? &*topology : nullptr);
      } catch (const std::exception& e) {
        report.error("V099", path, e.what());
      }
    } else {
      report.error("V099", path,
                   "unknown file type (expected .conf or .trace)");
    }
  }

  if (!quiet && !report.empty()) std::cerr << report.format();
  const std::size_t errors = report.countErrors();
  const std::size_t warnings = report.size() - errors;
  std::cerr << "vini_lint: " << files.size() << " file(s), " << errors
            << " error(s), " << warnings << " warning(s)\n";
  return report.hasErrors() ? 1 : 0;
}
