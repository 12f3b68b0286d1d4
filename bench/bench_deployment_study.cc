// A long-running deployment study (Section 2's second usage class:
// "once a controlled experiment demonstrates the value of a new idea,
// the protocol might be deployed as a long-running study").
//
// One simulated hour on the Abilene mirror under a synthetic failure
// trace (independent exponential failures/repairs per fiber).  A probe
// stream measures Washington -> Seattle availability for two slice
// configurations sharing the same trace: timer-driven OSPF only, and
// OSPF plus VINI upcall-driven failover.  This is the kind of study the
// infrastructure exists to host: realistic (real routing software, real
// failure dynamics) and controlled (the trace is replayable).
#include "app/ping.h"
#include "bench_common.h"
#include "fault/injector.h"
#include "topo/worlds.h"

using namespace vini;

namespace {

struct Outcome {
  double availability = 0;
  std::uint64_t probes = 0;
  std::uint64_t answered = 0;
};

Outcome run(bool use_upcalls, const fault::FaultSchedule& trace,
            double hours) {
  topo::WorldOptions options;
  options.contention = 0.0;
  options.seed = 1234;
  auto world = topo::makeAbileneWorld(options);
  if (use_upcalls) world->iias->enableUpcallFailover(*world->vini);
  world->runUntilConverged(120 * sim::kSecond);
  const sim::Time t0 = world->queue.now();

  // Rebase the trace onto the converged clock and schedule it.
  fault::FaultSchedule rebased = trace;
  for (auto& event : rebased.events) event.at_seconds += sim::toSeconds(t0);
  fault::FaultInjector injector(world->schedule, world->net);
  injector.apply(rebased);

  const double duration_s = hours * 3600.0;
  app::Pinger::Options popt;
  popt.count = static_cast<std::uint64_t>(duration_s);  // 1 probe/second
  popt.flood = false;
  popt.interval = sim::kSecond;
  popt.source = world->tapOf("Washington");
  app::Pinger pinger(world->stack("Washington"), world->tapOf("Seattle"), popt);
  pinger.start();
  world->queue.runUntil(t0 + sim::fromSeconds(duration_s + 5));

  Outcome outcome;
  outcome.probes = pinger.report().transmitted;
  outcome.answered = pinger.report().received;
  outcome.availability = outcome.probes
                             ? static_cast<double>(outcome.answered) /
                                   static_cast<double>(outcome.probes)
                             : 0.0;
  return outcome;
}

}  // namespace

int main() {
  bench::header("Deployment study: one hour under a synthetic failure trace",
                "Section 2 usage model");
  // Build the trace once, against a throwaway substrate, so both runs
  // replay the identical event sequence.
  sim::EventQueue scratch_queue;
  phys::PhysNetwork scratch(scratch_queue);
  topo::buildAbilene(scratch);
  fault::CampaignTargets targets;
  for (const auto& link : scratch.links()) {
    targets.links.push_back(link->name());
  }
  // Plain link faults only: each fiber fails ~2x/hour.
  fault::CampaignModel model;
  model.seed = 77;
  model.link = fault::FaultClassModel{true, 1800.0, 45.0};
  model.degrade.enabled = false;
  model.node.enabled = false;
  model.proc.enabled = false;
  const double hours = 1.0;
  const fault::FaultSchedule trace =
      fault::generateFaultCampaign(targets, hours * 3600.0, model);
  std::printf("\ntrace: %zu events over %.0f h across %zu fibers "
              "(MTTF %.0fs, MTTR %.0fs)\n",
              trace.events.size(), hours, targets.links.size(),
              model.link.mttf_seconds, model.link.mttr_seconds);

  std::printf("\n%-28s %14s %12s\n", "slice configuration", "availability",
              "lost probes");
  for (const bool upcalls : {false, true}) {
    const Outcome outcome = run(upcalls, trace, hours);
    std::printf("%-28s %13.3f%% %12llu\n",
                upcalls ? "OSPF + VINI upcalls" : "OSPF timers only",
                100.0 * outcome.availability,
                static_cast<unsigned long long>(outcome.probes -
                                                outcome.answered));
  }
  bench::note(
      "\nBoth runs replay the identical failure trace (repeatability —\n"
      "Section 3.4); the upcall-enabled slice recovers from each exposed\n"
      "failure in milliseconds instead of a dead interval, which shows up\n"
      "directly as availability.");
  return 0;
}
