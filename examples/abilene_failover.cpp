// The Section 5.2 experiment, driven by a fault schedule:
// IIAS mirrors the Abilene backbone (real topology, real IGP weights,
// hello 5 s / dead 10 s); ping runs from Washington D.C. to Seattle; the
// Denver-Kansas City virtual link fails at t=10 s and is restored at
// t=34 s.  Watch OSPF detect, reroute to the southern path, and fall
// back — the live version of Figure 8.
//
// Build & run:  ./examples/abilene_failover
#include <cstdio>

#include "app/ping.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "topo/worlds.h"

using namespace vini;

int main() {
  topo::WorldOptions options;
  options.resources.cpu_reservation = 0.25;  // the PL-VINI configuration
  options.resources.realtime = true;
  auto world = topo::makeAbileneWorld(options);
  std::printf("deploying IIAS across %zu Abilene PoPs...\n",
              world->iias->routers().size());
  if (!world->runUntilConverged(180 * sim::kSecond)) {
    std::fprintf(stderr, "OSPF did not converge\n");
    return 1;
  }
  const sim::Time t0 = world->queue.now();
  std::printf("converged (%zu total routes).\n\n", world->iias->totalOspfRoutes());

  // The experiment, as a fault schedule (Section 6.2's "experiment
  // specification").
  auto schedule = fault::parseFaultSchedule(R"(
    # Figure 8 schedule, relative to convergence time
    t=10 vlink Denver KansasCity down
    t=34 vlink Denver KansasCity up
  )");
  // Rebase the schedule onto the converged clock.
  for (auto& event : schedule.events) event.at_seconds += sim::toSeconds(t0);
  fault::FaultInjector injector(world->schedule, world->net, world->iias.get());
  injector.apply(schedule);

  app::Pinger::Options popt;
  popt.count = 110;
  popt.flood = false;
  popt.interval = sim::kSecond / 2;
  popt.source = world->tapOf("Washington");
  app::Pinger pinger(world->stack("Washington"), world->tapOf("Seattle"), popt);
  double last_rtt = 0;
  pinger.on_reply = [&](std::uint64_t, sim::Duration rtt) {
    const double ms = sim::toMillis(rtt);
    const double t = sim::toSeconds(world->queue.now() - t0);
    if (last_rtt == 0 || std::abs(ms - last_rtt) > 3.0) {
      std::printf("t=%5.1fs  rtt %6.1f ms   <-- path change\n", t, ms);
    } else if (static_cast<int>(t * 2) % 10 == 0) {
      std::printf("t=%5.1fs  rtt %6.1f ms\n", t, ms);
    }
    last_rtt = ms;
  };
  pinger.start();
  world->queue.runUntil(t0 + 58 * sim::kSecond);

  std::printf("\n%llu of %llu probes answered; the gap is the OSPF dead\n",
              static_cast<unsigned long long>(pinger.report().received),
              static_cast<unsigned long long>(pinger.report().transmitted));
  std::printf("interval (10 s) plus flooding and SPF — exactly Figure 8.\n");
  for (const auto& entry : world->schedule.log()) {
    std::printf("  script: %-35s at t=%.1fs\n", entry.label.c_str(),
                sim::toSeconds(entry.when - t0));
  }
  return 0;
}
