// The fault layer: schedule round trips, supervised restarts, and
// recovery of every protocol the chaos campaigns break.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "app/iperf.h"
#include "check/checkers.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "fault/supervisor.h"
#include "overlay/openvpn.h"
#include "topo/abilene.h"
#include "topo/worlds.h"
#include "xorp/bgp.h"

namespace vini {
namespace {

using packet::IpAddress;
using packet::Prefix;
using sim::kSecond;

// ---------------------------------------------------------------------------
// Trace format

fault::FaultSchedule everyKindSchedule() {
  fault::FaultSchedule schedule;
  schedule.srlgs["west"] = {{"Seattle", "Sunnyvale"}, {"Seattle", "Denver"}};
  auto add = [&schedule](double t, fault::FaultKind kind, std::string a,
                         std::string b = "") {
    fault::FaultEvent event;
    event.at_seconds = t;
    event.kind = kind;
    event.a = std::move(a);
    event.b = std::move(b);
    return &(schedule.events.emplace_back(event));
  };
  add(1.0, fault::FaultKind::kLinkDown, "Denver", "KansasCity");
  auto* degrade =
      add(2.5, fault::FaultKind::kLinkDegrade, "Chicago", "NewYork");
  degrade->degrade.loss_rate = 0.125;
  degrade->degrade.delay_seconds = 0.05;
  degrade->degrade.bandwidth_bps = 1.0e7;
  add(3.0, fault::FaultKind::kSrlgDown, "west");
  add(4.0, fault::FaultKind::kNodeCrash, "Houston");
  auto* kill = add(5.0, fault::FaultKind::kProcKill, "Atlanta");
  kill->proc = fault::ProcClass::kBgp;
  add(6.0, fault::FaultKind::kLinkUp, "Denver", "KansasCity");
  add(7.0, fault::FaultKind::kLinkRestore, "Chicago", "NewYork");
  add(8.0, fault::FaultKind::kSrlgUp, "west");
  add(9.0, fault::FaultKind::kNodeRestart, "Houston");
  auto* restart = add(10.0, fault::FaultKind::kProcRestart, "Atlanta");
  restart->proc = fault::ProcClass::kBgp;
  add(11.0, fault::FaultKind::kVlinkDown, "Denver", "KansasCity");
  add(12.0, fault::FaultKind::kVlinkUp, "Denver", "KansasCity");
  return schedule;
}

TEST(FaultTrace, EmitParseRoundTripCoversEveryKind) {
  const fault::FaultSchedule schedule = everyKindSchedule();
  const std::string text = emitFaultSchedule(schedule);
  const fault::FaultSchedule parsed = fault::parseFaultSchedule(text);

  ASSERT_EQ(parsed.events.size(), schedule.events.size());
  ASSERT_EQ(parsed.srlgs.size(), 1u);
  EXPECT_EQ(parsed.srlgs.at("west"), schedule.srlgs.at("west"));
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].kind, schedule.events[i].kind) << "event " << i;
    EXPECT_EQ(parsed.events[i].at_seconds, schedule.events[i].at_seconds);
    EXPECT_EQ(parsed.events[i].a, schedule.events[i].a);
    EXPECT_EQ(parsed.events[i].b, schedule.events[i].b);
  }
  EXPECT_EQ(parsed.events[1].degrade.loss_rate, 0.125);
  EXPECT_EQ(parsed.events[1].degrade.delay_seconds, 0.05);
  EXPECT_EQ(parsed.events[1].degrade.bandwidth_bps, 1.0e7);
  EXPECT_EQ(parsed.events[4].proc, fault::ProcClass::kBgp);

  EXPECT_NE(text.find("t=11 vlink Denver KansasCity down\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("t=12 vlink Denver KansasCity up\n"), std::string::npos)
      << text;

  // Emission is canonical: a second round trip is byte-identical.
  EXPECT_EQ(emitFaultSchedule(parsed), text);
}

/// Expect parse to throw and the message to carry both fragments
/// (the line number and the offending text).
void expectParseError(const std::string& text, const std::string& frag1,
                      const std::string& frag2) {
  try {
    fault::parseFaultSchedule(text);
    FAIL() << "no exception for: " << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(frag1), std::string::npos) << what;
    EXPECT_NE(what.find(frag2), std::string::npos) << what;
  }
}

TEST(FaultTrace, ParseErrorsNameLineAndOffendingText) {
  expectParseError("t=1 link A B down\nt=zzz link A B up\n", "line 2", "zzz");
  expectParseError("\n\nt=1 frobnicate A\n", "line 3", "frobnicate");
  expectParseError("t=1 link A B sideways\n", "line 1", "sideways");
  expectParseError("t=1 node N crash extra\n", "line 1", "extra");
  expectParseError("t=1 link A B degrade loss=wat\n", "line 1", "wat");
  expectParseError("t=1 proc N dhcp kill\n", "line 1", "dhcp");
  // Malformed plain link lines.
  expectParseError("t=x link A B down\n", "line 1", "t=x");
  expectParseError("t=1x link A B down\n", "line 1", "t=1x");
  expectParseError("t=soon link A B down\n", "line 1", "soon");
  expectParseError("10 link A B down\n", "line 1", "10 link A B down");
  expectParseError("t=10 edge A B down\n", "line 1", "edge");
  expectParseError("t=1 link A B down\nnot a trace line\n", "line 2",
                   "not a trace line");
  expectParseError("t=10 link A B down\nt=20 link A B upward\n", "line 2",
                   "upward");
  // Truncated lines: missing state, endpoint, or everything after t=.
  expectParseError("t=10 link A B\n", "line 1", "t=10 link A B");
  expectParseError("t=10 link A\n", "line 1", "t=10 link A");
  expectParseError("t=10\n", "line 1", "t=10");
  // Times must be finite, nonnegative numbers (they reach
  // sim::fromSeconds, whose cast is undefined for NaN and infinity).
  expectParseError("t=nan link Denver KansasCity down\n", "line 1", "t=nan");
  expectParseError("t=inf node Houston crash\n", "line 1", "t=inf");
  expectParseError("t=-infinity node Houston crash\n", "line 1",
                   "t=-infinity");
  expectParseError("t=-1 link A B down\n", "line 1", "t=-1");
  expectParseError("t=nan.0 link A B down\n", "line 1", "t=nan.0");
  expectParseError("t=1.2.3 link A B down\n", "line 1", "t=1.2.3");
  // So must every quality value.
  expectParseError("t=1 link A B degrade loss=nan\n", "line 1", "loss=nan");
  expectParseError("t=1 link A B degrade delay=nan\n", "line 1", "delay=nan");
  expectParseError("t=1 link A B degrade bw=inf\n", "line 1", "bw=inf");
  expectParseError("t=1 migrate R to N budget=-inf\n", "line 1",
                   "budget=-inf");
  // vlink takes exactly two endpoints and down|up.
  expectParseError("t=5 vlink A\n", "line 1", "t=5 vlink A");
  expectParseError("t=5 vlink A B\n", "line 1", "t=5 vlink A B");
  expectParseError("t=5 vlink A B restore\n", "line 1", "restore");
  expectParseError("t=5 vlink A B down C\n", "line 1", "t=5 vlink A B down C");
  // A bad line is rejected even when later lines are fine.
  expectParseError("t=5 bogus A B\nt=6 link A B down\n", "line 1", "bogus");
  // Comments (indented too) and blank lines are not events.
  EXPECT_TRUE(fault::parseFaultSchedule("# comment\n\n").events.empty());
  EXPECT_TRUE(
      fault::parseFaultSchedule("  # indented\n\t#tab\n").events.empty());
  EXPECT_EQ(fault::parseFaultSchedule("  # note\nt=1 link A B down\n")
                .events.size(),
            1u);
}

// ---------------------------------------------------------------------------
// Generators

TEST(FaultCampaign, LinkOnlyCampaignIsSortedAndAlternatesPerLink) {
  // A link must never fail while already down, for any seed: per-link
  // events strictly alternate down/up, failures land inside the
  // horizon, and every failure gets its repair (possibly past it).
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  topo::buildAbilene(net);
  fault::CampaignTargets targets;
  for (const auto& link : net.links()) targets.links.push_back(link->name());
  const struct {
    std::uint64_t seed;
    double duration, mttf, mttr;
  } cases[] = {{5, 3600.0, 300.0, 30.0},
               // Repairs often cross the horizon.
               {1, 300.0, 40.0, 30.0},
               {2, 300.0, 40.0, 30.0},
               {3, 300.0, 40.0, 30.0},
               {4, 300.0, 40.0, 30.0},
               {5, 300.0, 40.0, 30.0}};
  for (const auto& c : cases) {
    fault::CampaignModel model;
    model.seed = c.seed;
    model.link = fault::FaultClassModel{true, c.mttf, c.mttr};
    model.degrade.enabled = false;
    model.node.enabled = false;
    model.proc.enabled = false;
    const auto schedule =
        fault::generateFaultCampaign(targets, c.duration, model);
    ASSERT_FALSE(schedule.events.empty()) << "seed " << c.seed;
    std::map<std::pair<std::string, std::string>, bool> down;
    double last = 0.0;
    for (const auto& event : schedule.events) {
      ASSERT_TRUE(event.kind == fault::FaultKind::kLinkDown ||
                  event.kind == fault::FaultKind::kLinkUp);
      const bool up = event.kind == fault::FaultKind::kLinkUp;
      EXPECT_GE(event.at_seconds, last);
      last = event.at_seconds;
      const auto key = std::make_pair(event.a, event.b);
      EXPECT_NE(down[key], !up)
          << "seed " << c.seed << ": link " << event.a << "-" << event.b
          << " repeats state at t=" << event.at_seconds;
      down[key] = !up;
      if (!up) {
        EXPECT_LT(event.at_seconds, c.duration);
      }
    }
    for (const auto& [key, is_down] : down) {
      EXPECT_FALSE(is_down) << key.first << "-" << key.second;
    }
  }
  // `enabled` is the one off switch; a zero MTTF is rejected, not a
  // second way to turn the class off.
  fault::CampaignModel zero_mttf;
  zero_mttf.link.mttf_seconds = 0;
  EXPECT_THROW(fault::generateFaultCampaign(targets, 300.0, zero_mttf),
               std::invalid_argument);
}

TEST(FaultCampaign, GeneratedCampaignIsDeterministicAndLints) {
  fault::CampaignTargets targets;
  targets.links = {"Seattle-Sunnyvale", "Denver-KansasCity"};
  targets.nodes = {"Houston"};
  targets.proc_nodes = {"Atlanta", "Chicago"};
  targets.proc_classes = {fault::ProcClass::kOspf, fault::ProcClass::kRip};
  fault::CampaignModel model = fault::denseCampaignModel(7);
  const auto a = fault::generateFaultCampaign(targets, 200.0, model);
  const auto b = fault::generateFaultCampaign(targets, 200.0, model);
  EXPECT_EQ(emitFaultSchedule(a), emitFaultSchedule(b));
  EXPECT_FALSE(a.events.empty());

  // A generated campaign passes its own linter (no topology binding).
  check::Report report;
  check::checkFaultSchedule(a, report);
  EXPECT_FALSE(report.hasErrors()) << report.format();
}

// ---------------------------------------------------------------------------
// Static checks (V110-V113)

TEST(CheckFaultSchedule, FlagsBadDegradeAndLifecycleAndOrder) {
  fault::FaultSchedule schedule;
  fault::FaultEvent degrade;
  degrade.at_seconds = 5.0;
  degrade.kind = fault::FaultKind::kLinkDegrade;
  degrade.a = "A";
  degrade.b = "B";
  degrade.degrade.loss_rate = 1.5;  // V111
  schedule.events.push_back(degrade);
  fault::FaultEvent crash;
  crash.at_seconds = 2.0;  // V113: moves backwards
  crash.kind = fault::FaultKind::kNodeRestart;  // V112: never crashed
  crash.a = "N";
  schedule.events.push_back(crash);
  fault::FaultEvent srlg;
  srlg.at_seconds = 3.0;
  srlg.kind = fault::FaultKind::kSrlgDown;
  srlg.a = "nowhere";  // V110: undefined group
  schedule.events.push_back(srlg);

  check::Report report;
  check::checkFaultSchedule(schedule, report);
  EXPECT_TRUE(report.hasCode("V110"));
  EXPECT_TRUE(report.hasCode("V111"));
  EXPECT_TRUE(report.hasCode("V112"));
  EXPECT_TRUE(report.hasCode("V113"));
}

TEST(CheckFaultSchedule, VlinkReferencesAndFailRestorePairing) {
  const auto topology = topo::abileneMirrorSpec();
  const struct {
    const char* text;
    const char* code;  ///< nullptr: no findings at all
  } cases[] = {
      // fail -> restore -> fail -> restore is a legitimate flap.
      {"t=10 vlink Denver KansasCity down\n"
       "t=20 vlink Denver KansasCity up\n"
       "t=30 vlink Denver KansasCity down\n"
       "t=40 vlink Denver KansasCity up\n",
       nullptr},
      // Both PoPs exist but Abilene has no direct Seattle-Houston span.
      {"t=5 vlink Seattle Houston down\n", "V110"},
      {"t=5 vlink Denver Nowhere down\n", "V110"},
      // Restore before fail, and a double fail: errors, unlike `link`.
      {"t=5 vlink Denver KansasCity up\n", "V112"},
      {"t=10 vlink Denver KansasCity down\n"
       "t=20 vlink Denver KansasCity down\n",
       "V112"},
  };
  for (const auto& c : cases) {
    check::Report report;
    check::checkFaultSchedule(fault::parseFaultSchedule(c.text), report,
                              &topology);
    if (c.code == nullptr) {
      EXPECT_TRUE(report.empty()) << c.text << report.format();
      continue;
    }
    EXPECT_TRUE(report.hasCode(c.code)) << c.text << report.format();
    EXPECT_TRUE(report.hasErrors()) << c.text << report.format();
  }

  // A virtual link and the physical link under it are separate layers:
  // a substrate fault does not pair with a virtual-link restore.
  check::Report layers;
  check::checkFaultSchedule(
      fault::parseFaultSchedule("t=10 link Denver KansasCity down\n"
                                "t=20 vlink Denver KansasCity up\n"
                                "t=30 link Denver KansasCity up\n"),
      layers, &topology);
  EXPECT_TRUE(layers.hasCode("V112")) << layers.format();
  EXPECT_EQ(layers.countErrors(), 1u) << layers.format();
}

// ---------------------------------------------------------------------------
// Injection

TEST(FaultInjector, LinkDownUpDrivesPhysicalLinks) {
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  topo::buildAbilene(net);
  core::EventSchedule schedule(queue);
  fault::FaultInjector injector(schedule, net);
  injector.apply(fault::parseFaultSchedule(
      "t=5 link Denver KansasCity down\nt=9 link Denver KansasCity up\n"));
  phys::PhysLink* link = net.linkBetween("Denver", "KansasCity");
  queue.runUntil(6 * kSecond);
  EXPECT_FALSE(link->isUp());
  queue.runUntil(10 * kSecond);
  EXPECT_TRUE(link->isUp());
  EXPECT_THROW(
      injector.apply(fault::parseFaultSchedule("t=1 link No Where down\n")),
      std::runtime_error);
}

TEST(FaultInjector, VlinkAndLinkEventsDriveTheOverlay) {
  topo::WorldOptions options;
  options.contention = 0.0;
  auto world = topo::makeDeterWorld(options);
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  fault::FaultInjector injector(world->schedule, world->net,
                                world->iias.get());
  injector.apply(fault::parseFaultSchedule(
      "t=100 vlink Src Fwdr down\n"
      "t=140 vlink Src Fwdr up\n"
      "t=200 link Src Fwdr down\n"
      "t=240 link Src Fwdr up\n"
      "t=300 vlink Src Fwdr down\n"
      "t=305 link Src Fwdr down\n"
      "t=310 link Src Fwdr up\n"
      "t=400 vlink Src Fwdr up\n"));

  // The scripted virtual-link failure kills the adjacency; the restore
  // brings it back.
  world->queue.runUntil(120 * kSecond);
  EXPECT_FALSE(world->iias->allAdjacent());
  world->queue.runUntil(170 * kSecond);
  EXPECT_TRUE(world->iias->allAdjacent());

  // Fate sharing: the virtual link over the failed physical link goes
  // down with it and comes back with it.
  const core::VirtualLink* vlink =
      world->iias->slice().linkBetween("Src", "Fwdr");
  world->queue.runUntil(201 * kSecond);
  EXPECT_FALSE(vlink->isUp());
  world->queue.runUntil(241 * kSecond);
  EXPECT_TRUE(vlink->isUp());

  // The underlay's recovery does not end a scripted virtual-link
  // failure: the adjacency stays down until the vlink's own restore.
  world->queue.runUntil(350 * kSecond);
  EXPECT_FALSE(world->iias->allAdjacent());
  world->queue.runUntil(430 * kSecond);
  EXPECT_TRUE(world->iias->allAdjacent());

  const auto& log = world->schedule.log();
  ASSERT_EQ(log.size(), 8u);
  EXPECT_EQ(log[0].label, "fault vlink Src-Fwdr down");
  EXPECT_EQ(log[1].label, "fault vlink Src-Fwdr up");

  // A vlink event needs an overlay, and a virtual link that exists.
  fault::FaultInjector no_overlay(world->schedule, world->net);
  EXPECT_THROW(no_overlay.apply(
                   fault::parseFaultSchedule("t=500 vlink Src Fwdr down\n")),
               std::runtime_error);
  EXPECT_THROW(injector.apply(
                   fault::parseFaultSchedule("t=500 vlink Src Sink down\n")),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Supervisor

TEST(Supervisor, BackoffIsExponentialJitteredAndDeterministic) {
  auto run = [](std::uint64_t seed) {
    sim::EventQueue queue;
    fault::SupervisorConfig config;
    config.seed = seed;
    fault::Supervisor supervisor(queue, config);
    int running = 1;
    supervisor.manage("p", [&running] { running = 0; },
                      [&running] { running = 1; });
    // Kill it the instant it comes back, five times over.
    for (int i = 0; i < 5; ++i) {
      supervisor.kill("p");
      EXPECT_EQ(running, 0);
      while (supervisor.pendingRestarts() > 0) queue.step();
      EXPECT_EQ(running, 1);
    }
    return supervisor.log();
  };

  const auto log_a = run(11);
  const auto log_b = run(11);
  const auto log_c = run(12);
  ASSERT_EQ(log_a.size(), 5u);
  // Bit-identical under the same seed, different under another.
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].delay, log_b[i].delay) << i;
    EXPECT_EQ(log_a[i].attempt, static_cast<int>(i) + 1);
  }
  bool any_differs = false;
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    any_differs = any_differs || log_a[i].delay != log_c[i].delay;
  }
  EXPECT_TRUE(any_differs);
  // Exponential growth despite +/-25% jitter: each consecutive failure
  // at least ~1.2x the previous mean-relative delay.
  for (std::size_t i = 1; i < log_a.size(); ++i) {
    EXPECT_GT(log_a[i].delay, log_a[i - 1].delay);
  }
}

TEST(Supervisor, HoldKeepsProcessDownUntilRelease) {
  sim::EventQueue queue;
  fault::Supervisor supervisor(queue, {});
  int running = 1;
  supervisor.manage("p", [&running] { running = 0; },
                    [&running] { running = 1; });
  supervisor.hold("p");
  EXPECT_EQ(running, 0);
  queue.runUntil(queue.now() + 600 * kSecond);
  EXPECT_EQ(running, 0);  // no restart while held
  supervisor.release("p");
  while (supervisor.pendingRestarts() > 0) queue.step();
  EXPECT_EQ(running, 1);
}

// ---------------------------------------------------------------------------
// Recovery end to end

TEST(FaultRecovery, OspfReadjacencyAfterProcKillAndRestart) {
  auto world = topo::makeDeterWorld();
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  const double now_s = sim::toSeconds(world->queue.now());

  fault::FaultInjector injector(world->schedule, world->net,
                                world->iias.get());
  fault::FaultSchedule schedule;
  fault::FaultEvent kill;
  kill.at_seconds = now_s + 1.0;
  kill.kind = fault::FaultKind::kProcKill;
  kill.a = "Fwdr";
  kill.proc = fault::ProcClass::kOspf;
  schedule.events.push_back(kill);
  fault::FaultEvent restart = kill;
  restart.at_seconds = now_s + 30.0;
  restart.kind = fault::FaultKind::kProcRestart;
  schedule.events.push_back(restart);
  injector.apply(schedule);

  // Mid-outage: the daemon is down and (past the dead interval) the
  // neighbors have torn the adjacency down.
  world->queue.runUntil(sim::fromSeconds(now_s + 25.0));
  auto* fwdr = world->router("Fwdr");
  ASSERT_NE(fwdr, nullptr);
  EXPECT_FALSE(fwdr->xorp().ospf()->running());
  EXPECT_TRUE(fwdr->xorp().ospf()->timersQuiet());

  // After the restart: full re-adjacency, routes back, from zero state.
  world->queue.runUntil(sim::fromSeconds(now_s + 31.0));
  EXPECT_TRUE(fwdr->xorp().ospf()->running());
  EXPECT_TRUE(world->runUntilConverged(120 * kSecond));
}

TEST(FaultRecovery, OpenVpnClientReconnectsAfterServerNodeCrash) {
  auto world = topo::makeDeterWorld();
  auto& net = world->net;
  auto& client_node = net.addNode("Client", IpAddress(128, 112, 93, 81));
  net.addLink(client_node, *net.nodeByName("Src"));
  auto& client_stack = world->stacks.ensure(client_node);
  overlay::OpenVpnServer server(*world->router("Src"),
                                Prefix::mustParse("10.1.250.0/24"));
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));

  overlay::OpenVpnClient client(client_stack, "cl1");
  overlay::OpenVpnReconnectConfig reconnect;
  reconnect.seed = 99;
  client.connectAsync(server, reconnect);
  const double t0 = sim::toSeconds(world->queue.now());
  world->queue.runUntil(sim::fromSeconds(t0 + 2.0));
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.reconnects(), 0u);

  // Crash the ingress node under the session; bring it back later.
  fault::Supervisor supervisor(world->queue, {});
  fault::FaultInjector injector(world->schedule, world->net,
                                world->iias.get(), &supervisor);
  fault::FaultSchedule schedule;
  fault::FaultEvent crash;
  crash.at_seconds = t0 + 5.0;
  crash.kind = fault::FaultKind::kNodeCrash;
  crash.a = "Src";
  schedule.events.push_back(crash);
  fault::FaultEvent restart = crash;
  restart.at_seconds = t0 + 60.0;
  restart.kind = fault::FaultKind::kNodeRestart;
  schedule.events.push_back(restart);
  injector.apply(schedule);

  // While the node is down the client notices the dead peer and starts
  // the reconnect loop.
  world->queue.runUntil(sim::fromSeconds(t0 + 55.0));
  EXPECT_FALSE(client.connected());
  EXPECT_GT(client.handshakeAttempts(), 1u);

  // Once it returns, the backoff'd loop re-establishes the session —
  // with the same overlay lease.
  const IpAddress lease = client.overlayAddress();
  world->queue.runUntil(sim::fromSeconds(t0 + 160.0));
  EXPECT_TRUE(client.connected());
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_EQ(client.overlayAddress(), lease);
}

TEST(FaultRecovery, DegradedLinkDropsPacketsUntilRestored) {
  auto world = topo::makeDeterWorld();
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  phys::PhysLink* link = world->net.linkBetween("Src", "Fwdr");
  ASSERT_NE(link, nullptr);
  const double base_loss = link->config().loss_rate;
  const auto drops_before = link->channelFrom(link->nodeA()).stats().loss_drops;

  fault::FaultInjector injector(world->schedule, world->net,
                                world->iias.get());
  fault::DegradeSpec spec;
  spec.loss_rate = 1.0;  // every transmission dies
  injector.degradeLink("Src", "Fwdr", spec);
  EXPECT_TRUE(link->isDegraded());
  EXPECT_EQ(link->config().loss_rate, 1.0);

  // OSPF keeps helloing into the lossy link.
  world->queue.runUntil(world->queue.now() + 30 * kSecond);
  const auto drops_during = link->channelFrom(link->nodeA()).stats().loss_drops;
  EXPECT_GT(drops_during, drops_before);

  injector.restoreLink("Src", "Fwdr");
  EXPECT_FALSE(link->isDegraded());
  EXPECT_EQ(link->config().loss_rate, base_loss);
  EXPECT_TRUE(world->runUntilConverged(120 * kSecond));
}

TEST(FaultRecovery, EveryProcessClassSurvivesKillAndSupervisedRestart) {
  // The acceptance bar: a campaign that kills (and supervises back)
  // every XORP process class ends re-converged with zero violations.
  topo::WorldOptions options;
  options.enable_rip = true;
  auto world = topo::makeDeterWorld(options);
  auto& src_bgp = world->router("Src")->xorp().enableBgp({100, 1, "bgp"});
  auto& sink_bgp = world->router("Sink")->xorp().enableBgp({200, 3, "bgp"});
  xorp::BgpProcess::connect(src_bgp, sink_bgp);
  src_bgp.originate(Prefix::mustParse("198.32.0.0/16"));
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));

  fault::ChaosOptions chaos;
  chaos.duration_seconds = 80.0;
  chaos.model = fault::denseCampaignModel(4);
  chaos.model.proc.mttf_seconds = 25.0;  // several kills per daemon
  chaos.model.link.enabled = false;
  chaos.model.degrade.enabled = false;
  chaos.model.node.enabled = false;
  const fault::ChaosReport report = fault::runChaosCampaign(*world, chaos);
  EXPECT_TRUE(report.passed()) << report.format();
  for (const char* frag : {"ospf kill", "rip kill", "bgp kill",
                           "supervisor restart"}) {
    EXPECT_NE(report.event_log.find(frag), std::string::npos)
        << "missing '" << frag << "' in:\n" << report.event_log;
  }

  // Every daemon is back, with its state re-learned from scratch.
  for (const char* name : {"Src", "Fwdr", "Sink"}) {
    auto& xorp = world->router(name)->xorp();
    EXPECT_TRUE(xorp.ospf()->running()) << name;
    EXPECT_TRUE(xorp.rip()->running()) << name;
    if (xorp.bgp() != nullptr) {
      EXPECT_TRUE(xorp.bgp()->running()) << name;
    }
  }
  EXPECT_TRUE(
      sink_bgp.bestRoute(Prefix::mustParse("198.32.0.0/16")).has_value());
}

// ---------------------------------------------------------------------------
// Chaos harness

TEST(FaultRecovery, EstablishedTcpSurvivesNodeCrashAndSupervisedRestart) {
  // A long-lived TCP flow through the overlay stalls while the only
  // forwarding node is down, then resumes on the *same* connection once
  // the node restarts and the supervisor revives its daemons — no
  // reset, no re-accept.
  auto world = topo::makeDeterWorld();
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  const double t0 = sim::toSeconds(world->queue.now());

  app::IperfTcpServer iperf_server(world->stack("Sink"), 5001);
  app::IperfTcpClient iperf_client(world->stack("Src"), world->tapOf("Sink"),
                                   5001, 1, {}, world->tapOf("Src"));
  iperf_client.start(sim::fromSeconds(150.0));
  world->queue.runUntil(sim::fromSeconds(t0 + 10.0));
  const std::uint64_t before_crash = iperf_server.bytesReceived();
  ASSERT_GT(before_crash, 0u);
  ASSERT_EQ(iperf_client.streams().size(), 1u);
  ASSERT_EQ(iperf_client.streams()[0]->state(), tcpip::TcpState::kEstablished);

  fault::Supervisor supervisor(world->queue, {});
  fault::FaultInjector injector(world->schedule, world->net,
                                world->iias.get(), &supervisor);
  fault::FaultSchedule schedule;
  fault::FaultEvent crash;
  crash.at_seconds = t0 + 12.0;
  crash.kind = fault::FaultKind::kNodeCrash;
  crash.a = "Fwdr";
  schedule.events.push_back(crash);
  fault::FaultEvent restart = crash;
  restart.at_seconds = t0 + 40.0;
  restart.kind = fault::FaultKind::kNodeRestart;
  schedule.events.push_back(restart);
  injector.apply(schedule);

  // Mid-outage: the flow is stalled but still established — TCP's
  // retransmission backoff is riding out the blackhole.
  world->queue.runUntil(sim::fromSeconds(t0 + 38.0));
  EXPECT_EQ(iperf_client.streams()[0]->state(),
            tcpip::TcpState::kEstablished);

  // After restart + supervised daemon revival + OSPF re-adjacency the
  // same connection moves bytes again.
  world->queue.runUntil(sim::fromSeconds(t0 + 140.0));
  const std::uint64_t after_recovery = iperf_server.bytesReceived();
  EXPECT_GT(after_recovery, before_crash);
  EXPECT_EQ(iperf_client.streams()[0]->state(),
            tcpip::TcpState::kEstablished);
  EXPECT_EQ(iperf_server.connectionsAccepted(), 1u);  // never re-accepted
  EXPECT_GT(iperf_client.retransmits(), 0u);
}

TEST(Chaos, ShortCampaignIsBitReproducibleAndClean) {
  auto run = [] {
    auto world = topo::makeDeterWorld();
    fault::ChaosOptions options;
    options.duration_seconds = 30.0;
    options.model = fault::denseCampaignModel(3);
    return fault::runChaosCampaign(*world, options);
  };
  const fault::ChaosReport a = run();
  const fault::ChaosReport b = run();
  EXPECT_TRUE(a.passed()) << a.format();
  EXPECT_EQ(a.format(), b.format());
  EXPECT_FALSE(a.event_log.empty());
}

}  // namespace
}  // namespace vini
