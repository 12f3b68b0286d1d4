// vini-verify: one seeded-misconfiguration test (plus a clean-input
// test) per check code.  See src/check/checkers.h for the catalogue.
#include <gtest/gtest.h>

#include "check/audit.h"
#include "check/checkers.h"
#include "check/diagnostic.h"
#include "cpu/scheduler.h"
#include "fault/fault.h"
#include "phys/network.h"
#include "sim/event_queue.h"
#include "topo/abilene.h"

namespace {

using namespace vini;
using check::Report;
using check::Severity;
using core::TopologyLinkSpec;
using core::TopologyNodeSpec;
using core::TopologySpec;

TopologySpec chainSpec() {
  TopologySpec spec;
  spec.name = "chain";
  spec.nodes = {{"A", ""}, {"B", ""}, {"C", ""}};
  spec.links = {{"A", "B", 10}, {"B", "C", 10}};
  return spec;
}

// ---------------------------------------------------------------------------
// Diagnostics and Report plumbing

TEST(Diagnostic, FormatsSeverityCodeLocationMessage) {
  const check::Diagnostic d{Severity::kError, "V003", "topology 'x' link A-A",
                            "link connects node 'A' to itself"};
  EXPECT_EQ(check::formatDiagnostic(d),
            "error V003 [topology 'x' link A-A]: link connects node 'A' to "
            "itself");
}

TEST(Report, TracksErrorsAndCodes) {
  Report report;
  EXPECT_FALSE(report.hasErrors());
  report.warning("V112", "fault event 1", "redundant up");
  EXPECT_FALSE(report.hasErrors());
  report.error("V113", "fault event 2", "time went backwards");
  EXPECT_TRUE(report.hasErrors());
  EXPECT_EQ(report.countErrors(), 1u);
  EXPECT_TRUE(report.hasCode("V113"));
  EXPECT_TRUE(report.hasCode("V112"));
  EXPECT_FALSE(report.hasCode("V001"));
}

// ---------------------------------------------------------------------------
// Topology specs (V001-V007)

TEST(CheckTopology, CleanSpecHasNoFindings) {
  Report report;
  check::checkTopologySpec(topo::abileneMirrorSpec(), report);
  EXPECT_TRUE(report.empty()) << report.format();

  Report chain_report;
  check::checkTopologySpec(chainSpec(), chain_report);
  EXPECT_TRUE(chain_report.empty()) << chain_report.format();
}

TEST(CheckTopology, V001DuplicateNodeName) {
  auto spec = chainSpec();
  spec.nodes.push_back({"A", ""});
  Report report;
  check::checkTopologySpec(spec, report);
  EXPECT_TRUE(report.hasCode("V001")) << report.format();
  EXPECT_TRUE(report.hasErrors());
}

TEST(CheckTopology, V002UnknownLinkEndpoint) {
  auto spec = chainSpec();
  spec.links.push_back({"A", "Nowhere", 5});
  Report report;
  check::checkTopologySpec(spec, report);
  EXPECT_TRUE(report.hasCode("V002")) << report.format();
}

TEST(CheckTopology, V003SelfLink) {
  auto spec = chainSpec();
  spec.links.push_back({"B", "B", 5});
  Report report;
  check::checkTopologySpec(spec, report);
  EXPECT_TRUE(report.hasCode("V003")) << report.format();
}

TEST(CheckTopology, V004DuplicateLinkEitherDirection) {
  auto spec = chainSpec();
  spec.links.push_back({"B", "A", 10});  // reversed duplicate of A-B
  Report report;
  check::checkTopologySpec(spec, report);
  EXPECT_TRUE(report.hasCode("V004")) << report.format();
}

TEST(CheckTopology, V005DisconnectedTopology) {
  auto spec = chainSpec();
  spec.nodes.push_back({"D", ""});
  spec.nodes.push_back({"E", ""});
  spec.links.push_back({"D", "E", 1});  // an island
  Report report;
  check::checkTopologySpec(spec, report);
  EXPECT_TRUE(report.hasCode("V005")) << report.format();
}

TEST(CheckTopology, V006ZeroIgpCost) {
  auto spec = chainSpec();
  spec.links[0].igp_cost = 0;
  Report report;
  check::checkTopologySpec(spec, report);
  EXPECT_TRUE(report.hasCode("V006")) << report.format();
}

TEST(CheckTopology, V007DoubleBindingToOnePhysicalNode) {
  auto spec = chainSpec();
  spec.nodes[0].phys_name = "Denver";
  spec.nodes[1].phys_name = "Denver";
  Report report;
  check::checkTopologySpec(spec, report);
  EXPECT_TRUE(report.hasCode("V007")) << report.format();
}

TEST(CheckTopology, V007BindingToUnknownPhysicalNode) {
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  topo::buildAbilene(net);

  auto spec = chainSpec();
  spec.nodes[0].phys_name = "Denver";   // real PoP
  spec.nodes[1].phys_name = "Narnia";   // not a PoP
  Report report;
  check::checkTopologySpec(spec, report, &net);
  EXPECT_TRUE(report.hasCode("V007")) << report.format();

  // The same bindings against real PoPs are clean.
  spec.nodes[1].phys_name = "Chicago";
  Report clean;
  check::checkTopologySpec(spec, clean, &net);
  EXPECT_TRUE(clean.empty()) << clean.format();
}

// ---------------------------------------------------------------------------
// Plain link traces: fault schedules that only take links down and up

TEST(CheckTrace, PlainLinkTracesReportFaultScheduleCodes) {
  const auto topology = topo::abileneMirrorSpec();
  const struct {
    const char* text;
    const char* code;  ///< nullptr: no findings at all
    bool error;
  } cases[] = {
      {"t=10 link Denver KansasCity down\n"
       "t=20 link Denver KansasCity up\n"
       "t=30 link Chicago NewYork down\n"
       "t=40 link Chicago NewYork up\n",
       nullptr, false},
      {"t=20 link Denver KansasCity down\n"
       "t=10 link Denver KansasCity up\n",
       "V113", true},
      {"t=10 link Denver Miami down\n", "V110", true},
      {"t=10 link Denver KansasCity down\n"
       "t=20 link Denver KansasCity down\n",
       "V112", true},
      {"t=10 link Denver KansasCity up\n", "V112", false},
  };
  for (const auto& c : cases) {
    Report report;
    check::checkFaultSchedule(fault::parseFaultSchedule(c.text), report,
                              &topology);
    if (c.code == nullptr) {
      EXPECT_TRUE(report.empty()) << report.format();
      continue;
    }
    EXPECT_TRUE(report.hasCode(c.code)) << c.text << report.format();
    EXPECT_EQ(report.hasErrors(), c.error) << c.text << report.format();
  }
}

// ---------------------------------------------------------------------------
// Node / link / scheduler configs (V030-V033)

TEST(CheckConfigs, V030OvercommittedCpuReservations) {
  auto mirror_a = topo::abileneMirrorSpec("heavy-a");
  auto mirror_b = topo::abileneMirrorSpec("heavy-b");
  std::vector<check::SliceDemand> demands = {
      {&mirror_a, core::ResourceSpec{0.6, false, 0.0}},
      {&mirror_b, core::ResourceSpec{0.6, false, 0.0}},
  };
  Report report;
  check::checkCpuReservations(demands, report);
  EXPECT_TRUE(report.hasCode("V030")) << report.format();

  // The paper's PL-VINI configuration (0.25 each) fits.
  demands[0].resources.cpu_reservation = 0.25;
  demands[1].resources.cpu_reservation = 0.25;
  Report clean;
  check::checkCpuReservations(demands, clean);
  EXPECT_TRUE(clean.empty()) << clean.format();
}

TEST(CheckConfigs, V031InvalidLinkParameters) {
  phys::LinkConfig bad;
  bad.bandwidth_bps = 0.0;
  bad.loss_rate = 1.5;
  Report report;
  check::checkLinkConfig(bad, "link under test", report);
  EXPECT_TRUE(report.hasCode("V031")) << report.format();

  Report clean;
  check::checkLinkConfig(phys::LinkConfig{}, "default link", clean);
  EXPECT_TRUE(clean.empty()) << clean.format();
}

TEST(CheckConfigs, V032NegativePropagationDelay) {
  phys::LinkConfig bad;
  bad.propagation = -5 * sim::kMillisecond;
  Report report;
  check::checkLinkConfig(bad, "link under test", report);
  EXPECT_TRUE(report.hasCode("V032")) << report.format();
}

TEST(CheckConfigs, V033NonpositiveSchedulerParameters) {
  cpu::SchedulerConfig bad;
  bad.timeslice = 0;
  Report report;
  check::checkSchedulerConfig(bad, "node under test", report);
  EXPECT_TRUE(report.hasCode("V033")) << report.format();

  Report clean;
  check::checkSchedulerConfig(cpu::SchedulerConfig{}, "default node", clean);
  EXPECT_TRUE(clean.empty()) << clean.format();
}

TEST(CheckConfigs, LivePhysNetworkAuditIsCleanForAbilene) {
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  topo::buildAbilene(net);
  Report report;
  check::checkPhysNetworkConfigs(net, report);
  EXPECT_TRUE(report.empty()) << report.format();
}

// ---------------------------------------------------------------------------
// Runtime invariant audits (V100-V103); compiled in under VINI_AUDIT.

TEST(Audit, CollectorCapturesReports) {
  check::ScopedAuditCollector collector;
  check::auditReport({Severity::kError, "V100", "event 7",
                      "event timestamp 5 is earlier than now() 9"});
  check::auditReport({Severity::kError, "V102", "phys channel",
                      "queued_bytes counter 10 != 0 bytes actually queued"});
  EXPECT_TRUE(collector.report().hasCode("V100"));
  EXPECT_TRUE(collector.report().hasCode("V102"));
  EXPECT_EQ(collector.report().size(), 2u);
}

TEST(Audit, V101CancelAfterFire) {
#if !VINI_AUDIT_ENABLED
  GTEST_SKIP() << "build has VINI_AUDIT off";
#else
  check::ScopedAuditCollector collector;
  sim::EventQueue queue;
  const sim::EventId id = queue.schedule(10, [] {});
  queue.run();
  EXPECT_FALSE(queue.cancel(id));  // deterministic: fired means false
  EXPECT_TRUE(collector.report().hasCode("V101"))
      << collector.report().format();
  // Cancelling an id that already fired is a benign race in component
  // teardown ordering, so it stays a warning.
  EXPECT_FALSE(collector.report().hasErrors());

  // An id this queue never issued, by contrast, means the caller is
  // holding a corrupted or foreign handle: that is an error.
  sim::EventQueue fresh;
  check::ScopedAuditCollector loud;
  EXPECT_FALSE(fresh.cancel(12345));
  EXPECT_TRUE(loud.report().hasCode("V101")) << loud.report().format();
  EXPECT_TRUE(loud.report().hasErrors()) << loud.report().format();
#endif
}

TEST(Audit, V103OvercommittedNodeReservations) {
#if !VINI_AUDIT_ENABLED
  GTEST_SKIP() << "build has VINI_AUDIT off";
#else
  check::ScopedAuditCollector collector;
  sim::EventQueue queue;
  cpu::Scheduler scheduler(queue, cpu::SchedulerConfig{});
  scheduler.createProcess(cpu::ProcessConfig{"a", 0.7, false});
  EXPECT_TRUE(collector.report().empty()) << collector.report().format();
  scheduler.createProcess(cpu::ProcessConfig{"b", 0.7, false});
  EXPECT_TRUE(collector.report().hasCode("V103"))
      << collector.report().format();
#endif
}

TEST(Audit, QuietOnHealthyRun) {
#if !VINI_AUDIT_ENABLED
  GTEST_SKIP() << "build has VINI_AUDIT off";
#else
  check::ScopedAuditCollector collector;
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  topo::buildAbilene(net);
  // Drive some traffic-free event churn: link flaps and timers.
  phys::PhysLink* span = net.linkBetween("Denver", "KansasCity");
  ASSERT_NE(span, nullptr);
  queue.schedule(10 * sim::kSecond, [&] { span->setUp(false); });
  queue.schedule(20 * sim::kSecond, [&] { span->setUp(true); });
  queue.runUntil(30 * sim::kSecond);
  EXPECT_TRUE(collector.report().empty()) << collector.report().format();
#endif
}

}  // namespace
