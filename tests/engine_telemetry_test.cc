// Engine telemetry tests: the engine's per-node event attribution and
// the event-loop profiler must be byte-invisible to the simulation, on
// the classic and the sharded engine alike; the obs counters of a
// sharded run answer only once its lane buffers are folded.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "app/iperf.h"
#include "app/ping.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "topo/worlds.h"

namespace vini {
namespace {

// ---------------------------------------------------------------------------
// Engine attribution and profiling must be byte-invisible to the simulation

struct FloodRun {
  std::string exports;  ///< metrics + trace CSVs
  std::uint64_t executed = 0;
  std::map<std::string, std::uint64_t> tag_events;  ///< from the profiler
};

/// Converge the Abilene mirror on `threads` engine workers and run one
/// second of 30 Mb/s iperf UDP, with or without the event-loop profiler
/// attached.
FloodRun runFlood(int threads, bool profiled) {
  obs::ScopedObs scope;
  topo::WorldOptions options;
  options.seed = 211;
  options.threads = threads;
  options.contention = 0.0;
  auto world = topo::makeAbileneWorld(options);
  if (!world->runUntilConverged(180 * sim::kSecond)) {
    throw std::runtime_error("world did not converge");
  }
  const sim::Time t0 = world->queue.now();
  if (profiled) scope.profiler().attach(world->queue);

  app::IperfUdpServer server(world->stack("Seattle"), 5001);
  app::IperfUdpClient client(world->stack("Washington"),
                             world->tapOf("Seattle"), 5001, 30e6, 1430,
                             world->tapOf("Washington"));
  client.start(1 * sim::kSecond);
  world->queue.runUntil(t0 + 1 * sim::kSecond);

  FloodRun run;
  scope.obs().foldShardLanes();
  std::ostringstream m, t;
  scope.metrics().writeCsv(m);
  scope.tracer().writeCsv(t);
  run.exports = m.str() + t.str();
  run.executed = world->queue.executedCount();
  // The ScopedObs outlives the world: detach its profiler from the
  // queue before the queue dies, or ~ScopedObs detaches a dangling one.
  scope.profiler().detach();
  for (const auto& [tag, s] : scope.profiler().stats()) {
    run.tag_events[tag] = s.events;
  }
  // Node names resolve after detach too.
  std::ostringstream csv;
  scope.profiler().writeCsv(csv);
  if (profiled) {
    EXPECT_NE(csv.str().find(",Seattle,"), std::string::npos) << csv.str();
  }
  return run;
}

class EnginePassivity : public ::testing::TestWithParam<int> {};

TEST_P(EnginePassivity, AttributionAndIntrospectionDoNotPerturbTheRun) {
  const FloodRun plain = runFlood(GetParam(), false);
  const FloodRun profiled = runFlood(GetParam(), true);
  EXPECT_EQ(plain.exports, profiled.exports);
  EXPECT_EQ(plain.executed, profiled.executed);
  EXPECT_FALSE(profiled.tag_events.empty());
}

INSTANTIATE_TEST_SUITE_P(Threads, EnginePassivity, ::testing::Values(0, 1));

// The profiler runs inside lane contexts on a sharded world; its per-tag
// counts are a property of the sharded schedule, not of the thread count.
TEST(EventLoopProfilerSharded, SameTagCountsAtOneAndTwoThreads) {
  const FloodRun one = runFlood(1, true);
  const FloodRun two = runFlood(2, true);
  EXPECT_EQ(one.tag_events, two.tag_events);
  EXPECT_EQ(one.exports, two.exports);
  ASSERT_TRUE(one.tag_events.count("phys.link"));
  EXPECT_GT(one.tag_events.at("phys.link"), 0u);
}

// ---------------------------------------------------------------------------
// Per-node event attribution in the queue itself

TEST(EventQueueAttribution, CountsPerNodeAndCrossNode) {
  sim::EventQueue queue;
  const sim::NodeTag a = queue.internNodeTag("a");
  const sim::NodeTag b = queue.internNodeTag("b");
  EXPECT_EQ(queue.internNodeTag("a"), a);  // re-intern is stable
  EXPECT_EQ(queue.nodeTagName(a), "a");
  EXPECT_EQ(queue.nodeTagName(sim::kNoNode), "-");

  queue.schedule(10, "test", a, [&queue, a, b] {
    queue.scheduleAfter(5, "test", b, [] {});   // cross
    queue.scheduleAfter(7, "test", a, [] {});   // same
    queue.scheduleAfter(1, [] {});              // untagged: not counted
  });
  queue.run();
  EXPECT_EQ(queue.nodeExecutedCount(a), 2u);
  EXPECT_EQ(queue.nodeExecutedCount(b), 1u);
  EXPECT_EQ(queue.unattributedExecutedCount(), 1u);
  EXPECT_EQ(queue.sameNodeScheduledCount(), 1u);
  EXPECT_EQ(queue.crossNodeScheduledCount(), 1u);
  EXPECT_EQ(queue.minCrossNodeDelay(), 5);
}

// ---------------------------------------------------------------------------
// Obs counters on a sharded world answer only after the fold

// Records made while lanes are armed reach the counters only at
// Obs::foldShardLanes().  A count read before that would silently miss
// them, so the counters throw, as the record accessors and exports do.
TEST(ObsCounterFoldGuard, CountersThrowUntilLanesAreFolded) {
  obs::ScopedObs scope;
  topo::WorldOptions options;
  options.seed = 5;
  options.threads = 2;
  auto world = topo::makeDeterWorld(options);
  ASSERT_TRUE(world->runUntilConverged(120 * sim::kSecond));
  app::Pinger::Options popt;
  popt.count = 4;
  popt.flood = false;
  popt.interval = sim::kSecond / 4;
  popt.source = world->tapOf("Src");
  app::Pinger pinger(world->stack("Src"), world->tapOf("Sink"), popt);
  pinger.start();
  world->queue.runUntil(world->queue.now() + 3 * sim::kSecond);

  const obs::PacketTracer& tracer = scope.tracer();
  const obs::SpanTracker& spans = scope.spans();
  const obs::Timeline& timeline = scope.timeline();
  ASSERT_TRUE(tracer.hasUnfoldedLaneOps());
  ASSERT_TRUE(spans.hasUnfoldedLaneOps());
  ASSERT_TRUE(timeline.hasUnfoldedLaneOps());
  EXPECT_THROW(tracer.totalRecorded(), std::logic_error);
  EXPECT_THROW(tracer.eventCount(obs::TraceEvent::kDeliver), std::logic_error);
  EXPECT_THROW(spans.opened(), std::logic_error);
  EXPECT_THROW(spans.closed(), std::logic_error);
  EXPECT_THROW(spans.closedDelivered(), std::logic_error);
  EXPECT_THROW(spans.closedDropped(), std::logic_error);
  EXPECT_THROW(spans.stillOpen(), std::logic_error);
  EXPECT_THROW(spans.rootsOpened(), std::logic_error);
  EXPECT_THROW(spans.rootsClosed(), std::logic_error);
  EXPECT_THROW(spans.rootsStillOpen(), std::logic_error);
  EXPECT_THROW(spans.lateRootCloses(), std::logic_error);
  EXPECT_THROW(spans.recordsLost(), std::logic_error);
  EXPECT_THROW(timeline.eventsLost(), std::logic_error);

  scope.obs().foldShardLanes();
  std::uint64_t by_kind = 0;
  for (std::size_t k = 0; k < obs::kTraceEventKinds; ++k) {
    by_kind += tracer.eventCount(static_cast<obs::TraceEvent>(k));
  }
  EXPECT_GT(tracer.totalRecorded(), 0u);
  EXPECT_EQ(by_kind, tracer.totalRecorded());
  EXPECT_GT(tracer.eventCount(obs::TraceEvent::kDeliver), 0u);
  EXPECT_GT(spans.closedDelivered(), 0u);
  EXPECT_EQ(spans.opened(), spans.closed() + spans.stillOpen());
  EXPECT_GT(spans.rootsClosed(), 0u);
  EXPECT_EQ(spans.rootsOpened(), spans.rootsClosed() + spans.rootsStillOpen());
  EXPECT_EQ(spans.recordsLost(), 0u);
  EXPECT_EQ(timeline.eventsLost(), 0u);
}

}  // namespace
}  // namespace vini
