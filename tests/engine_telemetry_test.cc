// Engine telemetry tests: the engine's per-node event attribution (which
// must be byte-invisible to the simulation), the EngineMonitor's registry
// mirrors of queue vitals, and the parallelism-ceiling profiler.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "app/iperf.h"
#include "obs/engine_monitor.h"
#include "obs/obs.h"
#include "obs/parallelism.h"
#include "sim/event_queue.h"
#include "topo/worlds.h"

namespace vini {
namespace {

// ---------------------------------------------------------------------------
// Engine attribution must be byte-invisible to the simulation

TEST(EnginePassivity, AttributionAndIntrospectionDoNotPerturbTheRun) {
  auto run = [](bool instrumented) {
    obs::ScopedObs scope;
    topo::WorldOptions options;
    options.seed = 211;
    options.contention = 0.0;
    auto world = topo::makeAbileneWorld(options);
    if (!world->runUntilConverged(180 * sim::kSecond)) {
      throw std::runtime_error("world did not converge");
    }
    const sim::Time t0 = world->queue.now();

    obs::ParallelismProfiler profiler;
    obs::EngineMonitor monitor;
    obs::MetricsRegistry engine_metrics;  // side registry: keeps the
                                          // main export comparable
    if (instrumented) {
      profiler.setLookahead(world->net.minPropagation());
      profiler.attach(world->queue);
      monitor.attach(world->queue, engine_metrics);
      scope.profiler().attach(world->queue);
    }

    app::IperfUdpServer server(world->stack("Seattle"), 5001);
    app::IperfUdpClient client(world->stack("Washington"),
                               world->tapOf("Seattle"), 5001, 30e6, 1430,
                               world->tapOf("Washington"));
    client.start(1 * sim::kSecond);
    world->queue.runUntil(t0 + 1 * sim::kSecond);

    std::ostringstream m, t;
    scope.metrics().writeCsv(m);
    scope.tracer().writeCsv(t);
    const auto executed = world->queue.executedCount();
    // The ScopedObs outlives the world: detach its profiler from the
    // queue before the queue dies, or ~ScopedObs detaches a dangling one.
    if (instrumented) scope.profiler().detach();
    return std::make_pair(m.str() + t.str(), executed);
  };

  const auto plain = run(false);
  const auto instrumented = run(true);
  EXPECT_EQ(plain.first, instrumented.first);
  EXPECT_EQ(plain.second, instrumented.second);
}

// ---------------------------------------------------------------------------
// EngineMonitor

TEST(EngineMonitor, MirrorsQueueVitalsDeterministically) {
  auto run = [] {
    obs::ScopedObs scope;
    topo::WorldOptions options;
    options.seed = 331;
    options.contention = 0.0;
    auto world = topo::makeAbileneWorld(options);
    if (!world->runUntilConverged(180 * sim::kSecond)) {
      throw std::runtime_error("world did not converge");
    }
    const sim::Time t0 = world->queue.now();

    scope.sampler().setPeriod(sim::kSecond / 4);
    scope.sampler().setOrigin(t0);
    scope.sampler().watch("sim.engine", "queue", "pending_events");
    scope.sampler().watch("sim.engine", "Denver", "events_executed");
    // Monitor + sampler share the queue's single advance slot: the
    // monitor refreshes, then chains.
    obs::EngineMonitor monitor;
    monitor.attach(world->queue, scope.metrics(), &scope.sampler());

    app::IperfUdpServer server(world->stack("Seattle"), 5001);
    app::IperfUdpClient client(world->stack("Washington"),
                               world->tapOf("Seattle"), 5001, 30e6, 1430,
                               world->tapOf("Washington"));
    client.start(1 * sim::kSecond);
    world->queue.runUntil(t0 + 1 * sim::kSecond);

    // Wall-derived quantities exist but stay out of the registry.
    EXPECT_GT(monitor.simWallRatio(), 0.0);
    monitor.detach();
    EXPECT_EQ(scope.metrics().findGauge("sim.engine", "wall", "sim_wall_ratio"),
              nullptr);

    // The mirrors agree with the queue's own counters.
    const sim::NodeTag denver = world->queue.internNodeTag("Denver");
    EXPECT_EQ(scope.metrics().counterValue("sim.engine", "Denver",
                                           "events_executed"),
              world->queue.nodeExecutedCount(denver));
    EXPECT_EQ(scope.metrics().counterValue("sim.engine", "queue",
                                           "cross_node_scheduled"),
              world->queue.crossNodeScheduledCount());

    std::ostringstream m, s;
    scope.metrics().writeCsv(m);
    scope.sampler().writeCsv(s);
    return m.str() + s.str();
  };
  // Same seed, same bytes — engine metrics included.
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// ParallelismProfiler (model-level; the CLI self-test covers more)

TEST(ParallelismProfiler, SkewedLoadCapsTheSpeedup) {
  sim::EventQueue queue;
  const sim::NodeTag hot = queue.internNodeTag("hot");
  const sim::NodeTag cold = queue.internNodeTag("cold");
  obs::ParallelismProfiler profiler;
  profiler.setLookahead(sim::kMillisecond);
  profiler.attach(queue);
  for (int w = 0; w < 4; ++w) {
    const sim::Time t = w * sim::kMillisecond + sim::kMicrosecond;
    for (int i = 0; i < 9; ++i) queue.schedule(t + i, "test", hot, [] {});
    queue.schedule(t + 100, "test", cold, [] {});
  }
  queue.run();
  const auto report = profiler.analyze({2});
  ASSERT_EQ(report.predictions.size(), 1u);
  // The hot node gates every window: CP = 9 per window, speedup 40/36.
  EXPECT_EQ(report.total_events, 40u);
  EXPECT_EQ(report.predictions[0].critical_path_events, 36u);
  EXPECT_NEAR(report.predictions[0].predicted_speedup, 40.0 / 36.0, 1e-9);
}

TEST(ParallelismProfiler, RequiresLookaheadBeforeAttach) {
  sim::EventQueue queue;
  obs::ParallelismProfiler profiler;
  EXPECT_THROW(profiler.attach(queue), std::logic_error);
  EXPECT_THROW(profiler.setLookahead(0), std::logic_error);
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

}  // namespace
}  // namespace vini
