// Tests for the vini-timeline layer: span conservation (clean runs and
// fault storms), per-hop latency decomposition against the app-layer
// measurement, timeline/export determinism, sampler and tracing
// passivity, and the histogram quantile columns.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/ping.h"
#include "fault/injector.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "topo/worlds.h"

namespace vini {
namespace {

using sim::kSecond;

std::unique_ptr<topo::World> deterWorld(std::uint64_t seed) {
  topo::WorldOptions options;
  options.seed = seed;
  auto world = topo::makeDeterWorld(options);
  EXPECT_TRUE(world->runUntilConverged(120 * kSecond));
  return world;
}

/// One ping exchange Src -> Sink across the converged DETER overlay;
/// returns the RTTs the app layer recorded.
std::vector<sim::Duration> pingAcross(topo::World& world, std::uint64_t count,
                                      sim::Duration drain = 10 * kSecond) {
  app::Pinger::Options popt;
  popt.count = count;
  popt.flood = false;
  popt.interval = kSecond / 4;
  popt.source = world.tapOf("Src");
  app::Pinger pinger(world.stack("Src"), world.tapOf("Sink"), popt);
  std::vector<sim::Duration> rtts;
  pinger.on_reply = [&rtts](std::uint64_t, sim::Duration rtt) {
    rtts.push_back(rtt);
  };
  pinger.start();
  world.queue.runUntil(world.queue.now() +
                       count * popt.interval + drain);
  return rtts;
}

// ---------------------------------------------------------------------------
// Span conservation

TEST(SpanConservation, DrainedRunClosesEverySpan) {
  obs::ScopedObs scope;
  auto world = deterWorld(7);
  const auto rtts = pingAcross(*world, 4);
  ASSERT_EQ(rtts.size(), 4u);

  const obs::SpanTracker& spans = scope.spans();
  // Every probe opened a root; every root closed exactly once.
  EXPECT_EQ(spans.rootsOpened(), 4u);
  EXPECT_EQ(spans.rootsClosed(), 4u);
  EXPECT_EQ(spans.rootsStillOpen(), 0u);
  EXPECT_EQ(spans.lateRootCloses(), 0u);
  // Hop spans conserve: the run drained, so nothing is in flight.
  EXPECT_GT(spans.opened(), 0u);
  EXPECT_EQ(spans.stillOpen(), 0u);
  EXPECT_EQ(spans.opened(), spans.closed());
  // A delivered ping drops nothing.
  EXPECT_EQ(spans.closedDropped(), 0u);
}

TEST(SpanConservation, FaultStormStillReconciles) {
  obs::ScopedObs scope;
  auto world = deterWorld(11);
  const sim::Time t0 = world->queue.now();

  // Fail the first overlay link mid-run, restore it, and keep pinging
  // through the outage: dropped probes must close their roots at the
  // drop site, not leak them.
  world->schedule.at(t0 + kSecond, "fail Src-Fwdr",
                     [&] { world->iias->failLink("Src", "Fwdr"); });
  world->schedule.at(t0 + 3 * kSecond, "restore Src-Fwdr",
                     [&] { world->iias->restoreLink("Src", "Fwdr"); });
  const auto rtts = pingAcross(*world, 16, 20 * kSecond);

  const obs::SpanTracker& spans = scope.spans();
  EXPECT_EQ(spans.rootsOpened(), 16u);
  // Exactly-once root closure even when probes die mid-path.
  EXPECT_EQ(spans.rootsClosed(), 16u);
  EXPECT_EQ(spans.rootsStillOpen(), 0u);
  EXPECT_EQ(spans.stillOpen(), 0u);
  // The outage really dropped probes, and the drop reason says where.
  EXPECT_LT(rtts.size(), 16u);
  std::uint64_t dropped_roots = 0;
  bool saw_reason = false;
  for (const auto& rec : spans.records()) {
    if (!rec.root || rec.outcome != obs::SpanOutcome::kDropped) continue;
    ++dropped_roots;
    if (spans.name(rec.reason) == "click_drop_filter") saw_reason = true;
  }
  EXPECT_EQ(dropped_roots, 16u - rtts.size());
  EXPECT_TRUE(saw_reason);
}

// ---------------------------------------------------------------------------
// Per-hop decomposition vs the app layer

TEST(Decompose, SegmentsSumToAppMeasuredLatency) {
  obs::ScopedObs scope;
  auto world = deterWorld(13);
  const auto rtts = pingAcross(*world, 1);
  ASSERT_EQ(rtts.size(), 1u);

  const obs::SpanTracker& spans = scope.spans();
  const obs::SpanRecord* root = nullptr;
  for (const auto& rec : spans.records()) {
    if (rec.root && rec.outcome == obs::SpanOutcome::kDelivered) {
      root = &rec;
      break;
    }
  }
  ASSERT_NE(root, nullptr);
  // The root span IS the app-layer measurement: send -> reply.
  EXPECT_EQ(root->duration(), rtts[0]);

  const auto segments = obs::decomposeTrace(spans, root->trace_id);
  ASSERT_FALSE(segments.empty());
  sim::Duration sum = 0;
  sim::Time cursor = root->t_open;
  bool saw_link = false;
  for (const auto& seg : segments) {
    EXPECT_EQ(seg.t_start, cursor);  // sequential, gap-free
    EXPECT_GT(seg.dur, 0);
    cursor = seg.t_start + seg.dur;
    sum += seg.dur;
    if (seg.layer.rfind("phys.", 0) == 0) saw_link = true;
  }
  EXPECT_EQ(cursor, root->t_close);
  EXPECT_EQ(sum, root->duration());  // per-hop breakdown covers the RTT
  EXPECT_TRUE(saw_link);             // wire time is attributed, not a gap
}

TEST(Decompose, ReceiveHoldIsANicRxSegmentAfterPropagation) {
  // The channel schedules a frame's delivery after the receiving NIC's
  // latency: propagation closes at the arrival and host.nic_rx covers
  // [arrival, delivery], so the hop still decomposes without a gap.
  obs::ScopedObs scope;
  auto world = deterWorld(19);
  const auto rtts = pingAcross(*world, 1);
  ASSERT_EQ(rtts.size(), 1u);

  const obs::SpanTracker& spans = scope.spans();
  const obs::SpanRecord* root = nullptr;
  for (const auto& rec : spans.records()) {
    if (rec.root && rec.outcome == obs::SpanOutcome::kDelivered) root = &rec;
  }
  ASSERT_NE(root, nullptr);
  const auto segments = obs::decomposeTrace(spans, root->trace_id);
  sim::Time cursor = root->t_open;
  int nic_rx = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& seg = segments[i];
    EXPECT_EQ(seg.t_start, cursor);
    cursor = seg.t_start + seg.dur;
    if (seg.layer != "host.nic_rx") continue;
    ++nic_rx;
    EXPECT_GT(seg.dur, 0);
    ASSERT_GT(i, 0u);
    EXPECT_EQ(segments[i - 1].layer, "phys.propagation");
  }
  EXPECT_EQ(cursor, root->t_close);
  // Src -> Fwdr -> Sink and back: four wire hops into a host.
  EXPECT_EQ(nic_rx, 4);
}

// ---------------------------------------------------------------------------
// Timeline events and determinism

TEST(Timeline, ControlPlaneEventsLandOnTracks) {
  obs::ScopedObs scope;
  auto world = deterWorld(17);

  // Convergence alone must have produced OSPF SPF runs on ospf/ tracks
  // and scheduler activity on cpu/ tracks.
  const obs::Timeline& timeline = scope.timeline();
  bool saw_ospf = false;
  bool saw_cpu = false;
  for (const auto& name : timeline.trackNames()) {
    if (name.rfind("ospf/", 0) == 0) saw_ospf = true;
    if (name.rfind("cpu/", 0) == 0) saw_cpu = true;
  }
  EXPECT_TRUE(saw_ospf);
  EXPECT_TRUE(saw_cpu);
  bool saw_spf = false;
  for (const auto& name : timeline.labelNames()) {
    if (name == "spf_run") saw_spf = true;
  }
  EXPECT_TRUE(saw_spf);

  // A fault-injector event lands on its fault/<entity> track.
  fault::FaultInjector injector(world->schedule, world->net,
                                world->iias.get(), nullptr);
  injector.setLinkFault("Src", "Fwdr", true);
  injector.setLinkFault("Src", "Fwdr", false);
  bool saw_fault = false;
  for (const auto& name : timeline.trackNames()) {
    if (name.rfind("fault/", 0) == 0) saw_fault = true;
  }
  EXPECT_TRUE(saw_fault);
}

/// Run the same seeded scenario and export the full Chrome trace.
std::string exportScenario(std::uint64_t seed) {
  obs::ScopedObs scope;
  auto world = deterWorld(seed);
  const sim::Time t0 = world->queue.now();
  scope.sampler().setPeriod(kSecond / 2);
  scope.sampler().setOrigin(t0);
  scope.sampler().watch("app.ping", "Src", "last_rtt_ms",
                        obs::MetricSampler::Mode::kOnChange);
  scope.sampler().attach(world->queue);
  world->schedule.at(t0 + kSecond, "fail Src-Fwdr",
                     [&] { world->iias->failLink("Src", "Fwdr"); });
  world->schedule.at(t0 + 3 * kSecond, "restore Src-Fwdr",
                     [&] { world->iias->restoreLink("Src", "Fwdr"); });
  pingAcross(*world, 8);
  scope.sampler().detach();
  std::ostringstream os;
  obs::writeChromeTrace(os, scope.spans(), scope.timeline(), scope.sampler());
  return os.str();
}

TEST(Timeline, ExportIsDeterministic) {
  // Same seed, fresh world and obs context: byte-identical export.
  const std::string a = exportScenario(23);
  const std::string b = exportScenario(23);
  EXPECT_GT(a.size(), 1000u);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Passivity: instrumentation must not change the simulation

struct RunOutcome {
  std::vector<sim::Duration> rtts;
  std::uint64_t executed = 0;
  sim::Time final_time = 0;
};

RunOutcome runObserved(bool with_obs, bool with_sampler) {
  std::unique_ptr<obs::ScopedObs> scope;
  if (with_obs) scope = std::make_unique<obs::ScopedObs>();
  auto world = deterWorld(29);
  if (with_sampler) {
    scope->sampler().setPeriod(sim::kMillisecond * 10);
    scope->sampler().setOrigin(world->queue.now());
    scope->sampler().watch("app.ping", "Src", "last_rtt_ms");
    scope->sampler().attach(world->queue);
  }
  RunOutcome out;
  out.rtts = pingAcross(*world, 6);
  if (with_sampler) scope->sampler().detach();
  out.executed = world->queue.executedCount();
  out.final_time = world->queue.now();
  return out;
}

TEST(Passivity, SamplerDoesNotPerturbTheRun) {
  const RunOutcome off = runObserved(/*with_obs=*/true, /*with_sampler=*/false);
  const RunOutcome on = runObserved(/*with_obs=*/true, /*with_sampler=*/true);
  EXPECT_EQ(off.rtts, on.rtts);
  EXPECT_EQ(off.executed, on.executed);
  EXPECT_EQ(off.final_time, on.final_time);
}

TEST(Passivity, TracingDoesNotPerturbTheRun) {
  // The acceptance bar: a traced run is bit-identical to an untraced
  // one.  RTT list, event count, and final clock are the sim-visible
  // fingerprint of the run.
  const RunOutcome untraced =
      runObserved(/*with_obs=*/false, /*with_sampler=*/false);
  const RunOutcome traced =
      runObserved(/*with_obs=*/true, /*with_sampler=*/false);
  EXPECT_EQ(untraced.rtts, traced.rtts);
  EXPECT_EQ(untraced.executed, traced.executed);
  EXPECT_EQ(untraced.final_time, traced.final_time);
}

// ---------------------------------------------------------------------------
// Histogram quantile columns

TEST(HistogramQuantiles, InterpolatedAndPinned) {
  obs::Histogram h({1.0, 2.0, 5.0, 10.0});
  for (int v = 1; v <= 10; ++v) h.observe(static_cast<double>(v));
  // Cumulative counts: le_1:1, le_2:2, le_5:5, le_10:10.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 9.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 9.9);
  // Past the last bound the estimate clamps to it.
  h.observe(1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 10.0);
  // Empty histograms report 0, not NaN.
  obs::Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(HistogramQuantiles, CsvCarriesTheQuantileRows) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("app.ping", "Src", "rtt_ms",
                                    {1.0, 2.0, 5.0, 10.0});
  for (int v = 1; v <= 10; ++v) h.observe(static_cast<double>(v));
  std::ostringstream os;
  reg.writeCsv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("app.ping,Src,rtt_ms,histogram_p50,5"), std::string::npos);
  EXPECT_NE(csv.find("app.ping,Src,rtt_ms,histogram_p95,9.5"),
            std::string::npos);
  EXPECT_NE(csv.find("app.ping,Src,rtt_ms,histogram_p99,9.9"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Sampler semantics

TEST(MetricSampler, BoundariesAndOnChangeSuppression) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("x", "n", "events");
  obs::Gauge& g = reg.gauge("x", "n", "level");
  obs::MetricSampler sampler;
  sampler.bindRegistry(&reg);
  sampler.setPeriod(100);
  sampler.setOrigin(50);
  sampler.watch("x", "n", "events", obs::MetricSampler::Mode::kEveryTick);
  sampler.watch("x", "n", "level", obs::MetricSampler::Mode::kOnChange);

  c.inc();
  g.set(3.0);
  sampler.onAdvance(0, 160);  // boundaries 50, 150
  sampler.onAdvance(160, 240);  // no boundary in (160, 240]
  g.set(3.0);  // same value, fresh write: must emit (version moved)
  sampler.onAdvance(240, 350);  // boundaries 250, 350

  const auto* events = sampler.find("x", "n", "events");
  ASSERT_NE(events, nullptr);
  // kEveryTick: one point per boundary.
  ASSERT_EQ(events->points.size(), 4u);
  EXPECT_EQ(events->points[0].t, 50);
  EXPECT_EQ(events->points[3].t, 350);

  const auto* level = sampler.find("x", "n", "level");
  ASSERT_NE(level, nullptr);
  // kOnChange: the write before 50 emits at 50; 150 is suppressed; the
  // re-set of the same value emits again at 250; 350 suppressed.
  ASSERT_EQ(level->points.size(), 2u);
  EXPECT_EQ(level->points[0].t, 50);
  EXPECT_EQ(level->points[1].t, 250);
  EXPECT_DOUBLE_EQ(level->points[1].value, 3.0);
}

}  // namespace
}  // namespace vini
