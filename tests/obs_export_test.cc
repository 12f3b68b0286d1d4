// Golden-byte pins for every obs text export.
//
// The fixture below builds a SpanTracker, Timeline, MetricSampler,
// MetricsRegistry and PacketTracer by hand — no RNG, no world, no
// event queue — so the exported bytes depend on nothing but the
// writers.  It deliberately hits the corners a formatter can get
// wrong:
//
//  * names containing '"', '\\', '\n', '\t' and a 0x01 byte (JSON
//    escapes in event/thread names; verbatim in the CSVs and in the
//    Chrome args' node/link/reason strings, which are not escaped);
//  * ids of -1, which render as "-";
//  * zero-duration instants next to "X" duration events;
//  * equal (tid, ts) ties within span layers, timeline tracks and
//    sampled series (the export keeps record order on ties);
//  * timestamps whose ns % 1000 < 100 and negative timestamps (the
//    fixed-point microsecond format);
//  * "%.6g" series values and ostream-default gauge/histogram doubles
//    such as 1e-07, 1.23457e+08, 0.3 and -0.
//
// The expected files live in tests/golden/obs_export/.  A mismatch
// writes the actual bytes next to the test binary as
// obs_export.<file>.actual for inspection.
//
// The last test checks the exporters' fold guard on a sharded world.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "app/ping.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "topo/worlds.h"

namespace vini {
namespace {

using obs::MetricSampler;
using obs::SpanOutcome;

const std::string kQuote = "click \"fwd\"";
const std::string kBackslash = "Den\\ver";
const std::string kNewline = "line\nbreak";
const std::string kTab = "tab\there";
const std::string kCtrl = std::string("ctl") + '\x01' + "x";

struct Fixture {
  obs::MetricsRegistry metrics;
  obs::PacketTracer tracer;
  obs::SpanTracker spans;
  obs::Timeline timeline;
  MetricSampler sampler;

  Fixture() {
    buildSpans();
    buildTimeline();
    buildMetricsAndSeries();
    buildTrace();
  }

  void buildSpans() {
    obs::SpanTracker& s = spans;
    const auto ping = s.intern("app.ping");
    const auto phys = s.intern("phys.link");
    const auto click = s.intern(kQuote);
    const auto ctrl = s.intern(kCtrl);
    const auto node = s.intern(kBackslash);
    const auto link = s.intern(kNewline);
    const auto reason = s.intern(kTab);

    // Trace 1: delivered, with a zero-duration hop and a (tid, ts) tie.
    const std::uint64_t t1 = s.newTraceId();
    s.openRoot(t1, ping, 1'000'050, node, 84);
    const auto a = s.open(t1, phys, 1'000'050, node, link, 84);
    const auto b = s.open(t1, phys, 1'000'050, -1, -1, 84);
    s.close(b, 1'000'050);
    s.close(a, 2'500'007);
    const auto c = s.open(t1, click, 2'500'007, node, -1, 84);
    s.close(c, 3'000'999);
    s.closeRoot(t1, 3'000'999, SpanOutcome::kDelivered);

    // Trace 2: dropped with a reason; a late second close is a no-op.
    const std::uint64_t t2 = s.newTraceId();
    s.openRoot(t2, ping, 5, -1, 1500);
    const auto d = s.open(t2, ctrl, 7, -1, link, 0);
    s.close(d, 99, SpanOutcome::kDropped, reason);
    s.closeRoot(t2, 123'456'789'012, SpanOutcome::kDropped, reason);
    s.closeRoot(t2, 123'456'789'013, SpanOutcome::kDropped, reason);

    // Trace 3: one hop still open at export (not a record), one closed
    // earlier than every other phys span.
    const std::uint64_t t3 = s.newTraceId();
    s.open(t3, phys, 200, node, link, 40);
    const auto e = s.open(t3, phys, 1'000, node, -1, 40);
    s.close(e, 1'001, SpanOutcome::kDelivered, -1);
  }

  void buildTimeline() {
    obs::Timeline& tl = timeline;
    tl.instant("ospf/1.0.0.1", "spf_run", 2'000'000);
    tl.duration("ospf/1.0.0.1", "lsa_flood", 2'000'000, 1'500'050);
    tl.instant("fault", kQuote, 500);
    tl.instant(kBackslash + "/track", kNewline, 3'000'001);
    tl.duration("cpu/" + kTab, kCtrl, 40, 60);
    tl.instant("fault", "link_down", 500);
    tl.instant("aaa/negative", "early", -1'500);
    tl.instant("aaa/negative", "earlier", -5);
    tl.duration("fault", "down", 100, -3);  // clamps to an instant
    tl.instant("ospf/1.0.0.1", "spf_run", 1'999'999);
  }

  void buildMetricsAndSeries() {
    obs::Counter& probes = metrics.counter("app.ping", "Washington", "probes");
    obs::Gauge& rtt = metrics.gauge("app.ping", "Washington", "last_rtt_ms");
    obs::Gauge& odd = metrics.gauge(kQuote, kCtrl, "x\\y");
    obs::Gauge& zero = metrics.gauge("app.ping", "Washington", "neg_zero");
    obs::Histogram& h = metrics.histogram("phys.link", kBackslash,
                                          "queue_delay_us",
                                          {0.5, 1.0, 2.5, 1e6});
    metrics.counter("zz", "-", "untouched");

    sampler.bindRegistry(&metrics);
    sampler.setPeriod(1'000);
    sampler.setOrigin(50);
    sampler.watch("app.ping", "Washington", "probes");
    sampler.watch("app.ping", "Washington", "last_rtt_ms",
                  MetricSampler::Mode::kOnChange);
    // The same key twice shares one tid: equal (tid, ts) across series.
    sampler.watch("app.ping", "Washington", "last_rtt_ms");
    sampler.watch(kQuote, kCtrl, "x\\y");
    sampler.watch("missing", "n", "never");

    rtt.set(1e-7);
    sampler.onAdvance(0, 1'050);
    probes.inc(123'456'789);
    rtt.set(123'456'789.0);
    odd.set(-0.5);
    sampler.onAdvance(1'050, 2'050);
    rtt.set(0.1 + 0.2);
    odd.set(1.0 / 3.0);
    sampler.onAdvance(2'050, 4'050);
    probes.inc();
    zero.set(-0.0);
    sampler.onAdvance(4'050, 5'049);
    sampler.onAdvance(5'049, 5'050);

    for (double x : {0.25, 2.0, 3e6, 1e-7, 0.75, 1.0}) h.observe(x);
  }

  void buildTrace() {
    const auto den = tracer.internNode("Denver");
    const auto odd = tracer.internNode(kBackslash);
    const auto link = tracer.internLink(kNewline);
    const auto plain = tracer.internLink("Denver-KansasCity/ab");
    using obs::TraceEvent;
    std::int64_t t = 1'000;
    for (std::size_t k = 0; k < obs::kTraceEventKinds; ++k) {
      obs::TraceRecord r;
      r.t = t;
      r.event = static_cast<TraceEvent>(k);
      r.node = k % 3 == 0 ? std::int16_t{-1} : (k % 3 == 1 ? den : odd);
      r.link = k % 2 == 0 ? link : (k == 5 ? std::int16_t{-1} : plain);
      r.src = 0x0a000001u + static_cast<std::uint32_t>(k);
      r.dst = 0xffffffffu;
      r.flow = k == 4 ? ~std::uint64_t{0} : k * 1'000'003;
      r.seq = k;
      r.bytes = static_cast<std::uint32_t>(40 * k);
      tracer.record(r);
      t += k % 2 == 0 ? 0 : 1'037;
    }
  }
};

std::string goldenPath(const std::string& file) {
  return std::string(VINI_SOURCE_ROOT) + "/tests/golden/obs_export/" + file;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Compare `actual` with the golden file byte for byte; on mismatch
/// write the actual bytes to the working directory and report the
/// first differing offset.
void expectGolden(const std::string& file, const std::string& actual) {
  const std::string expected = readFile(goldenPath(file));
  if (!expected.empty() && actual == expected) return;
  std::size_t at = 0;
  while (at < actual.size() && at < expected.size() &&
         actual[at] == expected[at]) {
    ++at;
  }
  const std::string dump = "obs_export." + file + ".actual";
  std::ofstream(dump, std::ios::binary) << actual;
  ADD_FAILURE() << file << " differs from its golden at byte " << at
                << " (actual " << actual.size() << " bytes, golden "
                << expected.size() << "); actual bytes written to " << dump;
}

TEST(ObsExportGolden, ChromeTraceJson) {
  Fixture f;
  std::ostringstream os;
  obs::writeChromeTrace(os, f.spans, f.timeline, f.sampler);
  expectGolden("chrome.json", os.str());
}

TEST(ObsExportGolden, SpansCsv) {
  Fixture f;
  std::ostringstream os;
  f.spans.writeCsv(os);
  expectGolden("spans.csv", os.str());
}

TEST(ObsExportGolden, TimelineCsv) {
  Fixture f;
  std::ostringstream os;
  f.timeline.writeCsv(os);
  expectGolden("timeline.csv", os.str());
}

TEST(ObsExportGolden, SeriesCsv) {
  Fixture f;
  std::ostringstream os;
  f.sampler.writeCsv(os);
  expectGolden("series.csv", os.str());
}

TEST(ObsExportGolden, MetricsCsv) {
  Fixture f;
  std::ostringstream os;
  f.metrics.writeCsv(os);
  expectGolden("metrics.csv", os.str());
}

TEST(ObsExportGolden, TraceCsv) {
  Fixture f;
  std::ostringstream os;
  f.tracer.writeCsv(os);
  expectGolden("trace.csv", os.str());
}

/// FNV-1a over the bytes: pins outputs too large to check in.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ObsExportGolden, LargeExportsCrossBufferBoundaries) {
  // Several hundred KiB per stream, so any chunked writer flushes many
  // times mid-record; length and hash pin the bytes.
  obs::SpanTracker spans;
  obs::Timeline timeline;
  obs::MetricsRegistry metrics;
  MetricSampler sampler;
  const auto layer_a = spans.intern("phys.queue");
  const auto layer_b = spans.intern(kQuote);
  const auto node = spans.intern(kBackslash);
  for (std::int64_t i = 0; i < 4'000; ++i) {
    const std::uint64_t tr = spans.newTraceId();
    const auto id = spans.open(tr, i % 3 == 0 ? layer_b : layer_a,
                               i * 997 + 13, i % 5 == 0 ? -1 : node);
    spans.close(id, i * 997 + 13 + (i % 7) * 1'001);
    timeline.duration("cpu/" + std::to_string(i % 9), i % 2 ? kCtrl : "wake",
                      i * 1'013 - 40'000, i % 4 == 0 ? 0 : i);
  }
  obs::Gauge& g = metrics.gauge("x", "n", "level");
  sampler.bindRegistry(&metrics);
  sampler.setPeriod(250);
  sampler.watch("x", "n", "level");
  for (int i = 0; i < 3'000; ++i) {
    g.set(1.0 / (i + 1) - 0.001 * i);
    sampler.onAdvance(i * 250, (i + 1) * 250);
  }

  std::ostringstream chrome, span_csv, timeline_csv, series_csv;
  obs::writeChromeTrace(chrome, spans, timeline, sampler);
  spans.writeCsv(span_csv);
  timeline.writeCsv(timeline_csv);
  sampler.writeCsv(series_csv);

  // 3,200 spans carry the backslash node arg, escaped to two bytes.
  EXPECT_EQ(chrome.str().size(), 1085399u);
  EXPECT_EQ(fnv1a(chrome.str()), 8367041358347972551ull);
  EXPECT_EQ(span_csv.str().size(), 262467u);
  EXPECT_EQ(fnv1a(span_csv.str()), 13992385597006075710ull);
  EXPECT_EQ(timeline_csv.str().size(), 93044u);
  EXPECT_EQ(fnv1a(timeline_csv.str()), 9962184432961448558ull);
  EXPECT_EQ(series_csv.str().size(), 78319u);
  EXPECT_EQ(fnv1a(series_csv.str()), 818268145302533201ull);
}

// ---------------------------------------------------------------------------
// Read-before-fold guard: under the sharded engine, records made while
// lanes are armed reach the shared tables only at Obs::foldShardLanes().
// A read or export before that would silently answer from partial state,
// so the record accessors, and every export reading through them, throw.

TEST(ObsExportFoldGuard, ExportsThrowUntilLanesAreFolded) {
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

  ASSERT_TRUE(scope.spans().hasUnfoldedLaneOps());
  ASSERT_TRUE(scope.timeline().hasUnfoldedLaneOps());
  ASSERT_TRUE(scope.tracer().hasUnfoldedLaneOps());
  std::ostringstream early;
  EXPECT_THROW(obs::writeChromeTrace(early, scope.spans(), scope.timeline(),
                                     scope.sampler()),
               std::logic_error);
  EXPECT_THROW(scope.spans().writeCsv(early), std::logic_error);
  EXPECT_THROW(scope.timeline().writeCsv(early), std::logic_error);
  EXPECT_THROW(scope.tracer().writeCsv(early), std::logic_error);
  EXPECT_THROW(scope.tracer().writeBinary(early), std::logic_error);
  EXPECT_TRUE(early.str().empty());
  EXPECT_THROW(scope.tracer().snapshot(), std::logic_error);
  EXPECT_THROW(scope.spans().records(), std::logic_error);
  EXPECT_THROW(scope.spans().traceIds(), std::logic_error);
  EXPECT_THROW(scope.timeline().events(), std::logic_error);

  scope.obs().foldShardLanes();
  EXPECT_FALSE(scope.spans().hasUnfoldedLaneOps());
  EXPECT_FALSE(scope.timeline().hasUnfoldedLaneOps());
  EXPECT_FALSE(scope.tracer().hasUnfoldedLaneOps());
  std::ostringstream chrome, spans, timeline, trace;
  EXPECT_NO_THROW(obs::writeChromeTrace(chrome, scope.spans(),
                                        scope.timeline(), scope.sampler()));
  EXPECT_NO_THROW(scope.spans().writeCsv(spans));
  EXPECT_NO_THROW(scope.timeline().writeCsv(timeline));
  EXPECT_NO_THROW(scope.tracer().writeCsv(trace));
  EXPECT_NE(chrome.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_GT(scope.spans().records().size(), 0u);
  EXPECT_GT(scope.timeline().events().size(), 0u);
  EXPECT_GT(scope.tracer().size(), 0u);
  EXPECT_EQ(scope.tracer().snapshot().size(), scope.tracer().size());
  EXPECT_FALSE(scope.spans().traceIds().empty());
}

}  // namespace
}  // namespace vini
