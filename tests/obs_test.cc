// Unit tests for the observability layer (metrics registry, packet
// tracer, event-loop profiler) and for the bugfixes that shipped with
// it: routing-table replacement keyed on (prefix, proto), integer
// serialization timing, and Welford-based deviations.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "packet/packet.h"
#include "phys/link.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "tcpip/routing_table.h"

namespace vini {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsRegistry, RegisterBumpRead) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("phys.link", "A-B/ab", "tx_packets");
  c.inc();
  c.inc(4);
  EXPECT_EQ(reg.counterValue("phys.link", "A-B/ab", "tx_packets"), 5u);
  EXPECT_EQ(reg.counterValue("phys.link", "A-B/ab", "never_registered"), 0u);

  obs::Gauge& g = reg.gauge("phys.link", "A-B/ab", "queued_bytes");
  g.set(1500.0);
  g.add(-500.0);
  EXPECT_DOUBLE_EQ(reg.findGauge("phys.link", "A-B/ab", "queued_bytes")->value(),
                   1000.0);
}

TEST(MetricsRegistry, SameKeySameTypeSharesTheMetric) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("click.FromSocket", "NewYork", "rx_packets");
  obs::Counter& b = reg.counter("click.FromSocket", "NewYork", "rx_packets");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);
}

TEST(MetricsRegistry, TypeConflictThrows) {
  // The CI gate: the same key re-registered with a different type must
  // surface as a hard failure, not silently shadow the first metric.
  obs::MetricsRegistry reg;
  reg.counter("tcpip.host", "Denver", "rx_packets");
  EXPECT_THROW(reg.gauge("tcpip.host", "Denver", "rx_packets"),
               std::logic_error);
  EXPECT_THROW(reg.histogram("tcpip.host", "Denver", "rx_packets", {1.0}),
               std::logic_error);
}

TEST(MetricsRegistry, CsvIsIndependentOfRegistrationOrder) {
  obs::MetricsRegistry first;
  first.counter("b", "n", "x").inc(2);
  first.gauge("a", "n", "y").set(3.5);
  first.counter("a", "n", "x").inc(1);

  obs::MetricsRegistry second;
  second.counter("a", "n", "x").inc(1);
  second.counter("b", "n", "x").inc(2);
  second.gauge("a", "n", "y").set(3.5);

  std::ostringstream csv1;
  std::ostringstream csv2;
  first.writeCsv(csv1);
  second.writeCsv(csv2);
  EXPECT_EQ(csv1.str(), csv2.str());

  // forEach visits in sorted key order.
  std::vector<std::string> keys;
  first.forEach([&](const obs::MetricKey& key, obs::MetricType) {
    keys.push_back(key.str());
  });
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "a/n/x");
  EXPECT_EQ(keys[1], "a/n/y");
  EXPECT_EQ(keys[2], "b/n/x");
}

TEST(MetricsRegistry, HistogramBuckets) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("app.ping", "W", "rtt_ms", {1.0, 2.0, 5.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.5);   // bucket 1 (<= 2)
  h.observe(2.0);   // bucket 1 (inclusive upper bound)
  h.observe(10.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  ASSERT_EQ(h.bucketCount(), 4u);
  EXPECT_EQ(h.bucketValue(0), 1u);
  EXPECT_EQ(h.bucketValue(1), 2u);
  EXPECT_EQ(h.bucketValue(2), 0u);
  EXPECT_EQ(h.bucketValue(3), 1u);  // overflow
}

TEST(MetricsRegistry, SumCountersAcrossNodes) {
  obs::MetricsRegistry reg;
  reg.counter("xorp.ospf", "1.0.0.1", "spf_runs").inc(3);
  reg.counter("xorp.ospf", "1.0.0.2", "spf_runs").inc(4);
  reg.counter("xorp.ospf", "1.0.0.2", "hellos_sent").inc(100);
  EXPECT_EQ(reg.sumCounters("xorp.ospf", "spf_runs"), 7u);
}

// ---------------------------------------------------------------------------
// Packet tracer

TEST(PacketTracer, RingOverflowKeepsTotalsExact) {
  obs::PacketTracer tracer(4);
  for (int i = 0; i < 11; ++i) {
    obs::TraceRecord rec;
    rec.t = i;
    rec.event = (i % 2 == 0) ? obs::TraceEvent::kEnqueue
                             : obs::TraceEvent::kQueueDrop;
    tracer.record(rec);
  }
  // The ring holds only the newest 4 records...
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_TRUE(tracer.wrapped());
  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().t, 7);
  EXPECT_EQ(snap.back().t, 10);
  // ...but the per-kind totals keep exact counts past the wrap.
  EXPECT_EQ(tracer.totalRecorded(), 11u);
  EXPECT_EQ(tracer.eventCount(obs::TraceEvent::kEnqueue), 6u);
  EXPECT_EQ(tracer.eventCount(obs::TraceEvent::kQueueDrop), 5u);
}

TEST(PacketTracer, FullNameTableThrowsInsteadOfWrapping) {
  // Record ids are int16: the 0x7fff'th name would wrap to a negative id
  // that exports as "-".
  obs::PacketTracer tracer(4);
  for (int i = 0; i < 0x7fff; ++i) {
    ASSERT_EQ(tracer.internLink("link" + std::to_string(i)), i);
  }
  EXPECT_EQ(tracer.internLink("link0"), 0);  // hits still resolve
  EXPECT_THROW(tracer.internLink("one-too-many"), std::length_error);
  EXPECT_EQ(tracer.linkName(0x7ffe), "link32766");
  EXPECT_EQ(tracer.internNode("Washington"), 0);  // separate table
}

TEST(PacketTracer, BinaryRoundTrip) {
  obs::PacketTracer tracer(16);
  const std::int16_t node = tracer.internNode("Washington");
  const std::int16_t link = tracer.internLink("Denver-KansasCity/ab");
  EXPECT_EQ(tracer.internNode("Washington"), node);

  obs::TraceRecord rec;
  rec.t = 123456789;
  rec.event = obs::TraceEvent::kSerializeStart;
  rec.node = node;
  rec.link = link;
  rec.src = 0x0a010002;
  rec.dst = 0x0a010102;
  rec.flow = 42;
  rec.seq = 7;
  rec.bytes = 1538;
  tracer.record(rec);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  tracer.writeBinary(buf);
  const auto dump = obs::PacketTracer::readBinary(buf);
  ASSERT_EQ(dump.records.size(), 1u);
  const auto& r = dump.records[0];
  EXPECT_EQ(r.t, 123456789);
  EXPECT_EQ(r.event, obs::TraceEvent::kSerializeStart);
  EXPECT_EQ(r.node, node);
  EXPECT_EQ(r.link, link);
  EXPECT_EQ(r.src, 0x0a010002u);
  EXPECT_EQ(r.dst, 0x0a010102u);
  EXPECT_EQ(r.flow, 42u);
  EXPECT_EQ(r.seq, 7u);
  EXPECT_EQ(r.bytes, 1538u);
  ASSERT_EQ(dump.node_names.size(), 1u);
  EXPECT_EQ(dump.node_names[0], "Washington");
  ASSERT_EQ(dump.link_names.size(), 1u);
  EXPECT_EQ(dump.link_names[0], "Denver-KansasCity/ab");
}

TEST(PacketTracer, MalformedBinaryIsRejected) {
  std::stringstream bad(std::ios::in | std::ios::out | std::ios::binary);
  bad << "not a trace";
  EXPECT_THROW(obs::PacketTracer::readBinary(bad), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Event-loop profiler

TEST(EventLoopProfiler, AttributesEventsByTag) {
  sim::EventQueue q;
  obs::EventLoopProfiler profiler;
  profiler.attach(q);
  for (int i = 0; i < 3; ++i) q.schedule(i * 10, "phys.link", [] {});
  for (int i = 0; i < 2; ++i) q.schedule(i * 10 + 5, "tcpip.host", [] {});
  q.schedule(100, [] {});  // untagged
  q.run();

  const auto& stats = profiler.stats();
  ASSERT_TRUE(stats.count("phys.link"));
  ASSERT_TRUE(stats.count("tcpip.host"));
  ASSERT_TRUE(stats.count("untagged"));
  EXPECT_EQ(stats.at("phys.link").events, 3u);
  EXPECT_EQ(stats.at("tcpip.host").events, 2u);
  EXPECT_EQ(stats.at("untagged").events, 1u);
  EXPECT_EQ(profiler.totalEvents(), 6u);
}

TEST(EventLoopProfiler, DetachStopsAttribution) {
  sim::EventQueue q;
  {
    obs::EventLoopProfiler profiler;
    profiler.attach(q);
    q.schedule(0, "a", [] {});
    q.run();
    EXPECT_EQ(profiler.totalEvents(), 1u);
  }  // profiler destroyed -> hook detached
  q.schedule(10, "a", [] {});
  q.run();  // must not touch the dead profiler
}

TEST(ScopedObs, InstallsAndRestores) {
  EXPECT_EQ(obs::current(), nullptr);
  {
    obs::ScopedObs outer;
    EXPECT_EQ(obs::current(), &outer.obs());
    {
      obs::ScopedObs inner;
      EXPECT_EQ(obs::current(), &inner.obs());
    }
    EXPECT_EQ(obs::current(), &outer.obs());
  }
  EXPECT_EQ(obs::current(), nullptr);
}

// ---------------------------------------------------------------------------
// Reconciliation: tracer vs registry vs channel byte accounting (the
// same queued-byte sum the V102 audit checks)

TEST(Reconciliation, ChannelDropsMatchAcrossTracerRegistryAndStats) {
  obs::ScopedObs scope;

  sim::EventQueue q;
  sim::Random random(4242);
  phys::LinkState link;
  phys::LinkConfig config;
  config.bandwidth_bps = 1e6;      // slow: packets back up
  config.queue_bytes = 4000;       // tiny drop-tail queue
  config.loss_rate = 0.2;          // seeded random loss
  phys::Channel channel(q, random, config, link, "A-B/ab");

  std::uint64_t delivered = 0;
  channel.setDeliverHandler([&](packet::PacketBox, sim::Time) { ++delivered; });

  auto makePacket = [](int i) {
    auto p = std::make_unique<packet::Packet>(packet::Packet::udp(
        packet::IpAddress(10, 0, 0, 1), packet::IpAddress(10, 0, 0, 2), 1000,
        2000, 1430));
    p->meta.app_seq = static_cast<std::uint64_t>(i) + 1;
    return p;
  };

  // A burst overwhelms the 4000-byte queue: only ~3 packets fit, the
  // rest are drop-tail drops.
  const int kBurst = 40;
  for (int i = 0; i < kBurst; ++i) channel.transmit(makePacket(i));

  // Then a paced tail, each packet arriving after the queue has drained,
  // so every one of them is serialized and faces the loss coin — enough
  // Bernoulli trials that the 20% loss model fires for any seed.
  const int kPaced = 60;
  for (int i = 0; i < kPaced; ++i) {
    q.schedule((i + 1) * 20 * sim::kMillisecond,
               [&channel, p = makePacket(kBurst + i)]() mutable {
                 channel.transmit(std::move(p));
               });
  }
  const int kPackets = kBurst + kPaced;

  // Mid-burst, before the queue drains: the registry gauge mirrors the
  // channel's own byte accounting (what the V102 audit cross-checks).
  const obs::Gauge* queued =
      scope.metrics().findGauge("phys.link", "A-B/ab", "queued_bytes");
  ASSERT_NE(queued, nullptr);
  EXPECT_DOUBLE_EQ(queued->value(),
                   static_cast<double>(channel.queuedBytes()));

  q.run();

  const auto& stats = channel.stats();
  EXPECT_GT(stats.queue_drops, 0u);  // the tiny queue must have overflowed
  EXPECT_GT(stats.loss_drops, 0u);   // and the loss model must have fired

  // Tracer event totals == registry counters == channel stats, exactly.
  EXPECT_EQ(scope.tracer().eventCount(obs::TraceEvent::kQueueDrop),
            stats.queue_drops);
  EXPECT_EQ(scope.tracer().eventCount(obs::TraceEvent::kLossDrop),
            stats.loss_drops);
  EXPECT_EQ(
      scope.metrics().counterValue("phys.link", "A-B/ab", "queue_drops"),
      stats.queue_drops);
  EXPECT_EQ(scope.metrics().counterValue("phys.link", "A-B/ab", "loss_drops"),
            stats.loss_drops);
  EXPECT_EQ(scope.metrics().counterValue("phys.link", "A-B/ab", "tx_packets"),
            stats.tx_packets);

  // Conservation: every offered packet is either drop-tailed at the
  // queue or serialized onto the wire (tx counts lost frames too — the
  // loss coin fires after serialization).
  EXPECT_EQ(stats.queue_drops + stats.tx_packets,
            static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(delivered,
            stats.tx_packets - stats.loss_drops - stats.down_drops);

  // Queue fully drained; gauge agrees.
  EXPECT_EQ(channel.queuedBytes(), 0u);
  EXPECT_DOUBLE_EQ(queued->value(), 0.0);
}

TEST(Reconciliation, InstrumentationIsPassive) {
  // A run with observability installed must produce the identical packet
  // outcome as one without: obs never schedules events or consumes
  // randomness.
  auto runOnce = [](bool with_obs) {
    std::optional<obs::ScopedObs> scope;
    if (with_obs) scope.emplace();
    sim::EventQueue q;
    sim::Random random(99);
    phys::LinkState link;
    phys::LinkConfig config;
    config.bandwidth_bps = 1e6;
    config.queue_bytes = 4000;
    config.loss_rate = 0.3;
    phys::Channel channel(q, random, config, link, with_obs ? "L/ab" : "");
    std::vector<std::uint64_t> delivered_seqs;
    channel.setDeliverHandler([&](packet::PacketBox p, sim::Time) {
      delivered_seqs.push_back(p->meta.app_seq);
    });
    for (int i = 0; i < 30; ++i) {
      auto p = std::make_unique<packet::Packet>(packet::Packet::udp(
          packet::IpAddress(10, 0, 0, 1), packet::IpAddress(10, 0, 0, 2), 1,
          2, 500));
      p->meta.app_seq = static_cast<std::uint64_t>(i) + 1;
      channel.transmit(std::move(p));
    }
    q.run();
    return delivered_seqs;
  };
  EXPECT_EQ(runOnce(true), runOnce(false));
}

// ---------------------------------------------------------------------------
// Bugfix regressions

TEST(RoutingTableFix, CostFlapLeavesOneEntry) {
  // Regression: addRoute used to replace on (prefix, metric), so a
  // protocol re-announcing a prefix with a *changed* cost accumulated a
  // duplicate — and lookup() could keep serving the stale entry.
  tcpip::RoutingTable table;
  const auto prefix = packet::Prefix::mustParse("10.0.0.0/8");

  tcpip::Route before;
  before.prefix = prefix;
  before.metric = 10;
  before.proto = "ospf";
  table.addRoute(before);

  // The link cost flaps: same prefix, same protocol, new metric.
  tcpip::Route after = before;
  after.metric = 20;
  table.addRoute(after);

  ASSERT_EQ(table.routes().size(), 1u);
  EXPECT_EQ(table.routes()[0].metric, 20);

  // Flap back down; still one entry, with the latest metric.
  before.metric = 10;
  table.addRoute(before);
  ASSERT_EQ(table.routes().size(), 1u);
  EXPECT_EQ(table.routes()[0].metric, 10);

  // A different protocol announcing the same prefix is a separate entry.
  tcpip::Route other = before;
  other.proto = "static";
  other.metric = 5;
  table.addRoute(other);
  EXPECT_EQ(table.routes().size(), 2u);
  const tcpip::Route* hit = table.lookup(packet::IpAddress(10, 1, 2, 3));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->metric, 5);  // lower metric wins the tie
}

TEST(SerializationFix, IntegerCeilingDisagreesWithFloatTruncation) {
  // 1538 wire bytes at 300 Mb/s: the exact time is 41013.33... ns.  The
  // old float path truncated to 41013 ns (shipping a bit's tail for
  // free); the integer ceiling rounds up to 41014 ns.
  const std::size_t bytes = 1538;
  const double bps = 3e8;
  const auto old_float = static_cast<sim::Duration>(
      static_cast<double>(bytes) * 8.0 / bps * 1e9);
  const sim::Duration fixed = sim::serializationDelay(bytes, bps);
  EXPECT_NE(fixed, old_float);  // the bug was observable at this point
  // Exact check: ceil(1538*8*1e9 / 3e8) = ceil(41013.33...) = 41014.
  EXPECT_EQ(fixed, 41014);

  // The ceiling never under-estimates: delay * bps covers all the bits.
  for (std::size_t b : {1u, 64u, 1430u, 1538u, 65535u}) {
    const sim::Duration d = sim::serializationDelay(b, bps);
    EXPECT_GE(static_cast<double>(d) * bps,
              static_cast<double>(b) * 8.0 * 1e9 - 1e-6);
  }
  // Degenerate bandwidth: no delay rather than a divide-by-zero.
  EXPECT_EQ(sim::serializationDelay(1500, 0.0), 0);
}

TEST(WelfordFix, LargeOffsetKeepsDeviationExact) {
  // RTTs recorded as absolute nanoseconds: mean >> deviation.  The old
  // sum-of-squares form cancelled catastrophically here (stddev could
  // come out 0 or NaN); Welford stays exact.
  sim::SampleStats stats;
  const double base = 1e9;
  stats.add(base - 1.0);
  stats.add(base);
  stats.add(base + 1.0);
  EXPECT_DOUBLE_EQ(stats.mean(), base);
  EXPECT_NEAR(stats.stddev(), 1.0, 1e-9);                 // n-1 denominator
  EXPECT_NEAR(stats.mdev(), std::sqrt(2.0 / 3.0), 1e-9);  // population (ping)
  EXPECT_DOUBLE_EQ(stats.min(), base - 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), base + 1.0);
}

TEST(WelfordFix, MatchesDirectComputationOnSmallSamples) {
  sim::SampleStats stats;
  const std::vector<double> xs = {71.5, 90.6, 71.6, 76.0, 93.2};
  double sum = 0.0;
  for (double x : xs) {
    stats.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double m2 = 0.0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  EXPECT_NEAR(stats.stddev(),
              std::sqrt(m2 / static_cast<double>(xs.size() - 1)), 1e-12);
  EXPECT_NEAR(stats.mdev(), std::sqrt(m2 / static_cast<double>(xs.size())),
              1e-12);
}

}  // namespace
}  // namespace vini
