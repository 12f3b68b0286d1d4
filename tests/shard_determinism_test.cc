// World-level determinism of the sharded engine, enforced at the bytes.
//
// The parallel engine's contract is not "similar results with more
// threads" but *byte-identical observability exports for every thread
// count*: metrics CSV, packet-trace CSV, span CSV, timeline CSV,
// sampled series CSV, and the Chrome trace JSON.  This is the test the
// conservative-lookahead design is answerable to — if any lane ordering,
// RNG stream, or fold leaks thread-count dependence, the byte compare
// here fails long before a human could spot it in a plot.
//
// threads = 1 runs the sharded schedule serially and is the reference;
// 2, 8, and hardware_concurrency must reproduce it exactly.  (threads =
// 0, the classic engine, is a *different* — but equally deterministic —
// canonical order; see DESIGN.md section 16.)
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/ping.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "phys/network.h"
#include "tcpip/host_stack.h"
#include "tcpip/stack_manager.h"
#include "topo/worlds.h"

namespace vini {
namespace {

using sim::kSecond;

struct Exports {
  std::string metrics;
  std::string trace;
  std::string spans;
  std::string timeline;
  std::string series;
  std::string chrome;
  std::uint64_t spans_closed = 0;
};

/// A condensed fig8: converge the Abilene mirror, ping across the
/// overlay while a backbone virtual link fails and is restored, with
/// every obs subsystem armed.  Returns all exports as strings.
Exports runScenario(std::uint64_t seed, int threads) {
  obs::ScopedObs scope;
  topo::WorldOptions options;
  options.seed = seed;
  options.threads = threads;
  options.contention = topo::kPlanetLabContention;
  options.resources.cpu_reservation = 0.25;
  options.resources.realtime = true;
  auto world = topo::makeAbileneWorld(options);
  EXPECT_TRUE(world->runUntilConverged(180 * kSecond));
  const sim::Time t0 = world->queue.now();

  scope.sampler().setPeriod(kSecond / 2);
  scope.sampler().setOrigin(t0);
  scope.sampler().watch("app.ping", "Washington", "last_rtt_ms",
                        obs::MetricSampler::Mode::kOnChange);
  scope.sampler().attach(world->queue);

  app::Pinger::Options popt;
  popt.count = 16;
  popt.flood = false;
  popt.interval = kSecond / 2;
  popt.source = world->tapOf("Washington");
  app::Pinger pinger(world->stack("Washington"), world->tapOf("Seattle"),
                     popt);
  world->schedule.at(t0 + 3 * kSecond, "fail", [&] {
    world->iias->failLink("Denver", "KansasCity");
  });
  world->schedule.at(t0 + 6 * kSecond, "restore", [&] {
    world->iias->restoreLink("Denver", "KansasCity");
  });
  pinger.start();
  world->queue.runUntil(t0 + 9 * kSecond);
  scope.sampler().detach();

  // Replay the per-lane buffers into the shared tables; everything below
  // reads the folded state.
  scope.obs().foldShardLanes();

  Exports out;
  out.spans_closed = scope.spans().closed();
  {
    std::ostringstream os;
    scope.metrics().writeCsv(os);
    out.metrics = os.str();
  }
  {
    std::ostringstream os;
    scope.tracer().writeCsv(os);
    out.trace = os.str();
  }
  {
    std::ostringstream os;
    scope.spans().writeCsv(os);
    out.spans = os.str();
  }
  {
    std::ostringstream os;
    scope.timeline().writeCsv(os);
    out.timeline = os.str();
  }
  {
    std::ostringstream os;
    scope.sampler().writeCsv(os);
    out.series = os.str();
  }
  {
    std::ostringstream os;
    obs::writeChromeTrace(os, scope.spans(), scope.timeline(),
                          scope.sampler());
    out.chrome = os.str();
  }
  return out;
}

void expectIdentical(const Exports& a, const Exports& b, const char* what) {
  EXPECT_EQ(a.metrics, b.metrics) << what << ": metrics CSV diverged";
  EXPECT_EQ(a.trace, b.trace) << what << ": trace CSV diverged";
  EXPECT_EQ(a.spans, b.spans) << what << ": span CSV diverged";
  EXPECT_EQ(a.timeline, b.timeline) << what << ": timeline CSV diverged";
  EXPECT_EQ(a.series, b.series) << what << ": series CSV diverged";
  EXPECT_EQ(a.chrome, b.chrome) << what << ": Chrome JSON diverged";
}

TEST(ShardDeterminism, ExportsByteIdenticalAcrossThreadCounts) {
  const Exports one = runScenario(901, 1);
  // The run must actually exercise the traced path, or the byte compare
  // is vacuous.
  ASSERT_GT(one.spans_closed, 0u);
  ASSERT_FALSE(one.metrics.empty());
  const Exports two = runScenario(901, 2);
  const Exports eight = runScenario(901, 8);
  expectIdentical(one, two, "1 vs 2 threads");
  expectIdentical(one, eight, "1 vs 8 threads");

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 1 && hw != 2 && hw != 8) {
    const Exports native = runScenario(901, static_cast<int>(hw));
    expectIdentical(one, native, "1 vs hardware_concurrency threads");
  }
}

/// Number of rows of `csv` (header skipped) whose integer column
/// `column` is smaller than the previous row's; `rows` gets the count.
std::size_t timeRegressions(const std::string& csv, std::size_t column,
                            std::size_t& rows) {
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  rows = 0;
  std::size_t regressions = 0;
  long long prev = 0;
  while (std::getline(in, line)) {
    std::size_t start = 0;
    for (std::size_t c = 0; c < column; ++c) start = line.find(',', start) + 1;
    const long long t = std::stoll(line.substr(start));
    if (rows++ > 0 && t < prev) ++regressions;
    prev = t;
  }
  return regressions;
}

TEST(ShardDeterminism, OrderedExportsAreInTimeOrder) {
  // Main-thread (kNoNode) records and lane records fold through one
  // (t, lane, issue) merge, so the timeline and packet-trace CSVs never
  // step back in time, whatever thread recorded a row.
  for (const int threads : {1, 2}) {
    const Exports e = runScenario(901, threads);
    std::size_t rows = 0;
    EXPECT_EQ(timeRegressions(e.timeline, 2, rows), 0u)
        << threads << " threads: timeline t_ns decreases";
    EXPECT_GT(rows, 100u);
    EXPECT_EQ(timeRegressions(e.trace, 0, rows), 0u)
        << threads << " threads: trace t_ns decreases";
    EXPECT_GT(rows, 100u);
  }
}

// ---------------------------------------------------------------------------
// NIC receive draws: each channel into a node draws its receive latency
// and spikes from its own stream when the frame starts serializing, on
// the sending node's lane.

struct RxDelivery {
  std::uint32_t src = 0;
  std::uint64_t seq = 0;
  sim::Time at = 0;
  bool operator==(const RxDelivery&) const = default;
};

/// Two senders flood a third node over 1 ms links, in bursts and single
/// packets, into a receive stage with frequent spikes; returns every
/// delivery at the receiving socket in order.
std::vector<RxDelivery> runReceiveDraws(int threads) {
  sim::EventQueue queue(threads);
  phys::NetworkConfig net_config;
  net_config.seed = 4242;
  phys::PhysNetwork net(queue, net_config);
  auto& a = net.addNode("a", packet::IpAddress(1, 0, 0, 1));
  auto& b = net.addNode("b", packet::IpAddress(1, 0, 0, 2));
  auto& c = net.addNode("c", packet::IpAddress(1, 0, 0, 3));
  phys::LinkConfig link;
  link.propagation = sim::kMillisecond;
  net.addLink(a, c, link);
  net.addLink(b, c, link);
  tcpip::HostConfig host;
  host.rx_spike_probability = 0.2;
  host.rx_spike_min = 100 * sim::kMicrosecond;
  host.rx_spike_max = 2 * sim::kMillisecond;
  tcpip::StackManager stacks(net, host);
  tcpip::HostStack& sc = stacks.ensure(c);
  std::vector<RxDelivery> got;  // written on c's lane only
  sc.openUdp(7000).setReceiveHandler([&](packet::Packet p) {
    got.push_back({p.ip.src.value(), p.meta.app_seq, queue.now()});
  });
  for (phys::PhysNode* from : {&a, &b}) {
    tcpip::HostStack& sender = stacks.ensure(*from);
    tcpip::UdpSocket& socket = sender.openUdp(1);
    const sim::Duration gap = from == &a ? 37 * sim::kMicrosecond
                                         : 53 * sim::kMicrosecond;
    for (std::uint64_t i = 0; i < 300; ++i) {
      // Every fourth send is a burst of three.
      const int count = i % 4 == 0 ? 3 : 1;
      queue.schedule(static_cast<sim::Time>(i) * gap, "test.send",
                     sender.nodeTag(), [&socket, &sc, i, count] {
                       for (int k = 0; k < count; ++k) {
                         packet::PacketMeta meta;
                         meta.app_seq = i * 4 + static_cast<std::uint64_t>(k);
                         socket.sendTo(sc.address(), 7000, 1000, meta);
                       }
                     });
    }
  }
  // Routes are computed lazily; lanes must find them ready.
  net.recomputeRoutes();
  queue.finalizeSharding(net.minPropagation());
  queue.run();
  return got;
}

TEST(ShardDeterminism, ReceiveDrawsAreThreadCountInvariant) {
  const std::vector<RxDelivery> one = runReceiveDraws(1);
  ASSERT_EQ(one.size(), 2u * (300 + 75 * 2));
  // The draws matter: deliveries spread over many distinct latencies.
  std::vector<sim::Time> times;
  for (const RxDelivery& d : one) times.push_back(d.at % sim::kMicrosecond);
  std::sort(times.begin(), times.end());
  EXPECT_GT(std::unique(times.begin(), times.end()) - times.begin(), 100);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(runReceiveDraws(threads), one)
        << threads << " threads: receive deliveries diverged";
  }
}

TEST(ShardDeterminism, DifferentSeedsStillDiffer) {
  // Guard against the degenerate pass where exports are identical
  // because nothing seed-dependent was captured.
  const Exports a = runScenario(901, 2);
  const Exports b = runScenario(902, 2);
  EXPECT_NE(a.chrome, b.chrome);
}

}  // namespace
}  // namespace vini
