// Micro-benchmarks (google-benchmark) of the substrate's hot paths:
// FIB longest-prefix match (per-length hash tables vs. a linear scan
// baseline — the data-plane design choice), packet serialization, tunnel
// encapsulation, checksums, the event queue, RIB churn, and the random
// streams' distributions.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "click/fib.h"
#include "obs/obs.h"
#include "packet/checksum.h"
#include "packet/packet.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "xorp/rib.h"

namespace {

using vini::click::Fib;
using vini::click::FibEntry;
using vini::packet::IpAddress;
using vini::packet::Packet;
using vini::packet::Prefix;

std::vector<FibEntry> makeRoutes(std::size_t n) {
  std::mt19937 rng(7);
  std::vector<FibEntry> routes;
  routes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FibEntry entry;
    entry.prefix = Prefix(IpAddress(static_cast<std::uint32_t>(rng())),
                          8 + static_cast<int>(rng() % 25));
    entry.next_hop = IpAddress(static_cast<std::uint32_t>(rng()));
    entry.port = static_cast<int>(rng() % 4);
    routes.push_back(entry);
  }
  return routes;
}

void BM_FibLookup(benchmark::State& state) {
  // Random prefixes of lengths 8-32: up to 25 populated lengths to probe.
  const auto routes = makeRoutes(static_cast<std::size_t>(state.range(0)));
  Fib fib;
  for (const auto& r : routes) fib.addRoute(r);
  std::mt19937 rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fib.lookup(IpAddress(static_cast<std::uint32_t>(rng()))));
  }
}
BENCHMARK(BM_FibLookup)->Arg(16)->Arg(256)->Arg(4096);

void BM_FibLookupIias(benchmark::State& state) {
  // The shape XORP installs on an IIAS router: a /30 per virtual link and
  // a /32 per tap address (Abilene: 24 routes).  Lookups are for tap
  // addresses, as tunnelled traffic is.
  const auto n = static_cast<std::size_t>(state.range(0));
  Fib fib;
  std::vector<IpAddress> taps;
  for (std::size_t i = 0; i < n / 2; ++i) {
    const auto base = static_cast<std::uint32_t>(0x0A000000u + 4 * i);
    fib.addRoute({Prefix(IpAddress(base), 30), IpAddress(base + 2),
                  static_cast<int>(i % 4)});
    const IpAddress tap(static_cast<std::uint32_t>(0x0A800000u + i));
    fib.addRoute({Prefix(tap, 32), IpAddress(base + 2), 1});
    taps.push_back(tap);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.lookup(taps[i]));
    if (++i == taps.size()) i = 0;
  }
}
BENCHMARK(BM_FibLookupIias)->Arg(24)->Arg(256);

void BM_FibLinearLookup(benchmark::State& state) {
  // The naive alternative the FIB replaces.
  const auto routes = makeRoutes(static_cast<std::size_t>(state.range(0)));
  std::mt19937 rng(13);
  for (auto _ : state) {
    const IpAddress addr(static_cast<std::uint32_t>(rng()));
    const FibEntry* best = nullptr;
    for (const auto& r : routes) {
      if (r.prefix.contains(addr) &&
          (!best || r.prefix.length() > best->prefix.length())) {
        best = &r;
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_FibLinearLookup)->Arg(16)->Arg(256)->Arg(4096);

void BM_FibInsert(benchmark::State& state) {
  const auto routes = makeRoutes(1024);
  for (auto _ : state) {
    Fib fib;
    for (const auto& r : routes) fib.addRoute(r);
    benchmark::DoNotOptimize(fib.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FibInsert);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    vini::sim::EventQueue q;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      q.schedule(i * 100, [&sink] { ++sink; });
    }
    q.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vini::packet::internetChecksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(20)->Arg(1500);

void BM_PacketSerializeParse(benchmark::State& state) {
  const Packet p = Packet::udp(IpAddress(10, 1, 0, 2), IpAddress(10, 1, 1, 2),
                               4000, 5000, 1430);
  for (auto _ : state) {
    const auto wire = p.serialize();
    benchmark::DoNotOptimize(Packet::parse(wire));
  }
}
BENCHMARK(BM_PacketSerializeParse);

void BM_TunnelEncapsulate(benchmark::State& state) {
  // One tunnel hop's packet work: move the box in, size the tunnel
  // packet, take the same box back out.  No allocation per iteration.
  auto inner = std::make_unique<Packet>(
      Packet::udp(IpAddress(10, 1, 0, 2), IpAddress(10, 1, 1, 2), 1, 2, 1430));
  for (auto _ : state) {
    Packet outer = Packet::encapsulateUdp(
        IpAddress(198, 32, 154, 10), IpAddress(198, 32, 154, 11), 33001, 33001,
        std::move(inner));
    benchmark::DoNotOptimize(outer.wireBytes());
    inner = outer.inner.take();
  }
}
BENCHMARK(BM_TunnelEncapsulate);

void BM_PacketBoxChurn(benchmark::State& state) {
  // A burst of packet boxes allocated, then freed: a burst up to the
  // per-thread cache's capacity recycles its blocks without touching
  // the global heap.
  const auto burst = static_cast<std::size_t>(state.range(0));
  std::vector<vini::packet::PacketBox> boxes;
  boxes.reserve(burst);
  for (auto _ : state) {
    for (std::size_t i = 0; i < burst; ++i) {
      boxes.push_back(std::make_unique<Packet>(Packet::udp(
          IpAddress(10, 1, 0, 2), IpAddress(10, 1, 1, 2), 1, 2, 1430)));
    }
    benchmark::DoNotOptimize(boxes.back().get());
    boxes.clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_PacketBoxChurn)->Arg(8)->Arg(64)->Arg(512);

void BM_RibChurn(benchmark::State& state) {
  using vini::xorp::Rib;
  using vini::xorp::RibRoute;
  using vini::xorp::RouteOrigin;
  std::mt19937 rng(3);
  std::vector<RibRoute> routes;
  for (int i = 0; i < 256; ++i) {
    RibRoute r;
    r.prefix = Prefix(IpAddress(static_cast<std::uint32_t>(rng())), 24);
    r.origin = RouteOrigin::kOspf;
    r.protocol = "ospf";
    r.metric = rng() % 1000;
    routes.push_back(r);
  }
  for (auto _ : state) {
    Rib rib;
    for (const auto& r : routes) rib.addRoute(r);
    for (const auto& r : routes) rib.removeRoute("ospf", r.prefix);
    benchmark::DoNotOptimize(rib.candidateCount());
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_RibChurn);

// -- Random streams -----------------------------------------------------------
// One draw per iteration from sim::Random: NIC jitter draws a normal per
// packet and traffic and fault generators draw exponentials, so these
// price the distributions that random.h writes out.

void BM_RandomUniform01(benchmark::State& state) {
  vini::sim::Random r(4711);
  for (auto _ : state) benchmark::DoNotOptimize(r.uniform01());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomUniform01);

void BM_RandomNormal(benchmark::State& state) {
  vini::sim::Random r(4711);
  for (auto _ : state) benchmark::DoNotOptimize(r.normal(10.0, 0.2));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomNormal);

void BM_RandomExponential(benchmark::State& state) {
  vini::sim::Random r(4711);
  for (auto _ : state) benchmark::DoNotOptimize(r.exponential(4.0));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomExponential);

// -- Observability overhead ---------------------------------------------------
// These quantify the cost the instrumentation adds to hot paths, so a
// regression in the "zero-cost when disabled, one branch when enabled"
// promise shows up as a bench delta.

void BM_ObsCounterInc(benchmark::State& state) {
  vini::obs::Obs obs;
  vini::obs::Counter* c =
      &obs.metrics.counter("bench", "node", "hot_counter");
  for (auto _ : state) {
    VINI_OBS_INC(c);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  vini::obs::Obs obs;
  vini::obs::Histogram* h = &obs.metrics.histogram(
      "bench", "node", "rtt_ms", {1.0, 5.0, 10.0, 50.0, 100.0});
  double x = 0.0;
  for (auto _ : state) {
    VINI_OBS_OBSERVE(h, x);
    x += 0.37;
    if (x > 120.0) x = 0.0;
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsTracerRecord(benchmark::State& state) {
  vini::obs::PacketTracer tracer;
  vini::obs::TraceRecord rec;
  rec.event = vini::obs::TraceEvent::kEnqueue;
  rec.bytes = 1538;
  for (auto _ : state) {
    rec.t += 100;
    tracer.record(rec);
  }
  benchmark::DoNotOptimize(tracer.totalRecorded());
}
BENCHMARK(BM_ObsTracerRecord);

void BM_EventQueueProfiled(benchmark::State& state) {
  // Same workload as BM_EventQueueScheduleRun, with the wall-clock
  // profiler attached — the delta is the profiling tax per event.
  for (auto _ : state) {
    vini::sim::EventQueue q;
    vini::obs::EventLoopProfiler profiler;
    profiler.attach(q);
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      q.schedule(i * 100, "bench", [&sink] { ++sink; });
    }
    q.run();
    benchmark::DoNotOptimize(sink);
    benchmark::DoNotOptimize(profiler.totalEvents());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueProfiled);

}  // namespace

BENCHMARK_MAIN();
