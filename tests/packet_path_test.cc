// Packet-path ownership and allocation tests.
//
// A packet is boxed once by the sending stack and the same box rides the
// NIC ring, the channel queue and the channel's delivery event into the
// receiving kernel (DESIGN.md §13).  This binary replaces the global operator new
// with a counting one, so it can pin how many heap allocations a wire
// packet costs on the Table 2 IIAS path, and check that every channel
// drop site frees the box it was handed.  Freed boxes wait in the
// thread's packet cache, where they still count as live heap blocks, so
// every live-allocation snapshot trims the cache first.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "app/iperf.h"
#include "cpu/scheduler.h"
#include "packet/packet.h"
#include "phys/network.h"
#include "topo/worlds.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// GCC flags the free() below as mismatched with operator new; here it is
// the matching release of the malloc() above.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace vini {
namespace {

using packet::IpAddress;
using packet::Packet;
using sim::kMicrosecond;
using sim::kMillisecond;
using sim::kSecond;

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
/// Live heap blocks, with the calling thread's packet cache emptied
/// first so that a leaked box cannot hide behind a cached one.
std::int64_t liveAllocations() {
  packet::trimPacketCache();
  return g_live.load(std::memory_order_relaxed);
}

std::uint64_t wirePackets(topo::World& world) {
  std::uint64_t n = 0;
  for (const auto& link : world.net.links()) {
    for (const phys::NodeId end : {link->nodeA(), link->nodeB()}) {
      n += link->channelFrom(end).stats().tx_packets;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Allocation budget of the IIAS forwarding path

TEST(AllocationBudget, DeterTcpWindowAllocationsPerWirePacket) {
  // The Table 2 IIAS row: 20 TCP streams Src -> Fwdr -> Sink through
  // user-space Click.  A data segment and its ACK each cross two wires.
  // Every packet box the path needs (the sending stack's outer box, the
  // owned inner box ToSocket moves the forwarded packet into, the TCP
  // endpoints' boxes) reuses a block the same thread freed a moment
  // earlier, from its packet cache, so boxes cost no heap allocation.
  // What is left is std::deque chunk churn: the UDP socket buffer's
  // (about 0.33 per wire packet, three packets to a chunk), the Click
  // job queues' (about 0.30) and the NIC and channel queues' (about
  // 0.06; a frame that finds its wire idle skips the channel queue).
  // Wire events, ring entries, Click jobs and TCP demux allocate
  // nothing per packet.
  topo::WorldOptions options;
  options.seed = 1000;
  auto world = topo::makeDeterWorld(options);
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  app::IperfTcpServer server(world->stack("Sink"), 5001);
  app::IperfTcpClient client(world->stack("Src"), world->tapOf("Sink"), 5001,
                             20, {}, world->tapOf("Src"));
  const sim::Time t0 = world->queue.now();
  client.start(3 * kSecond);
  // Warm-up: connection set-up, slow start, and the one-time growth of
  // the event slab, the rings and the socket buffers.
  world->queue.runUntil(t0 + kSecond);

  const std::uint64_t allocs_before = allocations();
  const std::uint64_t wire_before = wirePackets(*world);
  world->queue.runUntil(t0 + 2 * kSecond);
  const std::uint64_t allocs = allocations() - allocs_before;
  const std::uint64_t wire = wirePackets(*world) - wire_before;

  ASSERT_GT(wire, 10000u);  // the window saturates the chain
  const double per_packet =
      static_cast<double>(allocs) / static_cast<double>(wire);
  RecordProperty("allocations", std::to_string(allocs));
  RecordProperty("wire_packets", std::to_string(wire));
  RecordProperty("allocations_per_wire_packet", std::to_string(per_packet));
  // Measured 0.70 (37,014 allocations for 53,026 wire packets, GCC 12).
  EXPECT_LT(per_packet, 0.77) << allocs << " allocations for " << wire
                             << " wire packets";
}

TEST(AllocationBudget, FloodShardedWindowAllocationsPerWirePacket) {
  // The sharded engine's hot path: the Abilene UDP flood (eight
  // 120 Mb/s pairs of 1430-byte datagrams) on the sharded engine at one
  // thread.  Lanes hold their events in their own slabs and hand
  // cross-lane events over at the barrier by slot, so the engine adds
  // no allocation per event.  Every allocation left is the packet
  // path's.  A box freed in the window comes back from the packet
  // cache, but the window falls while the flood's queues are still
  // filling: live heap blocks grow by about 17k over it (and fall once
  // the senders stop), however large the cache, so about 0.83 boxes per
  // wire packet (the sending stack's box at a ToSocket hop and the inner
  // box ToSocket moves the forwarded packet into) are new heap blocks.  The std::deque chunks
  // of UDP delivery, the Click job queues and the NIC and channel
  // queues add about 0.60.
  topo::WorldOptions options;
  options.seed = 4711;
  options.contention = 0.0;
  options.threads = 1;
  auto world = topo::makeAbileneWorld(options);
  ASSERT_TRUE(world->runUntilConverged(180 * kSecond));
  static const char* kPairs[][2] = {
      {"Washington", "Seattle"},   {"Seattle", "Atlanta"},
      {"Sunnyvale", "NewYork"},    {"LosAngeles", "Chicago"},
      {"Houston", "Indianapolis"}, {"Denver", "Atlanta"},
      {"NewYork", "Sunnyvale"},    {"Atlanta", "KansasCity"},
  };
  std::vector<std::unique_ptr<app::IperfUdpServer>> servers;
  std::vector<std::unique_ptr<app::IperfUdpClient>> clients;
  std::uint16_t port = 5001;
  for (const auto& pair : kPairs) {
    servers.push_back(
        std::make_unique<app::IperfUdpServer>(world->stack(pair[1]), port));
    clients.push_back(std::make_unique<app::IperfUdpClient>(
        world->stack(pair[0]), world->tapOf(pair[1]), port, 120e6, 1430,
        world->tapOf(pair[0])));
    clients.back()->start(kSecond);
    ++port;
  }
  const sim::Time t0 = world->queue.now();
  // Warm-up: queues fill and the slabs, rings and mailboxes reach their
  // working size.
  world->queue.runUntil(t0 + 200 * kMillisecond);

  const std::uint64_t allocs_before = allocations();
  const std::uint64_t wire_before = wirePackets(*world);
  world->queue.runUntil(t0 + 400 * kMillisecond);
  const std::uint64_t allocs = allocations() - allocs_before;
  const std::uint64_t wire = wirePackets(*world) - wire_before;

  ASSERT_GT(wire, 10000u);
  const double per_packet =
      static_cast<double>(allocs) / static_cast<double>(wire);
  RecordProperty("allocations", std::to_string(allocs));
  RecordProperty("wire_packets", std::to_string(wire));
  RecordProperty("allocations_per_wire_packet", std::to_string(per_packet));
  // Measured 1.43 (27,804 allocations for 19,398 wire packets, GCC 12).
  EXPECT_LT(per_packet, 1.56) << allocs << " allocations for " << wire
                              << " wire packets";
}

// ---------------------------------------------------------------------------
// The packet cache hands its blocks back to the heap

TEST(PacketBoxCache, ThreadExitReturnsItsBlocksToTheHeap) {
  const std::int64_t live_before = liveAllocations();
  std::vector<packet::PacketBox> boxes;
  for (int i = 0; i < 8; ++i) {
    boxes.push_back(std::make_unique<Packet>(
        Packet::udp(IpAddress(1, 0, 0, 1), IpAddress(1, 0, 0, 2), 1, 2, 100)));
  }
  std::thread([&] {
    boxes.clear();  // cached by this thread
    EXPECT_EQ(packet::packetCacheSize(), 8u);
  }).join();
  EXPECT_EQ(packet::packetCacheSize(), 0u);
  boxes.shrink_to_fit();
  EXPECT_EQ(liveAllocations(), live_before);
}

// ---------------------------------------------------------------------------
// Process jobs under the small-buffer callback

struct ProcessFixture {
  sim::EventQueue queue;
  std::unique_ptr<cpu::Scheduler> scheduler =
      std::make_unique<cpu::Scheduler>(queue, cpu::SchedulerConfig{});
  cpu::Process& process = scheduler->createProcess(cpu::ProcessConfig{});
};

TEST(ProcessJobs, RunFifoAndDoneMaySubmitAnotherJob) {
  ProcessFixture f;
  std::vector<int> order;
  f.process.execute(10 * kMicrosecond, [&] {
    order.push_back(1);
    // Re-entrant submission from inside a completion: queued behind the
    // jobs already waiting.
    f.process.execute(10 * kMicrosecond, [&] { order.push_back(4); });
  });
  f.process.execute(10 * kMicrosecond, [&] { order.push_back(2); });
  f.process.execute(0, [&] { order.push_back(3); });
  f.queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(f.process.idle());
}

/// A job capture too large for the callback's 64 inline bytes: it takes
/// the heap fallback.
struct BigJob {
  std::shared_ptr<int> token;
  int* runs = nullptr;
  char pad[64] = {};
  void operator()() const { ++*runs; }
};
static_assert(sizeof(BigJob) > 64);

TEST(ProcessJobs, OversizedCaptureRunsAndIsReleased) {
  ProcessFixture f;
  auto token = std::make_shared<int>(0);
  int runs = 0;
  f.process.execute(kMillisecond, BigJob{token, &runs});
  EXPECT_EQ(token.use_count(), 2);
  f.queue.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(ProcessJobs, PendingCapturesAreDestroyedAtTeardown) {
  ProcessFixture f;
  auto token = std::make_shared<int>(0);
  int runs = 0;
  const std::int64_t live_before = liveAllocations();
  for (int i = 0; i < 3; ++i) {
    f.process.execute(kSecond, BigJob{token, &runs});       // heap fallback
    f.process.execute(kSecond, [token, &runs] { ++runs; });  // inline
  }
  EXPECT_EQ(token.use_count(), 7);
  f.queue.runUntil(kMillisecond);  // the first job is still running
  f.scheduler.reset();
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(token.use_count(), 1);
  // The wakeup event left in the queue captures only the process pointer.
  EXPECT_LE(liveAllocations(), live_before);
}

// ---------------------------------------------------------------------------
// Channel drop paths release the box

struct Link {
  sim::EventQueue queue;
  phys::PhysNetwork net{queue};
  phys::PhysNode* a = nullptr;
  phys::PhysNode* b = nullptr;
  phys::PhysLink* link = nullptr;
  int delivered = 0;

  explicit Link(phys::LinkConfig config) {
    a = &net.addNode("a", IpAddress(1, 0, 0, 1));
    b = &net.addNode("b", IpAddress(1, 0, 0, 2));
    link = &net.addLink(*a, *b, config);
    b->setPacketHandler([this](packet::PacketBox, phys::PhysLink&, sim::Time) {
      ++delivered;
    });
  }

  phys::Channel& channel() { return link->channelFrom(a->id()); }

  void send(int count) {
    for (int i = 0; i < count; ++i) {
      channel().transmit(std::make_unique<Packet>(
          Packet::udp(a->address(), b->address(), 1, 2, 1000)));
    }
  }
};

/// Runs `scenario` twice and checks that the second run leaves exactly as
/// many live allocations as it found: the first run grows the event
/// slab and the channel queue to their working size, so any difference
/// after the second is a leaked packet box.
template <typename Scenario>
void expectNoLeak(Link& l, Scenario&& scenario) {
  scenario();
  l.queue.run();
  const std::int64_t live = liveAllocations();
  scenario();
  l.queue.run();
  EXPECT_EQ(liveAllocations(), live);
}

TEST(ChannelDrops, QueueFullFreesTheBox) {
  phys::LinkConfig config;
  config.bandwidth_bps = 1e6;
  config.queue_bytes = 3000;
  Link l(config);
  expectNoLeak(l, [&] { l.send(20); });
  EXPECT_GT(l.channel().stats().queue_drops, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(l.delivered),
            l.channel().stats().tx_packets);
}

TEST(ChannelDrops, WireLossFreesTheBox) {
  phys::LinkConfig config;
  config.loss_rate = 0.5;
  Link l(config);
  expectNoLeak(l, [&] { l.send(50); });
  EXPECT_GT(l.channel().stats().loss_drops, 0u);
  EXPECT_GT(l.delivered, 0);
}

TEST(ChannelDrops, LinkDownBeforeTransmitFreesTheBox) {
  Link l(phys::LinkConfig{});
  l.link->setUp(false);
  expectNoLeak(l, [&] { l.send(5); });
  EXPECT_EQ(l.channel().stats().down_drops, 10u);
  EXPECT_EQ(l.delivered, 0);
}

TEST(ChannelDrops, LinkDownWhileSerializingFreesTheBox) {
  phys::LinkConfig config;
  config.bandwidth_bps = 1e6;  // ~8 ms per 1000-byte frame
  Link l(config);
  expectNoLeak(l, [&] {
    l.link->setUp(true);
    l.send(3);
    l.queue.scheduleAfter(kMillisecond, [&] { l.link->setUp(false); });
  });
  EXPECT_EQ(l.channel().stats().down_drops, 6u);
  EXPECT_EQ(l.delivered, 0);
}

TEST(ChannelDrops, LinkDownMidFlightFreesTheBox) {
  phys::LinkConfig config;
  config.propagation = 10 * kMillisecond;
  Link l(config);
  expectNoLeak(l, [&] {
    l.link->setUp(true);
    l.send(3);
    l.queue.scheduleAfter(5 * kMillisecond, [&] { l.link->setUp(false); });
  });
  EXPECT_EQ(l.channel().stats().down_drops, 6u);
  EXPECT_EQ(l.delivered, 0);
}

TEST(ChannelDrops, DownUpBlipWhileSerializingDelivers) {
  phys::LinkConfig config;
  config.bandwidth_bps = 1e6;  // ~8 ms per 1000-byte frame
  Link l(config);
  expectNoLeak(l, [&] {
    l.send(1);
    l.queue.scheduleAfter(kMillisecond, [&] { l.link->setUp(false); });
    l.queue.scheduleAfter(2 * kMillisecond, [&] { l.link->setUp(true); });
  });
  EXPECT_EQ(l.channel().stats().down_drops, 0u);
  EXPECT_EQ(l.delivered, 2);
}

TEST(ChannelDrops, DownUpBlipInFlightDelivers) {
  phys::LinkConfig config;
  config.propagation = 10 * kMillisecond;
  Link l(config);
  expectNoLeak(l, [&] {
    l.send(3);
    l.queue.scheduleAfter(3 * kMillisecond, [&] { l.link->setUp(false); });
    l.queue.scheduleAfter(6 * kMillisecond, [&] { l.link->setUp(true); });
  });
  EXPECT_EQ(l.channel().stats().down_drops, 0u);
  EXPECT_EQ(l.delivered, 6);
}

}  // namespace
}  // namespace vini
