// Engine-level tests for the sharded EventQueue (sim/shard.h): the
// per-node execution sequence of a workload must be a pure function of
// the event stream — identical across worker-thread counts, and (for
// workloads with no barrier-staged timestamp collisions) identical to
// the classic single-threaded engine.  The runtime's round tally
// (EventQueue::shardTally()) is held to the same standard.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "app/iperf.h"
#include "check/audit.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "topo/worlds.h"

namespace vini::sim {
namespace {

// One executed step, recorded from inside a handler.  Handlers only
// append to their own node's log, so recording is race-free under any
// thread count.
struct Step {
  Time when = 0;
  std::uint64_t marker = 0;

  bool operator==(const Step& other) const {
    return when == other.when && marker == other.marker;
  }
};

/// A deterministic workload over `nodes` lanes: every handler advances
/// a per-node mixing state, reschedules onto its own node (sometimes
/// inside the lookahead window, sometimes beyond), and periodically
/// hands off to the next node with a delay of at least the lookahead —
/// the cross-lane pattern link propagation produces.
struct Workload {
  static constexpr Duration kLookahead = 10 * kMicrosecond;

  explicit Workload(EventQueue& q, std::size_t nodes, std::uint64_t seed,
                    bool cross = true)
      : queue(q), cross_traffic(cross), logs(nodes), state(nodes, seed) {
    tags.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      tags.push_back(q.internNodeTag("node" + std::to_string(i)));
    }
  }

  void seedEvents(std::size_t per_node) {
    for (std::size_t n = 0; n < tags.size(); ++n) {
      for (std::size_t i = 0; i < per_node; ++i) {
        const Time at = static_cast<Time>((i + 1)) * 3 * kMicrosecond;
        queue.schedule(at, "test.load", tags[n],
                       [this, n, depth = 12] { step(n, depth); });
      }
    }
  }

  void step(std::size_t n, int depth) {
    // splitmix64: deterministic per-node mixing, independent of thread
    // interleaving because each node's handlers execute in order.
    std::uint64_t& s = state[n];
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    logs[n].push_back(Step{queue.now(), z});
    if (depth <= 0) return;
    // Same-node follow-ups: one inside the window, one beyond it.
    queue.scheduleAfter(static_cast<Duration>(z % 9), "test.local", tags[n],
                        [this, n, d = depth - 1] { step(n, d); });
    const EventId far = queue.scheduleAfter(
        kLookahead + static_cast<Duration>(z % 50), "test.far", tags[n],
        [this, n, d = depth - 1] { step(n, d); });
    if (z % 3 == 0) {
      queue.cancel(far);  // exercises the staged-id cancel path
    }
    if (cross_traffic && z % 4 == 0) {
      const std::size_t peer = (n + 1) % tags.size();
      queue.scheduleAfter(kLookahead + static_cast<Duration>(z % 17),
                          "test.cross", tags[peer],
                          [this, peer, d = depth - 1] { step(peer, d); });
    }
  }

  EventQueue& queue;
  bool cross_traffic = true;
  std::vector<NodeTag> tags;
  std::vector<std::vector<Step>> logs;
  std::vector<std::uint64_t> state;
};

std::vector<std::vector<Step>> runWorkload(int threads, std::uint64_t seed,
                                           std::uint64_t* executed = nullptr) {
  EventQueue q(threads);
  Workload w(q, 5, seed);
  if (threads > 0) q.finalizeSharding(Workload::kLookahead);
  w.seedEvents(4);
  q.run();
  if (executed != nullptr) *executed = q.executedCount();
  return w.logs;
}

TEST(ShardEngine, ClassicConstructionUnchanged) {
  EventQueue q(0);
  EXPECT_FALSE(q.sharded());
  q.finalizeSharding(kMicrosecond);  // no-op at threads == 0
  EXPECT_FALSE(q.sharded());
}

TEST(ShardEngine, ShardedSerialMatchesClassic) {
  // threads == 1 runs the sharded schedule (windows, mailboxes,
  // barriers) with no worker pool: the reference for the sharded
  // engine's canonical order.  Without cross-node traffic that order
  // is identical to the classic engine's — each node's events keep
  // their FIFO issue order through the barrier.  (With cross-node
  // timestamp collisions the sharded engine's lane-major barrier merge
  // may break classic's global FIFO ties; sharded mode defines its own
  // canonical order there, stable across thread counts — the
  // ThreadCountInvariant test — rather than classic's.)
  std::vector<std::vector<Step>> classic;
  for (const int threads : {0, 1, 4}) {
    EventQueue q(threads);
    Workload w(q, 5, 41, /*cross=*/false);
    if (threads > 0) q.finalizeSharding(Workload::kLookahead);
    w.seedEvents(4);
    q.run();
    if (threads == 0) {
      classic = w.logs;
      continue;
    }
    ASSERT_EQ(classic.size(), w.logs.size());
    for (std::size_t n = 0; n < classic.size(); ++n) {
      EXPECT_EQ(classic[n], w.logs[n])
          << "threads=" << threads << " node " << n;
    }
  }
}

TEST(ShardEngine, ThreadCountInvariant) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<int> counts = {1, 2, 8, hw > 0 ? static_cast<int>(hw) : 4};
  for (const std::uint64_t seed : {7ull, 1234ull, 999983ull}) {
    std::uint64_t ref_executed = 0;
    const auto ref = runWorkload(1, seed, &ref_executed);
    for (const int threads : counts) {
      std::uint64_t executed = 0;
      const auto got = runWorkload(threads, seed, &executed);
      EXPECT_EQ(ref_executed, executed) << "threads=" << threads;
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t n = 0; n < ref.size(); ++n) {
        EXPECT_EQ(ref[n], got[n]) << "threads=" << threads << " node " << n;
      }
    }
  }
}

TEST(ShardEngine, WorkersCappedAtLaneCount) {
  // N contexts on L lanes spawn min(N, L) - 1 workers: a 2-lane queue
  // asked for 16 threads spawns at most one, and runs the same per-node
  // order as the serial reference.
  namespace fs = std::filesystem;
  const fs::path tasks = "/proc/self/task";
  if (!fs::is_directory(tasks)) GTEST_SKIP() << "no " << tasks;
  auto threadCount = [&tasks] {
    return std::distance(fs::directory_iterator(tasks),
                         fs::directory_iterator{});
  };
  auto run = [&threadCount](int threads, std::ptrdiff_t* spawned) {
    EventQueue q(threads);
    Workload w(q, 2, 77);
    const std::ptrdiff_t before = threadCount();
    q.finalizeSharding(Workload::kLookahead);
    *spawned = threadCount() - before;
    w.seedEvents(4);
    q.run();
    return w.logs;
  };
  std::ptrdiff_t spawned = 0;
  const auto ref = run(1, &spawned);
  EXPECT_EQ(spawned, 0);
  const auto got = run(16, &spawned);
  EXPECT_LE(spawned, 1);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t n = 0; n < ref.size(); ++n) {
    EXPECT_EQ(ref[n], got[n]) << "node " << n;
  }
}

TEST(ShardEngine, WorkerTimersAndCancellation) {
  // Timers armed from inside lanes (sharded ids) must stay cancellable
  // from later rounds and from the main thread.
  EventQueue q(4);
  const NodeTag a = q.internNodeTag("a");
  const NodeTag b = q.internNodeTag("b");
  q.finalizeSharding(10 * kMicrosecond);

  int fired = 0;
  int cancelled_fired = 0;
  EventId victim = 0;
  q.schedule(kMicrosecond, "test", a, [&] {
    // Far-future event on the other node, cancelled two windows later.
    victim = q.scheduleAfter(kMillisecond, "test", b,
                             [&] { ++cancelled_fired; });
    q.scheduleAfter(50 * kMicrosecond, "test", a, [&] {
      ++fired;
      EXPECT_TRUE(q.cancel(victim));
    });
  });
  q.run();
  EXPECT_EQ(1, fired);
  EXPECT_EQ(0, cancelled_fired);
  EXPECT_EQ(0u, q.pendingCount());
}

TEST(ShardEngine, WideLaneBandKeepsOrderAcrossThreadCounts) {
  // 300 lanes: past the 254 an 8-bit lane band in the handle allowed.
  std::vector<std::vector<Step>> ref;
  for (const int threads : {1, 2}) {
    EventQueue q(threads);
    Workload w(q, 300, 4242);
    q.finalizeSharding(Workload::kLookahead);
    ASSERT_EQ(300u, q.shardLaneCount());
    w.seedEvents(1);
    q.run();
    EXPECT_EQ(0u, q.pendingCount());
    if (threads == 1) {
      ref = w.logs;
      EXPECT_FALSE(ref.back().empty());
      continue;
    }
    ASSERT_EQ(ref.size(), w.logs.size());
    for (std::size_t n = 0; n < ref.size(); ++n) {
      EXPECT_EQ(ref[n], w.logs[n]) << "node " << n;
    }
  }
}

TEST(ShardEngine, OccupancyCountsCoverEveryLane) {
  // The same node-attributed schedule, fed to a classic and a sharded
  // queue: the sharded counts sum the global Store and every lane's,
  // so they agree with the classic queue at every runUntil boundary.
  EventQueue classic(0);
  EventQueue sharded(1);
  Workload wc(classic, 5, 41, /*cross=*/false);
  Workload ws(sharded, 5, 41, /*cross=*/false);
  sharded.finalizeSharding(Workload::kLookahead);
  wc.seedEvents(4);
  ws.seedEvents(4);
  EXPECT_EQ(classic.pendingCount(), sharded.pendingCount());
  std::size_t peak = 0;
  for (Time t = 5 * kMicrosecond; classic.pendingCount() > 0;
       t += 37 * kMicrosecond) {
    classic.runUntil(t);
    sharded.runUntil(t);
    ASSERT_EQ(classic.pendingCount(), sharded.pendingCount()) << "at " << t;
    peak = std::max(peak, sharded.pendingCount());
    EXPECT_GE(sharded.storageCount(), sharded.pendingCount());
    EXPECT_GE(sharded.slabSlotCount() - sharded.slabFreeCount(),
              sharded.pendingCount());
  }
  EXPECT_EQ(0u, sharded.pendingCount());
  EXPECT_GE(sharded.peakPendingCount(), peak);
  EXPECT_GE(sharded.peakStorageCount(), sharded.peakPendingCount());
}

TEST(ShardEngine, PeakCountsDoNotDependOnThreadCount) {
  // The sharded peaks sample the summed counts at main-thread schedules
  // and barriers, never mid-window, so serial and parallel rounds agree.
  std::uint64_t ref_pending = 0;
  std::uint64_t ref_storage = 0;
  for (const int threads : {1, 2, 8}) {
    EventQueue q(threads);
    Workload w(q, 5, 7);
    q.finalizeSharding(Workload::kLookahead);
    w.seedEvents(4);
    q.run();
    if (threads == 1) {
      ref_pending = q.peakPendingCount();
      ref_storage = q.peakStorageCount();
      EXPECT_GE(ref_pending, 20u);  // every seeded event was pending at once
      continue;
    }
    EXPECT_EQ(ref_pending, q.peakPendingCount()) << "threads=" << threads;
    EXPECT_EQ(ref_storage, q.peakStorageCount()) << "threads=" << threads;
  }
}

TEST(ShardEngineDeathTest, StoreSlotCapFailsFastInEveryBuild) {
  // A sharded handle's slot field is 17 bits: a Store hands out slots
  // 0 .. 2^17 - 1 and aborts on the next one instead of letting its
  // index spill into the generation bits.
  constexpr std::size_t kCap = std::size_t{1} << 17;
  EventQueue q(1);
  std::vector<EventId> ids;
  ids.reserve(kCap);
  for (std::size_t i = 0; i < kCap; ++i) {
    ids.push_back(q.schedule(kMicrosecond, [] {}));
  }
  EXPECT_EQ(kCap, q.slabSlotCount());
  EXPECT_TRUE(q.cancel(ids.back()));  // the top slot's handle resolves
  EXPECT_TRUE(q.cancel(ids.front()));
  // Both freed slots are reused before the slab grows.
  q.schedule(kMicrosecond, [] {});
  q.schedule(kMicrosecond, [] {});
  EXPECT_EQ(kCap, q.slabSlotCount());
  EXPECT_DEATH(q.schedule(kMicrosecond, [] {}), "V104");
}

TEST(ShardEngine, MainThreadCancelsLaneResidentEvents) {
  for (const int threads : {1, 4}) {
    EventQueue q(threads);
    const NodeTag a = q.internNodeTag("a");
    q.internNodeTag("b");
    q.finalizeSharding(10 * kMicrosecond);
    int fired = 0;
    // Issued by the main thread: the record lives in a's Store.
    const EventId main_issued =
        q.schedule(kMillisecond, "test", a, [&] { ++fired; });
    // Issued by a's lane, past its window.
    EventId lane_issued = 0;
    q.schedule(kMicrosecond, "test", a, [&] {
      lane_issued =
          q.scheduleAfter(500 * kMicrosecond, "test", a, [&] { ++fired; });
    });
    q.runUntil(100 * kMicrosecond);  // between rounds
    ASSERT_NE(0u, lane_issued);
    ASSERT_EQ(2u, q.pendingCount());
    EXPECT_TRUE(q.cancel(lane_issued)) << "threads=" << threads;
    EXPECT_TRUE(q.cancel(main_issued)) << "threads=" << threads;
    EXPECT_EQ(0u, q.pendingCount());
    {
      check::ScopedAuditCollector collector;  // V101: stale handles
      EXPECT_FALSE(q.cancel(lane_issued));
      EXPECT_FALSE(q.cancel(main_issued));
    }
    q.run();
    EXPECT_EQ(0, fired) << "threads=" << threads;
  }
}

TEST(ShardEngine, LaneCancelsItsOwnEventFromAnEarlierWindow) {
  for (const int threads : {1, 4}) {
    EventQueue q(threads);
    const NodeTag a = q.internNodeTag("a");
    const NodeTag b = q.internNodeTag("b");
    q.finalizeSharding(10 * kMicrosecond);
    int fired = 0;
    int rounds_apart = 0;
    EventId far = 0;
    bool cancelled = false;
    q.schedule(kMicrosecond, "test", a, [&] {
      far = q.scheduleAfter(kMillisecond, "test", a, [&] { ++fired; });
    });
    // Unrelated traffic on b keeps windows turning over in between.
    for (int i = 1; i <= 19; ++i) {
      q.schedule(static_cast<Time>(i) * 10 * kMicrosecond, "test", b,
                 [&] { ++rounds_apart; });
    }
    q.schedule(200 * kMicrosecond, "test", a,
               [&] { cancelled = q.cancel(far); });
    q.run();
    EXPECT_EQ(19, rounds_apart);
    EXPECT_TRUE(cancelled) << "threads=" << threads;
    EXPECT_EQ(0, fired) << "threads=" << threads;
    EXPECT_EQ(0u, q.pendingCount());
  }
}

TEST(ShardEngine, CrossLaneCancelsDeferToTheBarrier) {
  // Each answer is the one the engine gave when every node event sat in
  // one global heap: another lane's own handle is "not cancelled" (the
  // cancel still lands at the barrier); a main-thread handle to an
  // event past the window, or an unattributed event, is "cancelled";
  // a handle whose event already fired is stale, counted under V109.
  for (const int threads : {1, 4}) {
    check::ScopedAuditCollector collector;
    EventQueue q(threads);
    const NodeTag a = q.internNodeTag("a");
    const NodeTag b = q.internNodeTag("b");
    q.finalizeSharding(10 * kMicrosecond);
    int fired = 0;
    EventId b_own = 0;
    q.schedule(kMicrosecond, "test", b, [&] {
      b_own = q.scheduleAfter(kMillisecond, "test", b, [&] { ++fired; });
    });
    const EventId main_to_b =
        q.schedule(kMillisecond, "test", b, [&] { ++fired; });
    const EventId global = q.schedule(kMillisecond, "test", [&] { ++fired; });
    const EventId b_done = q.schedule(5 * kMicrosecond, "test", b, [] {});
    std::vector<bool> answers;
    q.schedule(50 * kMicrosecond, "test", a, [&] {
      answers.push_back(q.cancel(b_own));
      answers.push_back(q.cancel(main_to_b));
      answers.push_back(q.cancel(global));
      answers.push_back(q.cancel(b_done));
    });
    q.run();
    EXPECT_EQ((std::vector<bool>{false, true, true, false}), answers)
        << "threads=" << threads;
    EXPECT_EQ(0, fired) << "threads=" << threads;
    EXPECT_EQ(0u, q.pendingCount());
#if VINI_AUDIT_ENABLED
    EXPECT_TRUE(collector.report().hasCode("V109"))
        << collector.report().format();
#endif
  }
}

TEST(ShardEngine, UnattributedEventsRunSerially) {
  // kNoNode events interleave with sharded windows and observe global
  // time; their presence must not break lane execution.
  std::vector<std::vector<Step>> ref;
  for (const int threads : {1, 2, 8}) {
    EventQueue q(threads);
    Workload w(q, 3, 77);
    q.finalizeSharding(Workload::kLookahead);
    int global_ticks = 0;
    for (int i = 0; i < 20; ++i) {
      q.schedule(static_cast<Time>(i + 1) * 7 * kMicrosecond, "test.global",
                 [&] { ++global_ticks; });
    }
    w.seedEvents(3);
    q.run();
    EXPECT_EQ(20, global_ticks) << "threads=" << threads;
    if (threads == 1) {
      ref = w.logs;
    } else {
      for (std::size_t n = 0; n < ref.size(); ++n) {
        EXPECT_EQ(ref[n], w.logs[n]) << "threads=" << threads << " node " << n;
      }
    }
  }
}

TEST(ShardEngine, RunUntilHonorsDeadlineAndAdvance) {
  for (const int threads : {1, 4}) {
    EventQueue q(threads);
    const NodeTag a = q.internNodeTag("a");
    q.finalizeSharding(5 * kMicrosecond);
    int fired = 0;
    q.schedule(kMicrosecond, "t", a, [&] { ++fired; });
    q.schedule(kMillisecond, "t", a, [&] { ++fired; });
    Time last_to = 0;
    q.setAdvanceObserver([&](Time from, Time to) {
      EXPECT_LT(from, to);
      last_to = to;
    });
    q.runUntil(10 * kMicrosecond);
    EXPECT_EQ(1, fired);
    EXPECT_EQ(10 * kMicrosecond, q.now());
    EXPECT_EQ(10 * kMicrosecond, last_to);
    q.setAdvanceObserver(nullptr);
    q.runUntil(2 * kMillisecond);
    EXPECT_EQ(2, fired);
  }
}

TEST(ShardEngine, TallyCriticalPathFollowsTheBusiestLane) {
  // Four windows, each with 9 events on a hot lane and 1 on a cold one:
  // the hot lane gates every round, so 2 contexts cut 40 events to a
  // 36-event critical path, and 1 context runs all 40 in sequence.
  // run() drains in full lookahead windows, one round per window.
  for (const int threads : {1, 2}) {
    EventQueue q(threads);
    const NodeTag hot = q.internNodeTag("hot");
    const NodeTag cold = q.internNodeTag("cold");
    q.finalizeSharding(kMillisecond);
    for (int w = 0; w < 4; ++w) {
      const Time t = w * kMillisecond + kMicrosecond;
      for (int i = 0; i < 9; ++i) q.schedule(t + i, "test", hot, [] {});
      q.schedule(t + 100, "test", cold, [] {});
    }
    q.run();
    EXPECT_EQ(q.now(), 3 * kMillisecond + kMicrosecond + 100)
        << "threads=" << threads;  // the last cold event
    const EventQueue::ShardTally tally = q.shardTally();
    EXPECT_EQ(tally.rounds, 4u) << "threads=" << threads;
    EXPECT_EQ(tally.events, 40u) << "threads=" << threads;
    EXPECT_EQ(tally.critical_path, threads == 1 ? 40u : 36u)
        << "threads=" << threads;
  }
}

TEST(ShardEngine, TallyOnAbileneFloodDoesNotDependOnThreadCount) {
  auto run = [](int threads) {
    topo::WorldOptions options;
    options.seed = 4711;
    options.threads = threads;
    options.contention = 0.0;
    auto world = topo::makeAbileneWorld(options);
    EXPECT_TRUE(world->runUntilConverged(180 * kSecond));
    const Time t0 = world->queue.now();
    app::IperfUdpServer server(world->stack("Seattle"), 5001);
    app::IperfUdpClient client(world->stack("Washington"),
                               world->tapOf("Seattle"), 5001, 120e6, 1430,
                               world->tapOf("Washington"));
    client.start(kSecond / 4);
    world->queue.runUntil(t0 + kSecond / 4);
    if (threads > 0) {
      // Every event of a sharded world runs through the shard runtime.
      EXPECT_EQ(world->queue.shardTally().events,
                world->queue.executedCount());
    }
    return world->queue.shardTally();
  };
  const EventQueue::ShardTally classic = run(0);
  EXPECT_EQ(classic.rounds, 0u);
  EXPECT_EQ(classic.events, 0u);
  EXPECT_EQ(classic.critical_path, 0u);

  const EventQueue::ShardTally one = run(1);
  EXPECT_GT(one.rounds, 0u);
  EXPECT_EQ(one.critical_path, one.events);
  for (const int threads : {2, 4}) {
    const EventQueue::ShardTally t = run(threads);
    EXPECT_EQ(t.rounds, one.rounds) << "threads=" << threads;
    EXPECT_EQ(t.events, one.events) << "threads=" << threads;
    EXPECT_LE(t.events / threads, t.critical_path) << "threads=" << threads;
    EXPECT_LE(t.critical_path, t.events) << "threads=" << threads;
    EXPECT_LT(t.critical_path, one.critical_path) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace vini::sim
