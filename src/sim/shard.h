// Parallel sharded execution for the EventQueue.
//
// The ShardRuntime shards a run across worker threads by physical node
// (one *lane* per interned NodeTag) with conservative lookahead
// windows, the architecture ROADMAP item 2 sketches.  Each lane owns an
// EventQueue::Store (slab + 4-ary heap) with every pending event of its
// node; the queue's global Store keeps only unattributed (kNoNode)
// events.
//
//   * A round anchors at T, the earliest key over the global top and
//     the lane tops.  An unattributed event there runs serially on the
//     main thread, where it may touch global state.
//   * Otherwise the window ends at the horizon key H = (T + W, 0), W the
//     minimum cross-node propagation delay
//     (PhysNetwork::minPropagation()), or at the global top's key if
//     that is earlier.  Lanes whose top key is below H run concurrently
//     on a worker pool (work-stealing over an atomic cursor; the main
//     thread participates), each popping its own Store while the top
//     stays below H.
//   * An event a lane schedules onto its own node inside the window
//     goes straight into its Store's small window heap.  Anything
//     else — own-node events at or past H, cross-lane events (which
//     lookahead puts at >= H), unattributed events — is *held* in the
//     lane's slab: its tie-break stamp is only known at the barrier,
//     which stamps held events lanes in active order, issue order
//     within a lane, and queues each in its target Store.
//
// Determinism: keys are (when, stamp), and the stamps are exactly the
// sequence numbers one global queue would assign — main-thread
// schedules in call order, held events in (active rank, issue) order,
// where the active rank orders lanes by their top key at round start
// (the order a global extraction would first reach them).  Events
// scheduled inside the window carry provisional stamps above every
// real one, in issue order, so timestamp ties keep the classic FIFO
// tie-break.  Nothing depends on thread count or OS scheduling: same
// seed, same bytes, any --threads value; scripts/check.sh stage 5h
// byte-diffs 1-, 2- and 8-thread exports to enforce it.
//
// Handles: a sharded EventId names (context, slot, generation).  An
// event issued into another context (main thread to a lane, a lane to
// another lane or to the global Store) leaves a stub in the issuer's
// slab that forwards to it, so the handle stays valid; the barrier
// frees the stub when the record retires.  A lane cancels its own
// events at once.  It answers a cancel through a stub, or of an event
// in the frozen global Store, from the key, and defers the mutation to
// the barrier; another lane's handle is deferred and reported as not
// cancelled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace vini::sim {

class ShardRuntime {
 public:
  ShardRuntime(EventQueue& queue, int threads);
  ~ShardRuntime();

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  /// Freeze the lane set (one lane per interned node tag), move every
  /// node event queued so far into its lane, fix the conservative
  /// lookahead window, and spawn the worker pool.  Must be called after
  /// every component interned its node tag and before the first
  /// sharded runUntil().
  void finalize(Duration lookahead);

  std::size_t laneCount() const { return lanes_.size(); }
  /// See EventQueue::shardTally().
  EventQueue::ShardTally tally() const { return tally_; }

 private:
  friend class EventQueue;
  using Key = EventQueue::Key;
  using Slot = EventQueue::Slot;
  using Store = EventQueue::Store;

  /// Provisional stamps (events scheduled inside a window) set the top
  /// stamp bit, so they order after every real stamp; real stamps are
  /// audited to stay below it (V107).
  static constexpr std::uint64_t kProvisional = 1ull << 39;
  static void auditStamp(std::uint64_t stamp);

  /// A lane-held event: its slot and the generation that drops it if
  /// the slot was cancelled (and perhaps reused) inside the window.
  struct Held {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  struct Lane {
    std::uint32_t index = 0;  ///< == the NodeTag this lane owns
    Store store;

    // Filled during the window, drained by the barrier in this order.
    /// Held events in issue order; the barrier stamps each base + index.
    std::vector<Held> held;
    std::vector<EventId> staged_cancels;
    /// Stubs in other Stores whose records this lane retired.
    std::vector<std::pair<NodeTag, std::uint32_t>> retired_stubs;

    Key top;  ///< earliest live key at round start
    Time local_now = 0;
    std::uint64_t provisional = 0;  ///< in-window issue counter

    // Per-round results, folded into the queue's counters at the
    // barrier (workers never touch shared counters or the audit sink).
    std::uint64_t executed = 0;
    std::uint64_t same_sched = 0;
    std::uint64_t cross_sched = 0;
    Duration min_cross_delay = 0;
    std::uint64_t stale_cancels = 0;
    bool monotonic_violation = false;
  };

  // -- Main-thread round machinery -------------------------------------------
  /// Run rounds and serial steps while the earliest key is at or before
  /// `deadline`; no window reaches past it.  now() is left at the last
  /// round's anchor or serial step.
  void drain(Time deadline);
  void runUntil(Time deadline);
  /// Drain every Store with unclamped windows and leave now() at the
  /// last executed event, as the classic run() does.
  void run();
  /// Execute the single earliest event on the main thread.
  bool step();
  /// The Store holding the earliest live key (copied to `out`), or null
  /// when every Store is empty.  Refreshes each lane's `top` and lists
  /// the non-empty lanes in `candidates_`.
  Store* earliest(Key& out);
  /// One parallel round anchored at T = `anchor`.
  void roundAt(Time anchor, Time deadline);
  void dispatchLanes();
  void applyBarrier();
  /// Move the record in `from` (slot `from_slot` of context `from_ctx`)
  /// into a fresh slot of context `to_ctx`, queue it at (when, stamp),
  /// and turn `from` into the stub that forwards to it.
  void handOver(Slot& from, NodeTag from_ctx, std::uint32_t from_slot,
                NodeTag to_ctx, Time when, std::uint64_t stamp)
      VINI_NO_THREAD_SAFETY_ANALYSIS;

  // -- Worker-side entry points (reached via EventQueue's dispatch) -----------
  //
  // These run on worker threads against lane-local state (plus frozen
  // reads of the global Store), outside the static analysis's
  // capability model; the runtime ShardToken epochs police them instead.
  EventId workerSchedule(Lane& lane, Time when, const char* tag, NodeTag node,
                         EventQueue::Callback&& cb)
      VINI_NO_THREAD_SAFETY_ANALYSIS;
  bool workerCancel(Lane& lane, EventId id) VINI_NO_THREAD_SAFETY_ANALYSIS;
  /// A lane cancels through a stub (its own, or one in the global
  /// Store) forwarding to a record in some lane or the global Store.
  bool cancelViaStub(Lane& lane, const Slot& stub, EventId id)
      VINI_NO_THREAD_SAFETY_ANALYSIS;
  /// A record in the lane's own Store retires (fires or is cancelled):
  /// have the barrier free its stub, if any.
  static void retire(Lane& lane, const Slot& record);
  void execLane(Lane& lane, bool run_hooks) VINI_NO_THREAD_SAFETY_ANALYSIS;
  /// Work-steal lanes off the cursor.  `count` is the round's lane
  /// count and `round` its generation, both snapshotted under mu_ —
  /// workers must never read active_ directly (a straggler's last
  /// empty probe could race the main thread's post-round cleanup).
  void claimLanes(bool run_hooks, std::size_t count, std::uint64_t round);
  /// CAS-claim the next lane index of `round`, or return false if the
  /// cursor has moved to a later round or the round is exhausted.  A
  /// plain fetch_add cursor is not enough: a straggler's leftover
  /// increment from round N would silently consume — and with a stale,
  /// smaller lane count, *skip* — a slot of round N+1, deadlocking the
  /// barrier (observed on a single-core host, where the descheduling
  /// window between a worker's last execLane and its final empty probe
  /// is wide).
  bool claimSlot(std::uint64_t round, std::size_t count, std::size_t& out);
  void workerLoop();

  EventQueue& queue_;
  const int threads_;
  Duration lookahead_ = 1;
  std::vector<Lane> lanes_;
  /// Non-empty lanes, from the latest earliest() scan.
  std::vector<Lane*> candidates_;
  /// The current window's horizon key (see the header comment).
  Key horizon_;

  /// Worker contexts, the main thread included: min(threads, lanes).
  std::size_t contexts_ = 1;
  /// Rounds, events and critical path (tally_.rounds also names the
  /// round in barrier audits).
  EventQueue::ShardTally tally_;

  // Pool state.  No waits are timed (srclint V203): workers block on
  // the round counter and the main thread blocks on the done counter.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t round_ = 0;
  bool stop_ = false;
  std::vector<Lane*> active_;
  /// active_.size() snapshotted under mu_ for the live round; the only
  /// lane-count value worker threads may read.
  std::size_t active_count_ = 0;
  /// Round-tagged work cursor: (round << kCursorRoundShift) | index.
  /// The 20-bit index band bounds claims per round at ~1M — lanes cap
  /// at 65535 and each participant adds at most one empty probe, so the
  /// band never saturates; 44 round bits outlast any plausible run.
  static constexpr unsigned kCursorRoundShift = 20;
  static constexpr std::uint64_t kCursorIndexMask =
      (std::uint64_t{1} << kCursorRoundShift) - 1;
  std::atomic<std::uint64_t> cursor_{0};
  std::size_t done_ = 0;
};

}  // namespace vini::sim
