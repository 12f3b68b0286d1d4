// Discrete-event engine.
//
// The EventQueue is the heart of the substrate: every physical link
// transmission, CPU scheduling decision, protocol timer, and application
// action is an event.  Events at equal timestamps execute in scheduling
// order (FIFO by sequence number), which keeps runs fully deterministic.
//
// Storage model (the bench_engine hot path):
//
//   * Callbacks live in a slab of reusable records (`slots` + a free
//     list), each holding a small-buffer-optimized InlineCallback — a
//     scheduled event with captures up to 64 bytes costs zero heap
//     allocations, and a fired or cancelled slot is recycled in place.
//   * The priority structure orders lightweight 16-byte keys
//     {when, ord}, not the records themselves, so sift/scan moves stay
//     inside a few cache lines.  The order word carries the slab slot
//     in its low bits and a monotone stamp in its high bits, so step()
//     finds its record and detects stale keys by a single comparison —
//     the engine keeps no hash map at all.
//   * The priority structure is a 4-ary heap: four children share a
//     cache line, halving the miss depth of a sift on large queues.
//   * cancel() releases the callback (and everything it captured)
//     eagerly and leaves only a tombstone key behind; tombstones are
//     compacted away whenever they outnumber live keys.
//   * A slab plus its priority structure is a Store.  The classic
//     engine has one; the sharded engine (sim/shard.h) gives every
//     lane its own heap-backed Store and keeps only unattributed
//     events in the global one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "sim/callback.h"
#include "sim/time.h"

namespace vini::sim {

class ShardRuntime;

/// Opaque handle identifying a scheduled event; used for cancellation.
/// A classic queue's handles increase monotonically in scheduling
/// order; a sharded queue's name a slab slot and its generation.  0 is
/// never a valid handle.
using EventId = std::uint64_t;

/// Small interned id for the physical node an event belongs to —
/// the would-be worker shard key of the parallel engine.  Components
/// intern their node name once (internNodeTag) and pass the tag on the
/// node-attributed schedule overloads; kNoNode marks events with no
/// single owning node (global timers, topology-wide reroutes).
using NodeTag = std::uint16_t;
inline constexpr NodeTag kNoNode = 0xFFFF;

class EventQueue;

/// The thread-local context a sharded worker lane installs while it
/// executes (see EventQueue's "Sharded dispatch" notes).  Declared
/// outside EventQueue so it is complete where the queue defines its
/// thread-local instance.
struct ShardWorkerCtx {
  const EventQueue* queue = nullptr;
  void* lane = nullptr;  ///< ShardRuntime::Lane*
  int lane_index = -1;
};

/// A deterministic discrete-event scheduler.
///
/// Usage:
///   EventQueue q;
///   q.schedule(q.now() + kSecond, [] { ... });
///   q.runUntil(10 * kSecond);
class EventQueue {
 public:
  /// Event callbacks capture at most a component pointer, a shared
  /// packet handle, and a span id on the hot path; 64 inline bytes
  /// covers that with headroom (a stray std::function also fits).
  using Callback = InlineCallback<64>;

  EventQueue();  // out of line: members need ShardRuntime complete
  /// Sharded construction: `threads` worker contexts execute the run
  /// once finalizeSharding() freezes the lane set.  threads == 0 is the
  /// classic single-threaded engine (byte-identical to an EventQueue
  /// built without the parameter); threads == 1 runs the sharded
  /// schedule serially — the determinism gate's reference run.
  explicit EventQueue(int threads);
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulation time.  Advances only inside run()/runUntil()/step().
  /// From inside a sharded worker lane this is the lane's local time
  /// (the timestamp of the event currently executing).
  Time now() const {
    if (worker_ctx_.queue == this) return workerNow();
    shard_.assertHeld();
    return now_;
  }

  /// Schedule `cb` to run at absolute time `when` (clamped to now()).
  /// Returns a handle that can be passed to cancel().
  EventId schedule(Time when, Callback cb) {
    return schedule(when, nullptr, std::move(cb));
  }

  /// As above, tagging the event with a static component label
  /// ("phys.link", "xorp.ospf", ...) that the event-loop profiler
  /// attributes handler time to.  `tag` must outlive the event — pass a
  /// string literal.
  EventId schedule(Time when, const char* tag, Callback cb) {
    return schedule(when, tag, kNoNode, std::move(cb));
  }

  /// As above, additionally attributing the event to a physical node
  /// (from internNodeTag).  A sharded queue runs the event on that
  /// node's lane; either engine counts it per node and in the
  /// cross-node scheduling ratio.
  EventId schedule(Time when, const char* tag, NodeTag node, Callback cb);

  /// Schedule `cb` to run `delay` after the current time.  Routed
  /// through now()/schedule() so the overloads work identically from
  /// the main thread and from sharded worker lanes.
  EventId scheduleAfter(Duration delay, Callback cb) {
    return schedule(now() + (delay > 0 ? delay : 0), nullptr, kNoNode,
                    std::move(cb));
  }

  EventId scheduleAfter(Duration delay, const char* tag, Callback cb) {
    return schedule(now() + (delay > 0 ? delay : 0), tag, kNoNode,
                    std::move(cb));
  }

  EventId scheduleAfter(Duration delay, const char* tag, NodeTag node,
                        Callback cb) {
    return schedule(now() + (delay > 0 ? delay : 0), tag, node, std::move(cb));
  }

  /// Cancel a previously scheduled event.  Returns true if the event was
  /// still pending (i.e. it will no longer fire).  The callback and all
  /// state it captured are released immediately, not when the event's
  /// timestamp is reached — a repeatedly re-armed hold timer therefore
  /// pins O(1) memory, not one dead record per re-arm.
  bool cancel(EventId id);

  /// Execute the single next pending event.  Returns false if none remain.
  bool step();

  /// Run until the queue drains or `deadline` is reached.  Time is left at
  /// `deadline` if it was reached, else at the last event executed.
  void runUntil(Time deadline);

  /// Run until the queue drains completely.  Time is left at the last
  /// event executed.
  void run();

  // -- Sharded execution ------------------------------------------------------

  /// Freeze the lane set (one lane per interned node tag) and the
  /// conservative lookahead window, and spawn the worker pool.  Call
  /// after world construction (every component has interned its node
  /// tag) and before the first run; no-op when the queue was built with
  /// threads == 0.  `lookahead` is the minimum cross-node propagation
  /// delay (PhysNetwork::minPropagation()); values < 1 ns are clamped.
  void finalizeSharding(Duration lookahead);

  /// True when this queue executes rounds through the shard runtime.
  bool sharded() const { return shard_rt_ != nullptr; }
  int shardThreads() const { return shard_threads_; }
  std::size_t shardLaneCount() const;

  /// What the shard runtime executed since finalizeSharding(): parallel
  /// `rounds`, `events` (serial steps plus lane events) and
  /// `critical_path` — per round, max(busiest lane's events,
  /// ceil(round events / contexts)) with contexts = min(threads,
  /// lanes), plus 1 per serial step.  events / critical_path is the
  /// speedup ceiling of these very rounds (an upper bound: it splits a
  /// round's events evenly, though a lane runs on one context).  All
  /// three are deterministic; rounds and events do not depend on the
  /// thread count.  Zeros for the classic engine.
  struct ShardTally {
    std::uint64_t rounds = 0;
    std::uint64_t events = 0;
    std::uint64_t critical_path = 0;
  };
  ShardTally shardTally() const;

  /// Lane the calling thread is currently executing (any queue), or -1
  /// outside sharded lane execution.  The observability layer routes
  /// per-lane recording off this.
  static int currentShardLane() { return worker_ctx_.lane_index; }

  /// Number of events still pending (cancelled events are excluded).
  /// This and the other occupancy counts below sum every Store: the
  /// global one and, in sharded mode, each lane's.
  std::size_t pendingCount() const {
    return sumStores([](const Store& s) { return s.live; });
  }

  /// Number of keys resident in the priority structures, *including*
  /// cancelled tombstones awaiting compaction — the memory the engine
  /// actually pins.
  std::size_t storageCount() const {
    return sumStores([](const Store& s) { return s.storage(); });
  }

  /// Total number of events executed since construction.
  std::uint64_t executedCount() const {
    shard_.assertHeld();
    return executed_;
  }

  /// High-water marks of pendingCount() / storageCount() since
  /// construction (BENCH_engine.json's peak columns).  A sharded queue
  /// samples the totals after every main-thread schedule and at the end
  /// of every barrier, so its peaks do not depend on the thread count.
  std::uint64_t peakPendingCount() const {
    shard_.assertHeld();
    return shard_threads_ > 0 ? peak_pending_ : global_.peak_pending;
  }
  std::uint64_t peakStorageCount() const {
    shard_.assertHeld();
    return shard_threads_ > 0 ? peak_storage_ : global_.peak_storage;
  }

  /// Slab occupancy: total slots ever allocated / slots currently free.
  /// (slabSlotCount - slabFreeCount = live events, plus in sharded
  /// mode the forwarding stubs of events handed across lanes; the gap
  /// to storageCount is the tombstone population.)
  std::size_t slabSlotCount() const {
    return sumStores([](const Store& s) { return s.slots.size(); });
  }
  std::size_t slabFreeCount() const {
    return sumStores([](const Store& s) { return s.free_slots.size(); });
  }

  // -- Per-node event attribution (shard-readiness telemetry) ---------------

  /// Intern a physical node name, returning the tag the node-attributed
  /// schedule overloads take.  Re-interning the same name returns the
  /// same tag.  Cold path: components intern once at construction.
  NodeTag internNodeTag(const std::string& name);
  std::size_t nodeTagCount() const {
    shard_.assertHeld();
    return node_tag_names_.size();
  }
  const std::string& nodeTagName(NodeTag tag) const;

  /// Events executed that were attributed to `tag` / to no node.
  std::uint64_t nodeExecutedCount(NodeTag tag) const;
  std::uint64_t unattributedExecutedCount() const {
    shard_.assertHeld();
    return executed_unattributed_;
  }

  /// Of the events scheduled *from inside* a node-attributed handler
  /// targeting a node-attributed event: how many stayed on the same
  /// node vs. crossed to another.  The cross/total ratio bounds how
  /// chatty a sharded run would be.
  std::uint64_t sameNodeScheduledCount() const {
    shard_.assertHeld();
    return same_node_scheduled_;
  }
  std::uint64_t crossNodeScheduledCount() const {
    shard_.assertHeld();
    return cross_node_scheduled_;
  }
  /// Smallest (when - now) over all cross-node schedules, i.e. the
  /// tightest delivery deadline a conservative lookahead window must
  /// respect; 0 when no cross-node event was ever scheduled.
  Duration minCrossNodeDelay() const {
    shard_.assertHeld();
    return cross_node_scheduled_ ? min_cross_delay_ : 0;
  }

  /// Wall-clock profiling hook: called after each executed event with
  /// the event's tag (nullptr for untagged), its node attribution
  /// (kNoNode for unattributed), and the handler's wall time in
  /// nanoseconds.  The clock is read only while a hook is installed;
  /// pass nullptr to uninstall.  The hook observes only — simulated
  /// time and event order are unaffected.
  using ProfileHook =
      std::function<void(const char* tag, NodeTag node, std::int64_t wall_ns)>;
  void setProfiler(ProfileHook hook) {
    shard_.assertHeld();
    profiler_ = std::move(hook);
  }

  /// Time-advance observation hook: called whenever now() is about to
  /// advance — before the event at the new time executes, and at the
  /// runUntil() deadline clamp — with the old and new time (from < to).
  /// Observers therefore see simulation state as of `to`⁻, i.e. with no
  /// event at `to` applied yet.  The hook observes only (the metric
  /// sampler in obs/ is the intended client); pass nullptr to uninstall.
  using AdvanceHook = std::function<void(Time from, Time to)>;
  void setAdvanceObserver(AdvanceHook hook) {
    shard_.assertHeld();
    advance_ = std::move(hook);
  }

 private:
  friend class ShardRuntime;

  /// Order word of a queued key: [stamp : 40 | slab slot : 24].  The
  /// stamp is monotone in scheduling order (the FIFO tie-break; the
  /// sharded engine assigns it by the rules in shard.h), and the slot
  /// gives step()/cancel() an O(1), hash-free path to the event's
  /// record.  In the classic engine the order word doubles as the
  /// EventId: a stale handle — fired, cancelled, or fabricated — is
  /// detected because its slot no longer stores the same word.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static std::uint32_t slotOf(std::uint64_t ord) {
    return static_cast<std::uint32_t>(ord & kSlotMask);
  }
  static std::uint64_t seqOf(std::uint64_t ord) { return ord >> kSlotBits; }

  /// Sharded-mode EventId: [context : 16 | generation : 31 | slot : 17].
  /// The context is the lane (== node tag) whose Store holds the slot,
  /// or kNoNode for the global Store; the generation is the slot's,
  /// bumped on every release, so a stale handle never matches.  The
  /// slot field caps each sharded Store at 2^17 slots (the classic slab
  /// at 2^24); allocSlot() aborts past either cap.
  static constexpr unsigned kHandleSlotBits = 17;
  static constexpr std::uint32_t kHandleSlotMask = (1u << kHandleSlotBits) - 1;
  static constexpr std::uint32_t kGenMask = 0x7FFFFFFFu;
  static EventId handleOf(NodeTag ctx, std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(ctx) << 48) |
           (static_cast<EventId>(gen) << kHandleSlotBits) | slot;
  }
  struct Handle {
    NodeTag ctx;
    std::uint32_t gen;
    std::uint32_t slot;
  };
  static Handle decode(EventId h) {
    return {static_cast<NodeTag>(h >> 48),
            static_cast<std::uint32_t>(h >> kHandleSlotBits) & kGenMask,
            static_cast<std::uint32_t>(h) & kHandleSlotMask};
  }

  /// What the priority structures order: 16 bytes, trivially copyable.
  /// (when, ord) is a total order — stamps are unique and monotone — so
  /// any correct min-extraction yields the same deterministic sequence.
  struct Key {
    Time when = 0;
    std::uint64_t ord = 0;
  };
  static bool keyEarlier(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.ord < b.ord;  // FIFO among equal timestamps
  }

  /// Slab record: the callback (captures inline up to 64 bytes), the
  /// profiler tag, the owning node, and the order word of its queued
  /// key (0 when not queued).  Sharded mode links Stores: a *stub*
  /// forwards (link_*) to a record in another Store and carries its key
  /// (when, ord); the record links back (linked, link_*) so retiring it
  /// frees the stub.
  struct Slot {
    Callback cb;
    const char* tag = nullptr;
    std::uint64_t ord = 0;
    /// Sharded mode: the timestamp of a record awaiting its stamp, or
    /// of the record a stub forwards to.
    Time when = 0;
    std::uint32_t gen = 1;
    NodeTag node = kNoNode;
    std::uint32_t link_slot = 0;
    NodeTag link_ctx = kNoNode;
    bool linked = false;
    bool stub = false;
  };

  /// A slab plus the priority structure over it.
  struct Store {
    /// A free slot.  Aborts, in every build, rather than hand out a
    /// slot index above `cap`: the id encoding has no room for it.
    std::uint32_t allocSlot(std::uint32_t cap);
    void releaseSlot(std::uint32_t slot);
    /// True while `key` refers to a live (not cancelled, not fired) event.
    bool keyLive(const Key& key) const {
      return slots[slotOf(key.ord)].ord == key.ord;
    }
    std::size_t storage() const { return heap.size(); }
    /// Queue a live key (counts it pending, tracks the peaks).
    void push(const Key& key);
    /// Earliest live key, skimming cancelled tombstones off the top; null
    /// when empty.  The returned pointer is invalidated by any mutation.
    const Key* peekLive();
    Key popMinRaw();
    /// Lane side, inside ShardRuntime::execLane only: queue an event the
    /// lane scheduled onto its own node inside the window, and the
    /// peek/pop pair that also sees those keys.
    void pushWindow(const Key& key);
    const Key* peekWindowed();
    Key popWindowed();
    /// Cancel the queued record in `slot`: release it now, leaving a
    /// tombstone key behind.
    void cancelQueued(std::uint32_t slot);

    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
    /// Live (pending, uncancelled) queued events.
    std::size_t live = 0;
    /// Tombstones: cancelled keys still sitting in the priority structure.
    std::size_t dead_keys = 0;
    std::uint64_t peak_pending = 0;
    std::uint64_t peak_storage = 0;

    // 4-ary heaps.  `window` holds a lane's in-window keys, so the hot
    // schedule/pop cycle inside a window stays shallow.  Every such key
    // runs or is skimmed before the window ends: `window` is empty
    // outside ShardRuntime::execLane, and only the lane-side calls read it.
    std::vector<Key> heap;
    std::vector<Key> window;

   private:
    const Key* peekMinRaw();
    /// Drop every tombstone from the priority structure once they
    /// outnumber live keys (dead_keys > storage/2).
    void maybeCompact();
    static void heapSiftUp(std::vector<Key>& h, std::size_t i);
    static void heapSiftDown(std::vector<Key>& h, std::size_t i);
    static void heapRebuild(std::vector<Key>& h);
    static Key heapPop(std::vector<Key>& h);
  };

  /// f(store) summed over every Store.
  template <typename F>
  std::size_t sumStores(F f) const {
    shard_.assertHeld();
    std::size_t total = 0;
    for (const Store* store : stores_) total += f(*store);
    return total;
  }
  /// Fold the current totals into the sharded-mode peaks.
  void notePeaks() VINI_REQUIRES(shard_) {
    peak_pending_ = std::max<std::uint64_t>(peak_pending_, pendingCount());
    peak_storage_ = std::max<std::uint64_t>(peak_storage_, storageCount());
  }
  /// Pop and execute the earliest event of `store` on the calling
  /// (main) thread; false when it is empty.
  bool runNext(Store& store) VINI_REQUIRES(shard_);
  /// The Store a sharded context names (kNoNode: the global one).
  Store& storeOf(NodeTag ctx) VINI_REQUIRES(shard_) {
    return *stores_[ctx == kNoNode ? 0 : ctx + 1u];
  }
  /// Retire a record on the main thread: free its stub, if any.
  void unlinkStub(const Slot& record) VINI_REQUIRES(shard_) {
    if (record.linked) storeOf(record.link_ctx).releaseSlot(record.link_slot);
  }
  /// cancel() of a sharded-mode handle on the main thread.
  bool cancelSharded(EventId id, bool audit) VINI_REQUIRES(shard_);

  // The queue is the unit the sharded engine distributes: its lanes'
  // Stores live in the ShardRuntime; everything below is owned by the
  // main thread.
  core::ShardToken shard_;
  // cross-shard: read by every layer via now(); sampled by observers.
  Time now_ VINI_GUARDED_BY(shard_) = 0;
  /// Next stamp (the classic engine's sequence number).
  std::uint64_t next_seq_ VINI_GUARDED_BY(shard_) = 1;
  std::uint64_t executed_ VINI_GUARDED_BY(shard_) = 0;
  /// Set by ~EventQueue before the slabs drain: dropping a stored
  /// callback can release the last owner of an object whose destructor
  /// cancels its own timer on this queue, and that re-entrant cancel()
  /// must be a no-op rather than touch half-destroyed members.
  bool tearing_down_ VINI_GUARDED_BY(shard_) = false;

  // cross-shard: in sharded mode lanes read it (frozen) to answer
  // cancels of unattributed events and main-thread handles.
  Store global_ VINI_GUARDED_BY(shard_);
  /// The global Store, then each lane's in lane order.
  std::vector<Store*> stores_ VINI_GUARDED_BY(shard_){&global_};
  /// Sharded mode: peaks of the summed counts (see peakPendingCount()).
  std::uint64_t peak_pending_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t peak_storage_ VINI_GUARDED_BY(shard_) = 0;

  ProfileHook profiler_ VINI_GUARDED_BY(shard_);
  AdvanceHook advance_ VINI_GUARDED_BY(shard_);

  // Per-node attribution state.  All passive counters: they never feed
  // back into event order, so a run is byte-identical with or without
  // node-attributed schedules.
  /// Interned node names; a NodeTag indexes this table.
  // cross-shard: the tag table is global so merged telemetry agrees on ids.
  std::vector<std::string> node_tag_names_ VINI_GUARDED_BY(shard_);
  /// Events executed per node tag (same indexing as node_tag_names_).
  std::vector<std::uint64_t> node_executed_ VINI_GUARDED_BY(shard_);
  std::uint64_t executed_unattributed_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t same_node_scheduled_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t cross_node_scheduled_ VINI_GUARDED_BY(shard_) = 0;
  Duration min_cross_delay_ VINI_GUARDED_BY(shard_) = 0;
  /// Node attribution of the handler currently executing (kNoNode
  /// outside step() or under an unattributed handler).
  NodeTag exec_node_ VINI_GUARDED_BY(shard_) = kNoNode;

  // -- Sharded dispatch -------------------------------------------------------
  //
  // Worker lanes reach the queue through the same public API as the
  // rest of the simulation; a thread-local context installed around
  // lane execution reroutes now()/schedule()/cancel() to the lane's
  // local state (defined in shard.cc, where the lane types are
  // complete).  The context is per (thread, queue): a worker executing
  // for queue A leaves any other queue's behavior untouched.
  // Defined inline with a constant initializer, so every access reads
  // the TLS slot directly.  An out-of-line definition made accesses
  // from other translation units go through a TLS init wrapper that
  // UBSan reports as a null-pointer member access.
  static inline constinit thread_local ShardWorkerCtx worker_ctx_{};

  Time workerNow() const;
  /// Takes the callback by reference: each by-value hop would relocate
  /// it through an indirect call.
  EventId workerSchedule(Time when, const char* tag, NodeTag node,
                         Callback&& cb);
  bool workerCancel(EventId id);
  /// cancel() body for the main thread.
  bool cancelMain(EventId id, bool audit);

  /// Worker threads requested at construction (0 = classic engine).
  /// Non-zero selects the sharded handle layout from the first event.
  int shard_threads_ = 0;
  /// Set by finalizeSharding(): interning new node tags afterwards is a
  /// V106 audit error (the lane set must stay frozen).
  bool tags_frozen_ VINI_GUARDED_BY(shard_) = false;
  std::unique_ptr<ShardRuntime> shard_rt_;
};

/// A repeating timer built on EventQueue; cancels cleanly on destruction.
///
/// Used by protocol implementations (OSPF hellos, BGP keepalives, traffic
/// generators) that need a periodic callback which can be rescheduled or
/// stopped at any point.
class PeriodicTimer {
 public:
  PeriodicTimer(EventQueue& queue, Duration period, std::function<void()> fn)
      : queue_(queue), period_(period), fn_(std::move(fn)) {}
  /// Node-attributed variant: firings carry the profiler tag and the
  /// owning node, so a sharded engine keeps them on the node's lane
  /// instead of forcing a serial round.
  PeriodicTimer(EventQueue& queue, Duration period, const char* tag,
                NodeTag node, std::function<void()> fn)
      : queue_(queue), period_(period), fn_(std::move(fn)), tag_(tag),
        node_(node) {}
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arm the timer; first firing occurs one period from now.
  void start();
  /// Disarm the timer; no further firings.
  void stop();
  /// Change the period; takes effect from the next (re)scheduling.
  void setPeriod(Duration period) { period_ = period; }
  Duration period() const { return period_; }
  bool running() const { return running_; }

 private:
  void fire();

  EventQueue& queue_;
  Duration period_;
  std::function<void()> fn_;
  const char* tag_ = nullptr;
  NodeTag node_ = kNoNode;
  EventId pending_ = 0;
  bool running_ = false;
};

/// A one-shot timer that can be re-armed; models protocol hold timers
/// (e.g. the OSPF router-dead interval) that are repeatedly pushed back.
class OneShotTimer {
 public:
  OneShotTimer(EventQueue& queue, std::function<void()> fn)
      : queue_(queue), fn_(std::move(fn)) {}
  /// Node-attributed variant (see PeriodicTimer).
  OneShotTimer(EventQueue& queue, const char* tag, NodeTag node,
               std::function<void()> fn)
      : queue_(queue), fn_(std::move(fn)), tag_(tag), node_(node) {}
  ~OneShotTimer() { cancel(); }

  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// (Re)arm the timer to fire `delay` from now, replacing any pending firing.
  void armAfter(Duration delay);
  /// Disarm; no firing until re-armed.
  void cancel();
  bool pending() const { return pending_ != 0; }

 private:
  EventQueue& queue_;
  std::function<void()> fn_;
  const char* tag_ = nullptr;
  NodeTag node_ = kNoNode;
  EventId pending_ = 0;
};

}  // namespace vini::sim
