// Discrete-event engine.
//
// The EventQueue is the heart of the substrate: every physical link
// transmission, CPU scheduling decision, protocol timer, and application
// action is an event.  Events at equal timestamps execute in scheduling
// order (FIFO by sequence number), which keeps runs fully deterministic.
//
// Storage model (the bench_engine hot path):
//
//   * Callbacks live in a slab of reusable records (`slots_` + a free
//     list), each holding a small-buffer-optimized InlineCallback — a
//     scheduled event with captures up to 64 bytes costs zero heap
//     allocations, and a fired or cancelled slot is recycled in place.
//   * The EventId handle encodes its slab slot in the low bits and a
//     monotone sequence number in the high bits, so cancel() finds its
//     record and step() detects stale keys by a single id comparison —
//     the engine keeps no hash map at all.
//   * The priority structure orders lightweight 16-byte keys
//     {when, id}, not the records themselves, so sift/scan moves stay
//     inside a few cache lines.
//   * Two interchangeable priority structures: a 4-ary heap (default,
//     O(log n), fully general; 4-ary rather than binary because the
//     four children of a node share a cache line, halving the miss
//     depth of a sift on large queues) and a calendar queue (Brown
//     1988: O(1) amortized at high event rates when timestamps are
//     roughly uniform, as under saturating traffic).  Both pop in
//     exactly the same (when, id) total order, so a run is
//     byte-identical under either — scripts/check.sh diffs same-seed
//     exports across the two to enforce it, and bench_engine measures
//     them against each other.
//   * cancel() releases the callback (and everything it captured)
//     eagerly and leaves only a tombstone key behind; tombstones are
//     compacted away whenever they outnumber live keys.
#pragma once

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
/// Handles are unique for the lifetime of their queue and monotonically
/// increasing in scheduling order; 0 is never a valid handle.
using EventId = std::uint64_t;

/// Small interned id for the physical node an event belongs to —
/// the would-be worker shard key of the parallel engine.  Components
/// intern their node name once (internNodeTag) and pass the tag on the
/// node-attributed schedule overloads; kNoNode marks events with no
/// single owning node (global timers, topology-wide reroutes).
using NodeTag = std::uint16_t;
inline constexpr NodeTag kNoNode = 0xFFFF;

/// Priority-structure implementations selectable at construction.
enum class QueueImpl {
  kHeap,      ///< implicit 4-ary min-heap over the key vector
  kCalendar,  ///< calendar queue: bucketed by timestamp, O(1) amortized
};

/// Stable lowercase name for reports and BENCH_engine.json.
const char* queueImplName(QueueImpl impl);

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
///   EventQueue q;                         // 4-ary heap
///   EventQueue q(QueueImpl::kCalendar);   // calendar queue
///   q.schedule(q.now() + kSecond, [] { ... });
///   q.runUntil(10 * kSecond);
class EventQueue {
 public:
  /// Event callbacks capture at most a component pointer, a shared
  /// packet handle, and a span id on the hot path; 64 inline bytes
  /// covers that with headroom (a stray std::function also fits).
  using Callback = InlineCallback<64>;

  EventQueue();  // out of line: members need ShardRuntime complete
  explicit EventQueue(QueueImpl impl);
  /// Sharded construction: `threads` worker contexts execute the run
  /// once finalizeSharding() freezes the lane set.  threads == 0 is the
  /// classic single-threaded engine (byte-identical to an EventQueue
  /// built without the parameter); threads == 1 runs the sharded
  /// schedule serially — the determinism gate's reference run.
  EventQueue(QueueImpl impl, int threads);
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  QueueImpl impl() const {
    shard_.assertHeld();
    return impl_;
  }

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
  /// (from internNodeTag).  Attribution is passive bookkeeping for the
  /// shard-readiness telemetry: per-node executed counts, the
  /// cross-node scheduling ratio, and the parallelism profiler all key
  /// off it, and a run is byte-identical with or without it.
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

  /// Run until the queue drains completely.
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

  /// Lane the calling thread is currently executing (any queue), or -1
  /// outside sharded lane execution.  The observability layer routes
  /// per-lane recording off this.
  static int currentShardLane() { return worker_ctx_.lane_index; }

  /// Number of events still pending (cancelled events are excluded).
  std::size_t pendingCount() const {
    shard_.assertHeld();
    return live_;
  }

  /// Number of keys resident in the priority structure, *including*
  /// cancelled tombstones awaiting compaction — the memory the engine
  /// actually pins.
  std::size_t storageCount() const {
    shard_.assertHeld();
    return impl_ == QueueImpl::kHeap ? heap_.size() : cal_count_;
  }

  /// Total number of events executed since construction.
  std::uint64_t executedCount() const {
    shard_.assertHeld();
    return executed_;
  }

  /// High-water marks of pendingCount() / storageCount() since
  /// construction (BENCH_engine.json's peak columns).
  std::uint64_t peakPendingCount() const {
    shard_.assertHeld();
    return peak_pending_;
  }
  std::uint64_t peakStorageCount() const {
    shard_.assertHeld();
    return peak_storage_;
  }

  /// Slab occupancy: total slots ever allocated / slots currently free.
  /// (slabSlotCount - slabFreeCount = live events; the gap to
  /// storageCount is the tombstone population.)
  std::size_t slabSlotCount() const {
    shard_.assertHeld();
    return slots_.size();
  }
  std::size_t slabFreeCount() const {
    shard_.assertHeld();
    return free_slots_.size();
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

  /// One executed event, as seen by the introspection hook: its
  /// execution time, the time it was scheduled at, and the node
  /// attribution of the event and of the handler that scheduled it.
  struct ExecEvent {
    Time when = 0;
    Time sched_at = 0;
    NodeTag node = kNoNode;
    NodeTag sched_from = kNoNode;
  };
  /// Introspection hook: called for every executed event, before its
  /// callback runs (the parallelism profiler is the intended client).
  /// Passive — it must not schedule or cancel; pass nullptr to
  /// uninstall.
  using IntrospectHook = std::function<void(const ExecEvent&)>;
  void setIntrospector(IntrospectHook hook) {
    shard_.assertHeld();
    introspect_ = std::move(hook);
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

  /// EventId layout: [ sequence : 40 | slab slot : 24 ].  The sequence
  /// is monotone per queue (ids order by scheduling time, giving the
  /// FIFO tie-break), and the slot gives cancel()/step() an O(1),
  /// hash-free path to the event's record.  A stale handle — fired,
  /// cancelled, or fabricated — is detected because its slot no longer
  /// stores the same id.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static std::uint32_t slotOf(EventId id) {
    return static_cast<std::uint32_t>(id & kSlotMask);
  }
  static std::uint64_t seqOf(EventId id) { return id >> kSlotBits; }

  /// What the priority structures order: 16 bytes, trivially copyable.
  /// (when, id) is a total order — ids are unique and monotone — so any
  /// correct min-extraction yields the same deterministic sequence.
  struct Key {
    Time when = 0;
    EventId id = 0;
  };
  static bool keyEarlier(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.id < b.id;  // FIFO among equal timestamps
  }

  /// Slab record: the callback (captures inline up to 64 bytes), the
  /// profiler tag, the node attribution (owning node, scheduling node,
  /// scheduling time — the parallelism profiler's raw material), and
  /// the full id currently occupying the slot (0 when free — the
  /// generation check).  Slots are recycled through free_slots_.
  struct Slot {
    Callback cb;
    const char* tag = nullptr;
    EventId id = 0;
    /// Sharded mode: the worker-issued staged id this event was
    /// scheduled under (0 otherwise) — releasing the slot erases the
    /// staged-id mapping so the translation table stays bounded.
    EventId alias = 0;
    Time sched_at = 0;
    NodeTag node = kNoNode;
    NodeTag sched_from = kNoNode;
  };

  std::uint32_t allocSlot() VINI_REQUIRES(shard_);
  void releaseSlot(std::uint32_t slot) VINI_REQUIRES(shard_);
  /// True while `key` refers to a live (not cancelled, not fired) event.
  bool keyLive(const Key& key) const VINI_REQUIRES(shard_) {
    return slots_[slotOf(key.id)].id == key.id;
  }

  /// Earliest live key, skimming cancelled tombstones off the top; null
  /// when empty.  The returned pointer is invalidated by any mutation.
  const Key* peekLive() VINI_REQUIRES(shard_);
  const Key* peekMinRaw() VINI_REQUIRES(shard_);
  Key popMinRaw() VINI_REQUIRES(shard_);

  // 4-ary heap primitives (impl_ == kHeap only).
  void heapSiftUp(std::size_t i) VINI_REQUIRES(shard_);
  void heapSiftDown(std::size_t i) VINI_REQUIRES(shard_);
  void heapRebuild() VINI_REQUIRES(shard_);

  /// Drop every tombstone from the priority structure once they
  /// outnumber live keys (dead_keys_ > storage/2).
  void maybeCompact() VINI_REQUIRES(shard_);

  // Calendar-queue internals (impl_ == kCalendar only).  Buckets are
  // kept sorted by (when, id); the scan position (cal_bucket_, cal_top_)
  // walks year windows exactly as in Brown's original design.
  void calResetScan(Time t) VINI_REQUIRES(shard_);
  void calInsert(const Key& k) VINI_REQUIRES(shard_);
  const Key* calPeek() VINI_REQUIRES(shard_);
  void calMaybeResize() VINI_REQUIRES(shard_);
  void calRebuild(std::size_t nbuckets) VINI_REQUIRES(shard_);

  // The queue is the unit the sharded engine distributes: one queue per
  // worker shard, owned exclusively by it.  Everything below is
  // shard-owned; cross-shard event handoff will go through an explicit
  // mailbox, never by touching another shard's members.
  core::ShardToken shard_;
  QueueImpl impl_ VINI_GUARDED_BY(shard_) = QueueImpl::kHeap;
  // cross-shard: read by every layer via now(); sampled by observers.
  Time now_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t next_seq_ VINI_GUARDED_BY(shard_) = 1;
  std::uint64_t executed_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t peak_pending_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t peak_storage_ VINI_GUARDED_BY(shard_) = 0;
  /// Live (pending, uncancelled) events.
  std::size_t live_ VINI_GUARDED_BY(shard_) = 0;
  /// Tombstones: cancelled keys still sitting in the priority structure.
  std::size_t dead_keys_ VINI_GUARDED_BY(shard_) = 0;
  /// Set by ~EventQueue before the slab drains: dropping a stored
  /// callback can release the last owner of an object whose destructor
  /// cancels its own timer on this queue, and that re-entrant cancel()
  /// must be a no-op rather than touch half-destroyed members.
  bool tearing_down_ VINI_GUARDED_BY(shard_) = false;

  // Slab storage for callbacks; keys refer into it by index.
  std::vector<Slot> slots_ VINI_GUARDED_BY(shard_);
  std::vector<std::uint32_t> free_slots_ VINI_GUARDED_BY(shard_);

  // 4-ary heap structure (heapSiftUp/heapSiftDown-managed).
  // cross-shard: remote schedule() calls will land here via the mailbox.
  std::vector<Key> heap_ VINI_GUARDED_BY(shard_);

  // Calendar structure.
  std::vector<std::vector<Key>> cal_buckets_ VINI_GUARDED_BY(shard_);
  std::size_t cal_count_ VINI_GUARDED_BY(shard_) = 0;
  Time cal_width_ VINI_GUARDED_BY(shard_) = kMillisecond;
  std::size_t cal_bucket_ VINI_GUARDED_BY(shard_) = 0;
  Time cal_top_ VINI_GUARDED_BY(shard_) = 0;

  ProfileHook profiler_ VINI_GUARDED_BY(shard_);
  AdvanceHook advance_ VINI_GUARDED_BY(shard_);
  IntrospectHook introspect_ VINI_GUARDED_BY(shard_);

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
  EventId workerSchedule(Time when, const char* tag, NodeTag node,
                         Callback cb);
  bool workerCancel(EventId id);
  /// cancel() body for the main thread (the classic path plus
  /// translation of worker-issued sharded ids).
  bool cancelMain(EventId id, bool audit);

  /// Worker threads requested at construction (0 = classic engine).
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
