// Causal span tracing.
//
// A *trace* is one packet's journey through the stack, identified by the
// trace id assigned at ingress (app ping/iperf, OpenVPN client) and
// carried in PacketMeta.  Each layer the packet traverses opens a *span*
// when it takes custody and closes it when it hands the packet on —
// overlay encap, Click forwarding, the host stack's NIC/kernel paths,
// and the physical link decomposed into queueing, serialization, and
// propagation.  A delivered packet therefore yields a per-hop latency
// breakdown; a dropped packet yields a span closed with a drop reason.
//
// Two span shapes:
//  * the *root* span, opened once at ingress and keyed by trace id, so
//    any component holding the packet (and thus its trace id) can close
//    it at a drop site without plumbing handles around;
//  * *hop* spans, opened and closed by the same component through the
//    id returned from open() — these ride through the component's own
//    completion lambdas.
//
// Conservation is a checkable invariant: every opened span is closed
// exactly once (delivered, or dropped with a reason), and the tracker
// counts both sides so tests and the V-audit layer can reconcile them.
// Like the rest of the obs layer the tracker is strictly passive — it
// never schedules events, consumes randomness, or mutates sim state.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.h"
#include "sim/time.h"

namespace vini::obs {

enum class SpanOutcome : std::uint8_t {
  kOpen = 0,       // still in flight (only seen on unclosed spans)
  kDelivered = 1,  // handed to the next layer / final consumer
  kDropped = 2,    // destroyed; reason names the drop site
};

const char* spanOutcomeName(SpanOutcome outcome);

/// One completed (or still-open) span.  Names — layer, node, link, drop
/// reason — are interned in the tracker's shared string table.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  sim::Time t_open = 0;
  sim::Time t_close = -1;  // -1 while open
  std::int16_t layer = -1;
  std::int16_t node = -1;
  std::int16_t link = -1;
  std::int16_t reason = -1;
  SpanOutcome outcome = SpanOutcome::kOpen;
  bool root = false;
  std::uint32_t bytes = 0;

  sim::Duration duration() const { return t_close >= t_open ? t_close - t_open : 0; }
};

class SpanTracker {
 public:
  static constexpr std::uint32_t kNoSpan = 0;
  /// Completed spans are retained up to this cap; conservation counters
  /// keep counting past it (same contract as the packet tracer's ring).
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit SpanTracker(std::size_t capacity = kDefaultCapacity);

  /// Intern a name (layer, node, link, or drop reason) in the shared
  /// string table; re-interning returns the same id.  From inside a
  /// worker lane a miss returns a *provisional* (negative, <= -2) id
  /// backed by the lane's pending table; foldShardLanes() re-interns it
  /// into the shared table when the referencing op replays.  Hits on
  /// already-interned names return the real id even from lanes (the
  /// shared table is frozen while lanes execute).
  std::int16_t intern(const std::string& name) VINI_NO_THREAD_SAFETY_ANALYSIS;
  const std::string& name(std::int16_t id) const;
  const std::vector<std::string>& names() const {
    shard_.assertHeld();
    return names_;
  }

  /// Assign a fresh trace id (ingress).  Ids are dense and deterministic:
  /// the Nth packet admitted to tracing in a run always gets id N.  From
  /// inside a worker lane the id carries the lane in its top bits
  /// ([lane+1 : 16 | seq : 48]) — still deterministic (a packet's
  /// ingress node fixes its lane), but banded rather than globally
  /// dense, so barrier-free allocation cannot race.
  std::uint64_t newTraceId() VINI_NO_THREAD_SAFETY_ANALYSIS;

  // -- Hop spans --------------------------------------------------------------

  /// Open a span; the returned id is owed exactly one close().  From a
  /// worker lane the op is buffered and the returned id is provisional
  /// (lane-banded, [lane+1 : 8 | seq : 24]); the close may use it from
  /// the same lane (hop spans are lane-local: the component that opens
  /// a span closes it, and components live on one node) or from the
  /// main thread after the fold mapped it to the real id.
  std::uint32_t open(std::uint64_t trace_id, std::int16_t layer, sim::Time t,
                     std::int16_t node = -1, std::int16_t link = -1,
                     std::uint32_t bytes = 0) VINI_NO_THREAD_SAFETY_ANALYSIS;
  void close(std::uint32_t span_id, sim::Time t,
             SpanOutcome outcome = SpanOutcome::kDelivered,
             std::int16_t reason = -1) VINI_NO_THREAD_SAFETY_ANALYSIS;

  // -- Root spans -------------------------------------------------------------

  /// Open the end-to-end span for `trace_id` (once per trace).
  void openRoot(std::uint64_t trace_id, std::int16_t layer, sim::Time t,
                std::int16_t node = -1,
                std::uint32_t bytes = 0) VINI_NO_THREAD_SAFETY_ANALYSIS;
  /// Close the root span by trace id — drop sites use this, since the
  /// packet carries its trace id but no span handle.  A second close for
  /// the same trace (e.g. a reply dropped after the probe already timed
  /// out of the trace) is a counted no-op, preserving exactly-once.
  void closeRoot(std::uint64_t trace_id, sim::Time t, SpanOutcome outcome,
                 std::int16_t reason = -1) VINI_NO_THREAD_SAFETY_ANALYSIS;
  bool rootOpen(std::uint64_t trace_id) const {
    shard_.assertHeld();
    return open_roots_.count(trace_id) != 0;
  }

  // -- Shard lanes (parallel engine) ------------------------------------------

  /// Arm per-lane op buffering: span operations issued from worker
  /// lanes (sim::EventQueue::currentShardLane() >= 0) are buffered as
  /// intents and replayed against the shared tables by
  /// foldShardLanes() in (t, lane, issue-order) order (obs/lane_merge.h)
  /// — a pure function of the event stream, byte-identical at every
  /// thread count.  Roots opened on one lane and closed on another reconcile
  /// at the fold because conservative lookahead guarantees the open's
  /// timestamp precedes the close's (a cross-lane hop costs at least
  /// one lookahead window).  Call before the run, at most once.
  void enableShardLanes(std::size_t lanes);
  std::size_t shardLaneCount() const { return lane_states_.size() ? lane_states_.size() - 1 : 0; }
  /// Replay every buffered lane op.  Main-thread only, lanes
  /// quiescent; idempotent; must run before the read side.
  void foldShardLanes();

  // -- Read side --------------------------------------------------------------

  /// The counters below throw std::logic_error while lane buffers hold
  /// unfolded ops, as records() does.
  std::uint64_t opened() const {
    requireFolded("opened()");
    return opened_;
  }
  std::uint64_t closedDelivered() const {
    requireFolded("closedDelivered()");
    return closed_delivered_;
  }
  std::uint64_t closedDropped() const {
    requireFolded("closedDropped()");
    return closed_dropped_;
  }
  std::uint64_t closed() const { return closedDelivered() + closedDropped(); }
  /// Spans opened but not yet closed (in-flight packets at end of run).
  std::uint64_t stillOpen() const { return opened() - closed(); }
  std::uint64_t rootsOpened() const {
    requireFolded("rootsOpened()");
    return roots_opened_;
  }
  std::uint64_t rootsClosed() const {
    requireFolded("rootsClosed()");
    return roots_closed_;
  }
  std::uint64_t rootsStillOpen() const {
    requireFolded("rootsStillOpen()");
    return open_roots_.size();
  }
  /// closeRoot() calls that found the root already closed.
  std::uint64_t lateRootCloses() const {
    requireFolded("lateRootCloses()");
    return late_root_closes_;
  }

  /// Completed spans in close order (capped at capacity()).  Throws
  /// std::logic_error while lane buffers hold unfolded ops.
  const std::vector<SpanRecord>& records() const;
  std::size_t capacity() const { return capacity_; }
  /// Completed spans dropped once the cap was reached (counters above
  /// remain exact).
  std::uint64_t recordsLost() const {
    requireFolded("recordsLost()");
    return records_lost_;
  }

  /// All completed spans of one trace, sorted by (t_open, span_id); the
  /// root span, if closed, is first.
  std::vector<SpanRecord> traceSpans(std::uint64_t trace_id) const;
  /// Trace ids with at least one completed span, ascending.
  std::vector<std::uint64_t> traceIds() const;

  /// True while lane buffers (main pseudo-lane included) hold ops
  /// foldShardLanes() has not replayed yet; records(), the counters,
  /// the trace queries and the exports throw std::logic_error then.
  bool hasUnfoldedLaneOps() const;

  /// "trace_id,span_id,root,layer,node,link,t_open_ns,t_close_ns,dur_ns,
  ///  outcome,reason,bytes" rows in close order.
  void writeCsv(std::ostream& os) const;

  void clear();

 private:
  /// Throws std::logic_error naming `accessor` while lane buffers hold
  /// ops foldShardLanes() has not replayed: a count read then would
  /// silently miss them.
  void requireFolded(const char* accessor) const
      VINI_ASSERT_CAPABILITY(shard_);
  void finish(SpanRecord rec, sim::Time t, SpanOutcome outcome,
              std::int16_t reason);

  /// One buffered span operation from a worker lane (or a deferred
  /// main-thread op that referenced still-buffered lane state).
  struct LaneOp {
    enum class Kind : std::uint8_t { kOpen, kClose, kOpenRoot, kCloseRoot };
    Kind kind = Kind::kOpen;
    sim::Time t = 0;
    std::uint64_t trace_id = 0;
    std::uint32_t span_id = 0;  ///< provisional or real (kClose only)
    std::int16_t layer = -1;
    std::int16_t node = -1;
    std::int16_t link = -1;
    std::int16_t reason = -1;  ///< <= -2 means lane-pending intern index
    SpanOutcome outcome = SpanOutcome::kDelivered;
    std::uint32_t bytes = 0;
  };
  struct LaneState {
    std::vector<LaneOp> ops;
    /// Names interned from this lane that missed the shared table;
    /// provisional id -(idx + 2) resolves here.  Persists across folds
    /// (provisional ids may outlive the window that minted them).
    std::vector<std::string> pending_names;
    std::uint32_t span_seq = 0;   ///< provisional span id allocator
    std::uint64_t trace_seq = 0;  ///< lane-banded trace id allocator
  };

  /// Lane of the calling thread clamped to the enabled lane set, or -1.
  int laneIndex() const;
  /// Main-thread pseudo-lane (index lane count): deferred ops that
  /// reference not-yet-folded lane state.
  LaneState& mainLane() { return lane_states_.back(); }
  std::int16_t resolvePending(const LaneState& lane, std::int16_t id)
      VINI_REQUIRES(shard_);

  static constexpr unsigned kLaneSpanShift = 24;
  static constexpr unsigned kLaneTraceShift = 48;
  static bool isProvisionalSpanId(std::uint32_t id) {
    return (id >> kLaneSpanShift) != 0;
  }

  // Sharded plan: a packet's spans follow it across shards, so the open
  // tables are the one obs structure that must become a true cross-shard
  // handoff (span state travels in the mailbox with the packet).
  core::ShardToken shard_;
  std::size_t capacity_;
  // cross-shard: trace ids must stay dense across all admitting shards.
  std::uint64_t next_trace_id_ VINI_GUARDED_BY(shard_) = 0;
  std::uint32_t next_span_id_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t opened_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t closed_delivered_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t closed_dropped_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t roots_opened_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t roots_closed_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t late_root_closes_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t records_lost_ VINI_GUARDED_BY(shard_) = 0;
  std::vector<std::string> names_ VINI_GUARDED_BY(shard_);
  // cross-shard: a span opened on one shard may close on another.
  std::unordered_map<std::uint32_t, SpanRecord> open_spans_
      VINI_GUARDED_BY(shard_);
  std::unordered_map<std::uint64_t, SpanRecord> open_roots_
      VINI_GUARDED_BY(shard_);
  std::vector<SpanRecord> records_ VINI_GUARDED_BY(shard_);
  /// Per-lane op buffers plus one trailing main-thread pseudo-lane
  /// (enableShardLanes sizes this to lanes + 1; empty = lanes off).
  /// Each lane entry is written only by the thread executing that lane
  /// inside a window; the barrier separates that from the main-thread
  /// fold, so access never races.
  std::vector<LaneState> lane_states_;
  /// provisional span id -> real id, filled when an open replays at the
  /// fold, consumed by the matching close.
  std::unordered_map<std::uint32_t, std::uint32_t> provisional_spans_
      VINI_GUARDED_BY(shard_);
  /// True while foldShardLanes() replays — miss paths count instead of
  /// re-deferring onto the buffers being drained.
  bool folding_ VINI_GUARDED_BY(shard_) = false;
};

/// Close the root span of `trace_id` on the *currently installed* obs
/// context, timestamped with the context's attached clock.  This is the
/// drop-site hook for components that have no cached obs handles (Click
/// filter elements, classifier misses): a no-op when `trace_id` is 0, no
/// context is installed, or no clock was attached.  Defined in span.cc
/// to keep this header below obs.h in the include order.
void closeRootAtCurrent(std::uint64_t trace_id, const char* reason);

}  // namespace vini::obs
