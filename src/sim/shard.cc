// Conservative-lookahead sharded execution (see shard.h for the
// architecture and the determinism argument).
//
// Thread roles, per round:
//
//   main    anchor scan, serial (kNoNode) steps and the barrier —
//           stamping held events, forwarding them to their target
//           Stores, deferred cancels, stub frees, audits, counter
//           folds: everything that touches more than one Store.
//   workers execLane() over the lane's own Store, plus *read-only*
//           probes of the global Store (cancel answers).  The global
//           Store is frozen for the duration of a window, so those
//           reads race with nothing.
//
// Hand-off points (all of which establish happens-before):
//   main -> workers         cursor_ release store, acquired by the
//                           workers' claims
//   workers -> barrier      done_ under mu_, awaited by the main thread
#include "sim/shard.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "check/audit.h"
#include "core/thread_annotations.h"

namespace vini::sim {

namespace {
constexpr Time kMaxTime = std::numeric_limits<Time>::max();
}  // namespace

ShardRuntime::ShardRuntime(EventQueue& queue, int threads)
    : queue_(queue), threads_(threads < 1 ? 1 : threads) {}

ShardRuntime::~ShardRuntime() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardRuntime::auditStamp([[maybe_unused]] std::uint64_t stamp) {
  VINI_AUDIT_CHECK(
      stamp < kProvisional,
      (check::Diagnostic{check::Severity::kError, "V107", "event queue",
                         "sharded-mode event stamp space exhausted"}));
}

void ShardRuntime::handOver(Slot& from, NodeTag from_ctx,
                            std::uint32_t from_slot, NodeTag to_ctx, Time when,
                            std::uint64_t stamp) {
  Store& to = queue_.storeOf(to_ctx);
  const std::uint32_t r = to.allocSlot(EventQueue::kHandleSlotMask);
  Slot& rec = to.slots[r];
  rec.cb = std::move(from.cb);
  rec.tag = from.tag;
  rec.node = from.node;
  rec.ord = (stamp << EventQueue::kSlotBits) | r;
  rec.linked = true;
  rec.link_ctx = from_ctx;
  rec.link_slot = from_slot;
  from.stub = true;
  from.when = when;
  from.ord = rec.ord;
  from.link_ctx = to_ctx;
  from.link_slot = r;
  to.push(Key{when, rec.ord});
}

void ShardRuntime::finalize(Duration lookahead) {
  EventQueue& q = queue_;
  q.shard_.assertHeld();
  lookahead_ = lookahead > 0 ? lookahead : 1;
  const std::size_t n = q.node_tag_names_.size();
  // A sharded handle's 16-bit context field names the lane, with
  // kNoNode reserved for the global Store.
  VINI_AUDIT_CHECK(
      n <= kNoNode,
      (check::Diagnostic{check::Severity::kError, "V106", "shard runtime",
                         "more than 65535 node lanes (sharded handle "
                         "context field is 16-bit)"}));
  lanes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    lanes_[i].index = static_cast<std::uint32_t>(i);
    q.stores_.push_back(&lanes_[i].store);
  }
  active_.reserve(n);
  candidates_.reserve(n);
  // Move every node event queued during setup into its lane, oldest
  // first, keeping its stamp; its global slot becomes the stub its
  // handle keeps naming.
  Store& global = q.global_;
  std::vector<Key> keys;
  while (global.peekLive() != nullptr) keys.push_back(global.popMinRaw());
  global.live = 0;
  for (const Key& key : keys) {
    const std::uint32_t slot = EventQueue::slotOf(key.ord);
    const NodeTag node = global.slots[slot].node;
    if (node < n) {
      handOver(global.slots[slot], kNoNode, slot, node, key.when,
               EventQueue::seqOf(key.ord));
    } else {
      global.push(key);  // unattributed: stays global
    }
  }
  // The main thread participates, so N contexts mean N - 1 spawned
  // workers.  A round never runs more lanes than exist, so contexts
  // beyond the lane count would only idle: cap them there.
  contexts_ = std::max<std::size_t>(
      1, std::min<std::size_t>(static_cast<std::size_t>(threads_), n));
  for (std::size_t i = 1; i < contexts_; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ShardRuntime::Store* ShardRuntime::earliest(Key& out) {
  Store* best = nullptr;
  if (const Key* top = queue_.global_.peekLive()) {
    out = *top;
    best = &queue_.global_;
  }
  candidates_.clear();
  for (Lane& lane : lanes_) {
    const Key* top = lane.store.peekLive();
    if (top == nullptr) continue;
    lane.top = *top;
    candidates_.push_back(&lane);
    if (best == nullptr || EventQueue::keyEarlier(*top, out)) {
      out = *top;
      best = &lane.store;
    }
  }
  return best;
}

bool ShardRuntime::step() {
  queue_.shard_.assertHeld();
  Key next;
  Store* store = earliest(next);
  if (store == nullptr || !queue_.runNext(*store)) return false;
  ++tally_.events;
  ++tally_.critical_path;
  return true;
}

void ShardRuntime::drain(Time deadline) {
  EventQueue& q = queue_;
  q.shard_.assertHeld();
  Key next;
  for (;;) {
    Store* store = earliest(next);
    if (store == nullptr || next.when > deadline) break;
    // Advance global time to the window anchor first: the sampler (the
    // advance hook's client) observes boundary state here, on the main
    // thread, with every worker quiescent.
    if (next.when > q.now_) {
      if (q.advance_) q.advance_(q.now_, next.when);
      q.now_ = next.when;
    }
    if (store == &q.global_) {
      q.runNext(q.global_);  // a lone serial event; the next round re-anchors
      ++tally_.events;
      ++tally_.critical_path;
    } else {
      roundAt(next.when, deadline);
    }
  }
}

void ShardRuntime::runUntil(Time deadline) {
  drain(deadline);
  EventQueue& q = queue_;
  if (q.now_ < deadline) {
    if (q.advance_) q.advance_(q.now_, deadline);
    q.now_ = deadline;
  }
}

void ShardRuntime::run() {
  drain(kMaxTime);
  // Rounds move now() only to their anchors.  A lane's local clock
  // stops at the last event it ran, and a serial step moves now() to its
  // own event, so the latest of them is the last executed event.
  EventQueue& q = queue_;
  Time last = q.now_;
  for (const Lane& lane : lanes_) last = std::max(last, lane.local_now);
  if (q.now_ < last) {
    if (q.advance_) q.advance_(q.now_, last);
    q.now_ = last;
  }
}

void ShardRuntime::roundAt(Time anchor, Time deadline) {
  EventQueue& q = queue_;
  q.shard_.assertHeld();
  Time bound = anchor > kMaxTime - lookahead_ ? kMaxTime : anchor + lookahead_;
  // runUntil()'s contract: nothing past the deadline executes.
  if (deadline < kMaxTime && bound > deadline + 1) bound = deadline + 1;
  horizon_ = Key{bound, 0};
  // An unattributed event inside the window cuts it at its key: it
  // runs serially once every earlier lane event has.
  if (const Key* top = q.global_.peekLive();
      top != nullptr && EventQueue::keyEarlier(*top, horizon_)) {
    horizon_ = *top;
  }
  active_.clear();
  for (Lane* lane : candidates_) {
    if (!EventQueue::keyEarlier(lane->top, horizon_)) continue;
    lane->local_now = anchor;
    active_.push_back(lane);
  }
  // Active order — the barrier's stamping order — is the order in which
  // one global extraction would first have reached each lane.
  std::sort(active_.begin(), active_.end(), [](const Lane* a, const Lane* b) {
    return EventQueue::keyEarlier(a->top, b->top);
  });
  ++tally_.rounds;
  dispatchLanes();
  applyBarrier();
}

void ShardRuntime::dispatchLanes() {
  queue_.shard_.assertHeld();
  const bool hooks = static_cast<bool>(queue_.profiler_);
  core::beginShardParallelPhase();
  if (threads_ <= 1 || hooks || active_.size() <= 1) {
    // Serial lane execution — canonically equivalent, because lanes
    // are independent within a window, and required when the profile
    // hook (which is not thread-safe) is installed.
    for (Lane* lane : active_) execLane(*lane, hooks);
  } else {
    const std::size_t count = active_.size();
    std::uint64_t round = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      round = ++round_;
      // The release store publishes the round set-up to workers that
      // claim lanes through the cursor; ordering it inside the lock
      // means a worker that wakes on round_ always sees it.  The round
      // tag in the cursor invalidates any straggler claim still in
      // flight from the previous round.
      cursor_.store(round << kCursorRoundShift, std::memory_order_release);
      active_count_ = count;
      done_ = 0;
    }
    cv_work_.notify_all();
    claimLanes(false, count, round);
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return done_ == count; });
  }
  core::endShardParallelPhase();
}

bool ShardRuntime::claimSlot(std::uint64_t round, std::size_t count,
                             std::size_t& out) {
  std::uint64_t cur = cursor_.load(std::memory_order_acquire);
  for (;;) {
    if ((cur >> kCursorRoundShift) != round) return false;  // stale round
    const std::size_t i = static_cast<std::size_t>(cur & kCursorIndexMask);
    if (i >= count) return false;  // round exhausted
    if (cursor_.compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      out = i;
      return true;
    }
  }
}

void ShardRuntime::claimLanes(bool run_hooks, std::size_t count,
                              std::uint64_t round) {
  std::size_t i = 0;
  while (claimSlot(round, count, i)) {
    execLane(*active_[i], run_hooks);
    bool all_done = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      // done_ belongs to the round the claim validated; a stale thread
      // can no longer get here, so the count is exact.
      ++done_;
      all_done = done_ == count;
    }
    if (all_done) cv_done_.notify_all();
  }
}

void ShardRuntime::workerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      count = active_count_;
    }
    claimLanes(false, count, seen);
  }
}

void ShardRuntime::execLane(Lane& lane, bool run_hooks) {
  // Install the lane context: the ShardToken claims every engine
  // object this lane touches for the duration of the window, and the
  // queue's public API reroutes to the lane-local state below.
  core::setShardContext((static_cast<std::uint64_t>(lane.index) + 1) * 2);
  EventQueue::worker_ctx_ =
      ShardWorkerCtx{&queue_, &lane, static_cast<int>(lane.index)};
  Store& store = lane.store;
  const Key horizon = horizon_;
  lane.provisional = 0;
  while (const Key* top = store.peekWindowed()) {
    if (!EventQueue::keyEarlier(*top, horizon)) break;
    const Key key = store.popWindowed();
    const std::uint32_t slot = EventQueue::slotOf(key.ord);
    // Move the callback out before invoking: the handler may schedule,
    // growing the slab.
    Slot& s = store.slots[slot];
    EventQueue::Callback cb = std::move(s.cb);
    const char* tag = s.tag;
    retire(lane, s);
    store.releaseSlot(slot);
    --store.live;
    // Lane-local monotonicity (the V100 invariant, deferred: workers
    // never touch the audit sink — the barrier raises it).
    if (key.when < lane.local_now) lane.monotonic_violation = true;
    lane.local_now = key.when;
    ++lane.executed;
    if (run_hooks && queue_.profiler_) {
      const auto start = std::chrono::steady_clock::now();
      cb();
      const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      // The callback may have detached the profiler; re-check.
      if (queue_.profiler_) {
        queue_.profiler_(tag, static_cast<NodeTag>(lane.index), wall);
      }
    } else {
      cb();
    }
  }
  EventQueue::worker_ctx_ = ShardWorkerCtx{};
  core::setShardContext(0);
}

void ShardRuntime::retire(Lane& lane, const Slot& record) {
  if (record.linked) {
    lane.retired_stubs.emplace_back(record.link_ctx, record.link_slot);
  }
}

EventId ShardRuntime::workerSchedule(Lane& lane, Time when, const char* tag,
                                     NodeTag node, EventQueue::Callback&& cb) {
  if (when < lane.local_now) when = lane.local_now;
  // Same accounting the classic engine keeps in schedule(): a lane
  // handler is by construction attributed to the lane's node.
  if (node != kNoNode) {
    if (node == lane.index) {
      ++lane.same_sched;
    } else {
      const Duration delay = when - lane.local_now;
      if (lane.cross_sched == 0 || delay < lane.min_cross_delay) {
        lane.min_cross_delay = delay;
      }
      ++lane.cross_sched;
    }
  }
  Store& store = lane.store;
  const std::uint32_t slot = store.allocSlot(EventQueue::kHandleSlotMask);
  Slot& s = store.slots[slot];
  s.cb = std::move(cb);
  s.tag = tag;
  s.node = node;
  if (node == lane.index && when < horizon_.when) {
    // Own node, inside the window: runs this round, after every key
    // queued before the window and in issue order among its peers.
    s.ord = ((kProvisional | lane.provisional++) << EventQueue::kSlotBits) |
            slot;
    store.pushWindow(Key{when, s.ord});
  } else {
    // Held for the barrier, which knows its stamp and target Store.
    s.when = when;
    lane.held.push_back(Held{slot, s.gen});
  }
  return EventQueue::handleOf(static_cast<NodeTag>(lane.index), slot, s.gen);
}

bool ShardRuntime::workerCancel(Lane& lane, EventId id) {
  const EventQueue::Handle h = EventQueue::decode(id);
  if (h.ctx != lane.index && h.ctx != kNoNode) {
    // Another lane's handle: resolution must wait for the barrier (its
    // Store is not ours to touch).  Report "not cancelled" — an event
    // due inside this window executes anyway; a later one is cancelled
    // quietly at the barrier.
    lane.staged_cancels.push_back(id);
    return false;
  }
  // Our own Store, or the global one (frozen for the window).
  Store& store = h.ctx == kNoNode ? queue_.global_ : lane.store;
  const std::uint32_t slot = h.slot;
  if (slot >= store.slots.size() || store.slots[slot].gen != h.gen) {
    ++lane.stale_cancels;
    return false;
  }
  const Slot& s = store.slots[slot];
  if (s.stub) return cancelViaStub(lane, s, id);
  if (h.ctx == kNoNode) {
    // An unattributed event: it cannot run before the barrier.
    lane.staged_cancels.push_back(id);
  } else if (s.ord == 0) {
    store.releaseSlot(slot);  // held: the barrier skips the new generation
  } else {
    retire(lane, s);
    store.cancelQueued(slot);
  }
  return true;
}

bool ShardRuntime::cancelViaStub(Lane& lane, const Slot& stub, EventId id) {
  if (!EventQueue::keyEarlier(Key{stub.when, stub.ord}, horizon_)) {
    // The record cannot run before the barrier: defer the mutation.
    lane.staged_cancels.push_back(id);
    return true;
  }
  // The record runs, or ran, inside this window; only its own lane can
  // still stop it.
  if (stub.link_ctx == lane.index &&
      lane.store.slots[stub.link_slot].ord == stub.ord) {
    retire(lane, lane.store.slots[stub.link_slot]);
    lane.store.cancelQueued(stub.link_slot);
    return true;
  }
  ++lane.stale_cancels;
  return false;
}

void ShardRuntime::applyBarrier() {
  EventQueue& q = queue_;
  q.shard_.assertHeld();
  std::uint64_t round_violations = 0;
  std::uint64_t stale = 0;
  bool monotonic_ok = true;
  bool cancels = false;
  std::uint64_t round_events = 0;
  std::uint64_t busiest = 0;
  for (Lane* lp : active_) {
    Lane& lane = *lp;
    // Free the stubs of records the lane retired.
    for (const auto& [ctx, slot] : lane.retired_stubs) {
      q.storeOf(ctx).releaseSlot(slot);
    }
    lane.retired_stubs.clear();
    // Stamp held events, active order then issue order — the order one
    // global queue would have numbered them in — and queue each in its
    // target Store.
    const std::uint64_t base = q.next_seq_;
    q.next_seq_ += lane.held.size();
    auditStamp(q.next_seq_);
    for (std::size_t i = 0; i < lane.held.size(); ++i) {
      const Held& h = lane.held[i];
      Slot& s = lane.store.slots[h.slot];
      if (s.gen != h.gen) continue;  // cancelled inside the window
      const std::uint64_t stamp = base + i;
      if (s.node == lane.index) {
        s.ord = (stamp << EventQueue::kSlotBits) | h.slot;
        lane.store.push(Key{s.when, s.ord});
        continue;
      }
      // A cross-lane event landed inside the conservative window: the
      // lookahead bound (min cross-node propagation) was not respected
      // by some schedule.  Execution stays deterministic — the event
      // runs at its true time in a later round — but the target lane
      // may already have acted past it, so flag it.
      if (s.when < horizon_.when && s.node != kNoNode) ++round_violations;
      handOver(s, static_cast<NodeTag>(lane.index), h.slot,
               s.node < lanes_.size() ? s.node : kNoNode, s.when, stamp);
    }
    lane.held.clear();
    // Fold the lane's tallies into the queue's telemetry (the same
    // counters the classic engine keeps inline) and reset.
    cancels = cancels || !lane.staged_cancels.empty();
    stale += lane.stale_cancels;
    monotonic_ok = monotonic_ok && !lane.monotonic_violation;
    q.executed_ += lane.executed;
    q.node_executed_[lane.index] += lane.executed;
    round_events += lane.executed;
    busiest = std::max(busiest, lane.executed);
    q.same_node_scheduled_ += lane.same_sched;
    if (lane.cross_sched != 0) {
      if (q.cross_node_scheduled_ == 0 ||
          lane.min_cross_delay < q.min_cross_delay_) {
        q.min_cross_delay_ = lane.min_cross_delay;
      }
      q.cross_node_scheduled_ += lane.cross_sched;
    }
    lane.executed = 0;
    lane.same_sched = 0;
    lane.cross_sched = 0;
    lane.min_cross_delay = 0;
    lane.stale_cancels = 0;
    lane.monotonic_violation = false;
  }
  // The round's critical path: its busiest lane, or its events spread
  // evenly over the contexts, whichever is longer.
  tally_.events += round_events;
  tally_.critical_path +=
      std::max(busiest, (round_events + contexts_ - 1) / contexts_);
  VINI_AUDIT_CHECK(
      round_violations == 0,
      (check::Diagnostic{
          check::Severity::kWarning, "V108",
          "shard round " + std::to_string(tally_.rounds),
          std::to_string(round_violations) +
              " cross-lane event(s) scheduled inside the conservative "
              "lookahead window"}));
  VINI_AUDIT_CHECK(
      monotonic_ok,
      (check::Diagnostic{check::Severity::kError, "V100",
                         "shard round " + std::to_string(tally_.rounds),
                         "lane-local time ran backwards inside a window"}));
  VINI_AUDIT_CHECK(
      stale == 0,
      (check::Diagnostic{
          check::Severity::kWarning, "V109",
          "shard round " + std::to_string(tally_.rounds),
          std::to_string(stale) +
              " cancel(s) of already-resolved events inside worker lanes"}));
  // Deferred cancels, same order, once every held event has its Store.
  // Quiet: a target that already resolved is the expected outcome of a
  // deferred cancel, not V101.
  if (cancels) {
    for (Lane* lp : active_) {
      for (const EventId id : lp->staged_cancels) q.cancelMain(id, false);
      lp->staged_cancels.clear();
    }
  }
  active_.clear();
  q.notePeaks();
}

// -- EventQueue's worker-context trampolines ---------------------------------
//
// Defined here, where ShardRuntime::Lane is complete.

Time EventQueue::workerNow() const {
  const auto* lane =
      static_cast<const ShardRuntime::Lane*>(worker_ctx_.lane);
  return lane->local_now;
}

EventId EventQueue::workerSchedule(Time when, const char* tag, NodeTag node,
                                   Callback&& cb) {
  auto* lane = static_cast<ShardRuntime::Lane*>(worker_ctx_.lane);
  return shard_rt_->workerSchedule(*lane, when, tag, node, std::move(cb));
}

bool EventQueue::workerCancel(EventId id) {
  auto* lane = static_cast<ShardRuntime::Lane*>(worker_ctx_.lane);
  return shard_rt_->workerCancel(*lane, id);
}

}  // namespace vini::sim
