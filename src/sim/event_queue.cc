#include "sim/event_queue.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "check/audit.h"
#include "sim/shard.h"

namespace vini::sim {

EventQueue::EventQueue() { shard_.assertHeld(); }

EventQueue::EventQueue(int threads) : EventQueue() {
  shard_threads_ = threads > 0 ? threads : 0;
}

EventQueue::~EventQueue() {
  // Drain stored callbacks while every member is still alive: dropping
  // a callback can destroy the last owner of a component (e.g. a TCP
  // connection kept alive only by its pending retransmit event), and
  // that component's destructor may cancel() its own timers on this
  // queue.  With tearing_down_ set those cancels return without
  // touching a slab or a priority structure.  Workers idle between
  // rounds, so the lanes' Stores drain here too; the pool joins after.
  tearing_down_ = true;
  for (Store* store : stores_) {
    for (Slot& slot : store->slots) slot.cb.reset();
  }
  shard_rt_.reset();
}

void EventQueue::finalizeSharding(Duration lookahead) {
  shard_.assertHeld();
  if (shard_threads_ <= 0 || shard_rt_ != nullptr) return;
  tags_frozen_ = true;
  shard_rt_ = std::make_unique<ShardRuntime>(*this, shard_threads_);
  shard_rt_->finalize(lookahead);
}

std::size_t EventQueue::shardLaneCount() const {
  return shard_rt_ ? shard_rt_->laneCount() : 0;
}

EventQueue::ShardTally EventQueue::shardTally() const {
  shard_.assertHeld();
  return shard_rt_ ? shard_rt_->tally() : ShardTally{};
}

NodeTag EventQueue::internNodeTag(const std::string& name) {
  shard_.assertHeld();
  for (std::size_t i = 0; i < node_tag_names_.size(); ++i) {
    if (node_tag_names_[i] == name) return static_cast<NodeTag>(i);
  }
  // V106: the lane set of a sharded run is frozen at finalizeSharding();
  // a *new* node name appearing afterwards would need a lane that does
  // not exist (its events would silently fall to the serial path).
  VINI_AUDIT_CHECK(
      !tags_frozen_,
      (check::Diagnostic{check::Severity::kError, "V106", "event queue",
                         "node tag '" + name +
                             "' interned after finalizeSharding froze the "
                             "lane set"}));
  // Linear scan: interning happens once per node at construction, and
  // topologies hold tens of nodes, not thousands.
  VINI_AUDIT_CHECK(
      node_tag_names_.size() < kNoNode,
      (check::Diagnostic{check::Severity::kError, "V105", "event queue",
                         "node tag table overflow (>= 65535 node names)"}));
  node_tag_names_.push_back(name);
  node_executed_.push_back(0);
  return static_cast<NodeTag>(node_tag_names_.size() - 1);
}

const std::string& EventQueue::nodeTagName(NodeTag tag) const {
  shard_.assertHeld();
  static const std::string kUnattributed = "-";
  if (tag == kNoNode || tag >= node_tag_names_.size()) return kUnattributed;
  return node_tag_names_[tag];
}

std::uint64_t EventQueue::nodeExecutedCount(NodeTag tag) const {
  shard_.assertHeld();
  if (tag == kNoNode || tag >= node_executed_.size()) return 0;
  return node_executed_[tag];
}

EventId EventQueue::schedule(Time when, const char* tag, NodeTag node,
                             Callback cb) {
  if (worker_ctx_.queue == this) {
    return workerSchedule(when, tag, node, std::move(cb));
  }
  shard_.assertHeld();
  if (when < now_) when = now_;
  // Cross-node edge accounting: an attributed handler scheduling onto a
  // different attributed node is exactly the event a sharded engine
  // would have to hand off through a mailbox; its delay bounds the
  // conservative lookahead window.
  if (exec_node_ != kNoNode && node != kNoNode) {
    if (node == exec_node_) {
      ++same_node_scheduled_;
    } else {
      const Duration delay = when - now_;
      if (cross_node_scheduled_ == 0 || delay < min_cross_delay_) {
        min_cross_delay_ = delay;
      }
      ++cross_node_scheduled_;
    }
  }
  const bool sharded = shard_threads_ > 0;
  if (sharded) ShardRuntime::auditStamp(next_seq_);
  const std::uint32_t slot =
      global_.allocSlot(sharded ? kHandleSlotMask : kSlotMask);
  Slot& s = global_.slots[slot];
  s.cb = std::move(cb);
  s.tag = tag;
  s.node = node;
  const std::uint64_t stamp = next_seq_++;
  if (shard_rt_ != nullptr && node < shard_rt_->laneCount()) {
    // A node event lives in its lane's Store; the handle names the
    // stub left here, which lanes may read while the Store is frozen.
    shard_rt_->handOver(s, kNoNode, slot, node, when, stamp);
  } else {
    s.ord = (stamp << kSlotBits) | slot;
    global_.push(Key{when, s.ord});
  }
  if (!sharded) return s.ord;
  notePeaks();
  return handleOf(kNoNode, slot, s.gen);
}

bool EventQueue::cancel(EventId id) {
  if (worker_ctx_.queue == this) return workerCancel(id);
  return cancelMain(id, /*audit=*/true);
}

bool EventQueue::cancelMain(EventId id, bool audit) {
  shard_.assertHeld();
  if (tearing_down_) return false;
  if (shard_threads_ > 0) return cancelSharded(id, audit);
  // Only events still awaiting execution can be cancelled: the handle
  // must still occupy its slab slot.
  const std::uint32_t slot = slotOf(id);
  if (id == 0 || slot >= global_.slots.size() ||
      global_.slots[slot].ord != id) {
    if (id != 0 && audit) {
      if (seqOf(id) == 0 || seqOf(id) >= next_seq_) {
        // V101 (error): this queue never issued `id` — the handle is
        // corrupt, crossed queues, or was fabricated.  Unlike
        // cancel-after-fire this can never be a benign race with the
        // event's own execution, so it is definitely a caller bug.
        VINI_AUDIT_CHECK(
            false,
            (check::Diagnostic{check::Severity::kError, "V101",
                               "event " + std::to_string(id),
                               "cancel() of an id this queue never issued"}));
      } else {
        // V101 (warning): cancelling an event that already fired (or was
        // already cancelled) is deterministic — it returns false — but
        // usually means the caller lost track of its handle.
        VINI_AUDIT_CHECK(
            false,
            (check::Diagnostic{check::Severity::kWarning, "V101",
                               "event " + std::to_string(id),
                               "cancel() of an event that already fired or "
                               "was already cancelled"}));
      }
    }
    return false;
  }
  // Release the callback — and any packet or component state it
  // captured — *now*; only a 16-byte tombstone key stays behind.
  global_.cancelQueued(slot);
  return true;
}

bool EventQueue::cancelSharded(EventId id, [[maybe_unused]] bool audit) {
  const Handle h = decode(id);
  Store* store = h.ctx == kNoNode || h.ctx + 1u < stores_.size()
                     ? &storeOf(h.ctx)
                     : nullptr;
  if (store != nullptr && h.slot < store->slots.size() &&
      store->slots[h.slot].gen == h.gen && store->slots[h.slot].ord != 0) {
    // Between rounds a stub always forwards to its live record: the
    // barrier frees stubs as their records retire.
    const Slot& s = store->slots[h.slot];
    Store& home = s.stub ? storeOf(s.link_ctx) : *store;
    const std::uint32_t record = s.stub ? s.link_slot : h.slot;
    unlinkStub(home.slots[record]);
    home.cancelQueued(record);
    return true;
  }
  // A fired, cancelled or fabricated handle: the deterministic
  // stale-handle path, same contract as the classic engine.
  VINI_AUDIT_CHECK(
      !audit || id == 0,
      (check::Diagnostic{check::Severity::kWarning, "V101",
                         "event " + std::to_string(id),
                         "cancel() of a sharded event that already fired or "
                         "was already cancelled"}));
  return false;
}

// -- Store: slab + priority structure -----------------------------------------

std::uint32_t EventQueue::Store::allocSlot(std::uint32_t cap) {
  if (free_slots.empty()) {
    // The id encoding caps a slab (2^24 slots in the classic engine,
    // 2^17 per Store in the sharded one); a simulation needing more has
    // almost certainly leaked events.  A slot past the cap would alias
    // another handle's bits, so fail fast in every build.
    if (slots.size() > cap) {
      std::fprintf(stderr,
                   "vini: V104 more than %llu concurrent events in one "
                   "event-queue slab\n",
                   static_cast<unsigned long long>(cap) + 1);
      std::abort();
    }
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
  }
  const std::uint32_t slot = free_slots.back();
  free_slots.pop_back();
  return slot;
}

void EventQueue::Store::releaseSlot(std::uint32_t slot) {
  // A live callback dies last: its captures' destructors may re-enter
  // the queue (cancel or schedule), which must find the slot free.
  Slot& s = slots[slot];
  Callback dead;
  if (s.cb) dead = std::move(s.cb);
  s.tag = nullptr;
  s.ord = 0;
  s.linked = false;
  s.stub = false;
  s.gen = s.gen == kGenMask ? 1 : s.gen + 1;
  free_slots.push_back(slot);
}

void EventQueue::Store::push(const Key& key) {
  heap.push_back(key);
  heapSiftUp(heap, heap.size() - 1);
  ++live;
  if (live > peak_pending) peak_pending = live;
  const std::size_t size = storage();
  if (size > peak_storage) peak_storage = size;
}

void EventQueue::Store::cancelQueued(std::uint32_t slot) {
  releaseSlot(slot);
  --live;
  ++dead_keys;
  maybeCompact();
}

void EventQueue::Store::maybeCompact() {
  if (dead_keys * 2 <= storage()) return;
  // Tombstones outnumber live keys: rebuild without them.  Removal
  // cannot change pop order — (when, ord) is a total order, so any heap
  // arrangement of the surviving keys pops identically.
  for (std::vector<Key>* h : {&heap, &window}) {
    std::erase_if(*h, [this](const Key& k) { return !keyLive(k); });
    heapRebuild(*h);
  }
  dead_keys = 0;
}

// -- 4-ary heap ---------------------------------------------------------------
//
// An implicit d-ary min-heap with d = 4: children of node i are
// 4i+1..4i+4, which span one or two cache lines of 16-byte keys, so a
// sift touches half the depth a binary heap would for the same size.
// Pops always extract the exact (when, ord) minimum, so heap arity is
// invisible to the simulation.

void EventQueue::Store::heapSiftUp(std::vector<Key>& h, std::size_t i) {
  const Key k = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!keyEarlier(k, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = k;
}

void EventQueue::Store::heapSiftDown(std::vector<Key>& h, std::size_t i) {
  const std::size_t n = h.size();
  const Key k = h[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (keyEarlier(h[c], h[best])) best = c;
    }
    if (!keyEarlier(h[best], k)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = k;
}

void EventQueue::Store::heapRebuild(std::vector<Key>& h) {
  if (h.size() < 2) return;
  // Floyd: sift internal nodes down, deepest first.
  for (std::size_t i = (h.size() - 2) / 4 + 1; i-- > 0;) {
    heapSiftDown(h, i);
  }
}

EventQueue::Key EventQueue::Store::heapPop(std::vector<Key>& h) {
  const Key k = h.front();
  h.front() = h.back();
  h.pop_back();
  if (!h.empty()) heapSiftDown(h, 0);
  return k;
}

const EventQueue::Key* EventQueue::Store::peekMinRaw() {
  return heap.empty() ? nullptr : &heap.front();
}

EventQueue::Key EventQueue::Store::popMinRaw() { return heapPop(heap); }

const EventQueue::Key* EventQueue::Store::peekLive() {
  for (;;) {
    const Key* top = peekMinRaw();
    if (top == nullptr) return nullptr;
    if (dead_keys != 0 && !keyLive(*top)) {
      popMinRaw();
      --dead_keys;
      continue;
    }
    return top;
  }
}

void EventQueue::Store::pushWindow(const Key& key) {
  window.push_back(key);
  heapSiftUp(window, window.size() - 1);
  ++live;
}

const EventQueue::Key* EventQueue::Store::peekWindowed() {
  while (!window.empty() && dead_keys != 0 && !keyLive(window.front())) {
    heapPop(window);
    --dead_keys;
  }
  const Key* top = peekLive();
  if (window.empty() || (top != nullptr && keyEarlier(*top, window.front()))) {
    return top;
  }
  return &window.front();
}

EventQueue::Key EventQueue::Store::popWindowed() {
  if (!window.empty() &&
      (heap.empty() || keyEarlier(window.front(), heap.front()))) {
    return heapPop(window);
  }
  return popMinRaw();
}

// -- Execution ------------------------------------------------------------------

bool EventQueue::step() {
  shard_.assertHeld();
  if (shard_rt_ != nullptr) return shard_rt_->step();
  return runNext(global_);
}

bool EventQueue::runNext(Store& store) {
  if (store.peekLive() == nullptr) return false;
  const Key key = store.popMinRaw();
  const std::uint32_t slot = slotOf(key.ord);
  // Move the callback out of the slab before invoking: the handler may
  // schedule events, growing the slab and invalidating slab references.
  Slot& s = store.slots[slot];
  Callback cb = std::move(s.cb);
  const char* tag = s.tag;
  const NodeTag node = s.node;
  unlinkStub(s);
  store.releaseSlot(slot);
  --store.live;
  // V100: simulation time is monotonic — schedule() clamps to now(),
  // so an earlier-than-now pop means the priority structure broke.
  VINI_AUDIT_CHECK(
      key.when >= now_,
      (check::Diagnostic{check::Severity::kError, "V100",
                         "event " + std::to_string(key.ord),
                         "event timestamp " + std::to_string(key.when) +
                             " is earlier than now() " +
                             std::to_string(now_)}));
  if (advance_ && key.when > now_) advance_(now_, key.when);
  now_ = key.when;
  ++executed_;
  if (node != kNoNode) {
    ++node_executed_[node];
  } else {
    ++executed_unattributed_;
  }
  // Events the handler schedules are attributed as scheduled-from this
  // event's node; reset afterwards (step() does not nest).
  exec_node_ = node;
  if (profiler_) {
    // Wall clock is read only on the profiled path: an unprofiled
    // step() pays a single branch.
    const auto start = std::chrono::steady_clock::now();
    cb();
    const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    // The callback may have detached the profiler; re-check.
    if (profiler_) profiler_(tag, node, wall);
  } else {
    cb();
  }
  exec_node_ = kNoNode;
  return true;
}

void EventQueue::runUntil(Time deadline) {
  shard_.assertHeld();
  if (shard_rt_ != nullptr) {
    shard_rt_->runUntil(deadline);
    return;
  }
  while (const Key* top = global_.peekLive()) {
    if (top->when > deadline) break;
    runNext(global_);
  }
  if (now_ < deadline) {
    if (advance_) advance_(now_, deadline);
    now_ = deadline;
  }
}

void EventQueue::run() {
  shard_.assertHeld();
  if (shard_rt_ != nullptr) {
    shard_rt_->run();
    return;
  }
  while (runNext(global_)) {
  }
}

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  pending_ = queue_.scheduleAfter(period_, tag_, node_, [this] { fire(); });
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != 0) {
    queue_.cancel(pending_);
    pending_ = 0;
  }
}

void PeriodicTimer::fire() {
  pending_ = 0;
  if (!running_) return;
  // Re-arm before invoking so the callback may stop() or setPeriod().
  pending_ = queue_.scheduleAfter(period_, tag_, node_, [this] { fire(); });
  fn_();
}

void OneShotTimer::armAfter(Duration delay) {
  cancel();
  pending_ = queue_.scheduleAfter(delay, tag_, node_, [this] {
    pending_ = 0;
    fn_();
  });
}

void OneShotTimer::cancel() {
  if (pending_ != 0) {
    queue_.cancel(pending_);
    pending_ = 0;
  }
}

}  // namespace vini::sim
