#include "sim/event_queue.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "check/audit.h"
#include "sim/shard.h"

namespace vini::sim {

namespace {

/// Starting bucket count for the calendar; grows/shrinks with load.
constexpr std::size_t kCalMinBuckets = 16;

}  // namespace

const char* queueImplName(QueueImpl impl) {
  return impl == QueueImpl::kHeap ? "heap" : "calendar";
}

EventQueue::EventQueue() : EventQueue(QueueImpl::kHeap) {}

EventQueue::EventQueue(QueueImpl impl) : impl_(impl) {
  shard_.assertHeld();
  if (impl_ == QueueImpl::kCalendar) {
    cal_buckets_.resize(kCalMinBuckets);
    calResetScan(0);
  }
}

EventQueue::EventQueue(QueueImpl impl, int threads) : EventQueue(impl) {
  shard_threads_ = threads > 0 ? threads : 0;
}

EventQueue::~EventQueue() {
  // Join the worker pool first: no other thread may touch the queue
  // while it tears down.
  shard_rt_.reset();
  // Drain stored callbacks while every member is still alive: dropping
  // a callback can destroy the last owner of a component (e.g. a TCP
  // connection kept alive only by its pending retransmit event), and
  // that component's destructor may cancel() its own timers on this
  // queue.  With tearing_down_ set those cancels return without
  // touching the slab or the priority structure.
  tearing_down_ = true;
  for (Slot& slot : slots_) slot.cb.reset();
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

std::uint32_t EventQueue::allocSlot() {
  if (free_slots_.empty()) {
    // The id encoding caps the slab at 2^24 concurrent events; a
    // simulation needing more has almost certainly leaked events.
    VINI_AUDIT_CHECK(
        slots_.size() <= kSlotMask,
        (check::Diagnostic{check::Severity::kError, "V104", "event queue",
                           "more than 2^24 concurrent pending events"}));
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void EventQueue::releaseSlot(std::uint32_t slot) {
  slots_[slot].cb.reset();
  slots_[slot].tag = nullptr;
  slots_[slot].id = 0;
  if (slots_[slot].alias != 0) {
    if (shard_rt_) shard_rt_->dropAlias(slots_[slot].alias);
    slots_[slot].alias = 0;
  }
  slots_[slot].sched_at = 0;
  slots_[slot].node = kNoNode;
  slots_[slot].sched_from = kNoNode;
  free_slots_.push_back(slot);
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
  // Sharded runs reserve the id's top byte for worker lane bands; the
  // classic encoding stays clear of it while the sequence fits 31 bits.
  if (shard_rt_) {
    VINI_AUDIT_CHECK(
        next_seq_ < (1ull << 31),
        (check::Diagnostic{check::Severity::kError, "V107", "event queue",
                           "sharded-mode event sequence space exhausted"}));
  }
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
  const std::uint32_t slot = allocSlot();
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].cb = std::move(cb);
  slots_[slot].tag = tag;
  slots_[slot].id = id;
  slots_[slot].sched_at = now_;
  slots_[slot].node = node;
  slots_[slot].sched_from = exec_node_;
  const Key key{when, id};
  if (impl_ == QueueImpl::kHeap) {
    heap_.push_back(key);
    heapSiftUp(heap_.size() - 1);
  } else {
    calInsert(key);
  }
  ++live_;
  if (live_ > peak_pending_) peak_pending_ = live_;
  const std::size_t storage =
      impl_ == QueueImpl::kHeap ? heap_.size() : cal_count_;
  if (storage > peak_storage_) peak_storage_ = storage;
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (worker_ctx_.queue == this) return workerCancel(id);
  return cancelMain(id, /*audit=*/true);
}

bool EventQueue::cancelMain(EventId id, bool audit) {
  shard_.assertHeld();
  if (tearing_down_) return false;
  // A worker-issued id (lane band in the top byte) resolves through the
  // shard runtime's translation tables.
  if (shard_rt_ != nullptr && ShardRuntime::isShardId(id)) {
    return shard_rt_->mainCancel(id);
  }
  // Only events still awaiting execution can be cancelled: the handle
  // must still occupy its slab slot.
  const std::uint32_t slot = slotOf(id);
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id) {
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
  releaseSlot(slot);
  --live_;
  ++dead_keys_;
  maybeCompact();
  return true;
}

void EventQueue::maybeCompact() {
  const std::size_t storage =
      impl_ == QueueImpl::kHeap ? heap_.size() : cal_count_;
  if (dead_keys_ * 2 <= storage) return;
  // Tombstones outnumber live keys: rebuild without them.  Removal
  // cannot change pop order — (when, id) is a total order, so any heap
  // arrangement of the surviving keys pops identically.
  if (impl_ == QueueImpl::kHeap) {
    std::erase_if(heap_, [this](const Key& k) { return !keyLive(k); });
    heapRebuild();
  } else {
    for (auto& bucket : cal_buckets_) {
      const std::size_t before = bucket.size();
      std::erase_if(bucket, [this](const Key& k) { return !keyLive(k); });
      cal_count_ -= before - bucket.size();
    }
  }
  dead_keys_ = 0;
}

// -- 4-ary heap ---------------------------------------------------------------
//
// An implicit d-ary min-heap with d = 4: children of node i are
// 4i+1..4i+4, which span one or two cache lines of 16-byte keys, so a
// sift touches half the depth a binary heap would for the same size.
// Pops always extract the exact (when, id) minimum, so heap arity is
// invisible to the simulation.

void EventQueue::heapSiftUp(std::size_t i) {
  const Key k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!keyEarlier(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void EventQueue::heapSiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key k = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (keyEarlier(heap_[c], heap_[best])) best = c;
    }
    if (!keyEarlier(heap_[best], k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

void EventQueue::heapRebuild() {
  if (heap_.size() < 2) return;
  // Floyd: sift internal nodes down, deepest first.
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
    heapSiftDown(i);
  }
}

// -- Calendar queue -----------------------------------------------------------

void EventQueue::calResetScan(Time t) {
  const auto idx =
      static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(cal_width_);
  cal_bucket_ = static_cast<std::size_t>(idx % cal_buckets_.size());
  cal_top_ = static_cast<Time>(idx + 1) * cal_width_;
}

void EventQueue::calInsert(const Key& k) {
  // An insert behind the scan position (possible because the scan sits
  // wherever the last pop left it) rewinds the scan to the new event.
  if (cal_count_ == 0 || k.when < cal_top_ - cal_width_) calResetScan(k.when);
  const auto idx = static_cast<std::uint64_t>(k.when) /
                   static_cast<std::uint64_t>(cal_width_);
  auto& bucket = cal_buckets_[static_cast<std::size_t>(idx % cal_buckets_.size())];
  bucket.insert(
      std::upper_bound(bucket.begin(), bucket.end(), k,
                       [](const Key& a, const Key& b) { return keyEarlier(a, b); }),
      k);
  ++cal_count_;
  calMaybeResize();
}

const EventQueue::Key* EventQueue::calPeek() {
  if (cal_count_ == 0) return nullptr;
  const std::size_t n = cal_buckets_.size();
  // Walk year windows from the scan position.  A bucket's front is its
  // earliest key; it wins iff it falls inside the current window
  // (events in the same window always share a bucket, so the first hit
  // is the global minimum).
  for (std::size_t i = 0; i < n; ++i) {
    const auto& bucket = cal_buckets_[cal_bucket_];
    if (!bucket.empty() && bucket.front().when < cal_top_) {
      return &bucket.front();
    }
    cal_bucket_ = (cal_bucket_ + 1) % n;
    cal_top_ += cal_width_;
  }
  // A whole year without a hit (sparse far-future events): direct-search
  // the minimum and jump the scan to it.
  const Key* min = nullptr;
  for (const auto& bucket : cal_buckets_) {
    if (!bucket.empty() && (min == nullptr || keyEarlier(bucket.front(), *min))) {
      min = &bucket.front();
    }
  }
  calResetScan(min->when);  // min's bucket becomes the scan bucket
  return min;
}

void EventQueue::calMaybeResize() {
  const std::size_t n = cal_buckets_.size();
  if (cal_count_ > 2 * n) {
    calRebuild(2 * n);
  } else if (n > kCalMinBuckets && cal_count_ * 4 < n) {
    calRebuild(n / 2);
  }
}

void EventQueue::calRebuild(std::size_t nbuckets) {
  std::vector<Key> all;
  all.reserve(cal_count_);
  for (auto& bucket : cal_buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const Key& a, const Key& b) { return keyEarlier(a, b); });
  // Brown's width rule, simplified: ~3x the mean gap over a head sample,
  // so a window holds a few events on average.
  if (all.size() >= 2) {
    const std::size_t sample = std::min<std::size_t>(all.size() - 1, 64);
    const Time span = all[sample].when - all[0].when;
    cal_width_ = std::max<Time>(1, 3 * span / static_cast<Time>(sample));
  }
  cal_buckets_.assign(nbuckets, {});
  calResetScan(all.empty() ? now_ : all[0].when);
  // Globally sorted insert order means every bucket stays sorted with
  // plain push_back.
  for (const Key& k : all) {
    const auto idx = static_cast<std::uint64_t>(k.when) /
                     static_cast<std::uint64_t>(cal_width_);
    cal_buckets_[static_cast<std::size_t>(idx % nbuckets)].push_back(k);
  }
}

// -- Min extraction, shared by both implementations ---------------------------

const EventQueue::Key* EventQueue::peekMinRaw() {
  if (impl_ == QueueImpl::kHeap) {
    return heap_.empty() ? nullptr : &heap_.front();
  }
  return calPeek();
}

EventQueue::Key EventQueue::popMinRaw() {
  if (impl_ == QueueImpl::kHeap) {
    const Key k = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) heapSiftDown(0);
    return k;
  }
  const Key* top = calPeek();  // positions cal_bucket_ at the minimum
  const Key k = *top;
  auto& bucket = cal_buckets_[cal_bucket_];
  bucket.erase(bucket.begin());
  --cal_count_;
  calMaybeResize();
  return k;
}

const EventQueue::Key* EventQueue::peekLive() {
  for (;;) {
    const Key* top = peekMinRaw();
    if (top == nullptr) return nullptr;
    if (dead_keys_ != 0 && !keyLive(*top)) {
      popMinRaw();
      --dead_keys_;
      continue;
    }
    return top;
  }
}

bool EventQueue::step() {
  shard_.assertHeld();
  if (peekLive() == nullptr) return false;
  const Key key = popMinRaw();
  const std::uint32_t slot = slotOf(key.id);
  // Move the callback out of the slab before invoking: the handler may
  // schedule events, growing slots_ and invalidating slab references.
  Callback cb = std::move(slots_[slot].cb);
  const char* tag = slots_[slot].tag;
  const Time sched_at = slots_[slot].sched_at;
  const NodeTag node = slots_[slot].node;
  const NodeTag sched_from = slots_[slot].sched_from;
  releaseSlot(slot);
  --live_;
  // V100: simulation time is monotonic — schedule() clamps to now(),
  // so an earlier-than-now pop means the priority structure broke.
  VINI_AUDIT_CHECK(
      key.when >= now_,
      (check::Diagnostic{check::Severity::kError, "V100",
                         "event " + std::to_string(key.id),
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
  if (introspect_) introspect_(ExecEvent{key.when, sched_at, node, sched_from});
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
  while (const Key* top = peekLive()) {
    if (top->when > deadline) break;
    step();
  }
  if (now_ < deadline) {
    if (advance_) advance_(now_, deadline);
    now_ = deadline;
  }
}

void EventQueue::run() {
  shard_.assertHeld();
  if (shard_rt_ != nullptr) {
    // Drain in lookahead-sized chunks so every window still spans the
    // full conservative horizon.
    const Duration w = shard_rt_->lookahead();
    constexpr Time kMax = std::numeric_limits<Time>::max();
    while (const Key* top = peekLive()) {
      const Time t = top->when;
      shard_rt_->runUntil(t > kMax - w ? kMax : t + w);
    }
    return;
  }
  while (step()) {
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
