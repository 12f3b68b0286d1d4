#include "obs/span.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "obs/export_writer.h"
#include "obs/lane_merge.h"
#include "obs/obs.h"
#include "sim/event_queue.h"

namespace vini::obs {

const char* spanOutcomeName(SpanOutcome outcome) {
  switch (outcome) {
    case SpanOutcome::kOpen: return "open";
    case SpanOutcome::kDelivered: return "delivered";
    case SpanOutcome::kDropped: return "dropped";
  }
  return "?";
}

SpanTracker::SpanTracker(std::size_t capacity) : capacity_(capacity) {}

int SpanTracker::laneIndex() const {
  if (lane_states_.empty()) return -1;
  const int lane = sim::EventQueue::currentShardLane();
  if (lane < 0 || static_cast<std::size_t>(lane) + 1 >= lane_states_.size()) {
    return -1;
  }
  return lane;
}

std::int16_t SpanTracker::intern(const std::string& name) {
  if (const int lane = laneIndex(); lane >= 0) {
    // Frozen read of the shared table: the main thread mutates it only
    // between windows, never while lanes execute.
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::int16_t>(i);
    }
    LaneState& state = lane_states_[static_cast<std::size_t>(lane)];
    for (std::size_t i = 0; i < state.pending_names.size(); ++i) {
      if (state.pending_names[i] == name) {
        return static_cast<std::int16_t>(-static_cast<int>(i) - 2);
      }
    }
    if (state.pending_names.size() >= 0x7ffd) {
      throw std::length_error("span lane pending name table full");
    }
    state.pending_names.push_back(name);
    return static_cast<std::int16_t>(
        -static_cast<int>(state.pending_names.size()) - 1);
  }
  shard_.assertHeld();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::int16_t>(i);
  }
  if (names_.size() >= 0x7fff) throw std::length_error("span name table full");
  names_.push_back(name);
  return static_cast<std::int16_t>(names_.size() - 1);
}

std::uint64_t SpanTracker::newTraceId() {
  if (const int lane = laneIndex(); lane >= 0) {
    LaneState& state = lane_states_[static_cast<std::size_t>(lane)];
    return (static_cast<std::uint64_t>(lane + 1) << kLaneTraceShift) |
           ++state.trace_seq;
  }
  shard_.assertHeld();
  return ++next_trace_id_;
}

const std::string& SpanTracker::name(std::int16_t id) const {
  shard_.assertHeld();
  static const std::string kNone = "-";
  if (id < 0 || static_cast<std::size_t>(id) >= names_.size()) return kNone;
  return names_[static_cast<std::size_t>(id)];
}

std::uint32_t SpanTracker::open(std::uint64_t trace_id, std::int16_t layer,
                                sim::Time t, std::int16_t node,
                                std::int16_t link, std::uint32_t bytes) {
  if (const int lane = laneIndex(); lane >= 0) {
    LaneState& state = lane_states_[static_cast<std::size_t>(lane)];
    if (state.span_seq + 1 >= (1u << kLaneSpanShift)) {
      throw std::length_error("span lane id space exhausted");
    }
    const std::uint32_t prov =
        (static_cast<std::uint32_t>(lane + 1) << kLaneSpanShift) |
        ++state.span_seq;
    LaneOp op;
    op.kind = LaneOp::Kind::kOpen;
    op.t = t;
    op.trace_id = trace_id;
    op.span_id = prov;
    op.layer = layer;
    op.node = node;
    op.link = link;
    op.bytes = bytes;
    state.ops.push_back(op);
    return prov;
  }
  shard_.assertHeld();
  if (!lane_states_.empty() && next_span_id_ + 1 >= (1u << kLaneSpanShift)) {
    throw std::length_error("span id space exhausted under shard lanes");
  }
  SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = ++next_span_id_;
  rec.t_open = t;
  rec.layer = layer;
  rec.node = node;
  rec.link = link;
  rec.bytes = bytes;
  ++opened_;
  open_spans_.emplace(rec.span_id, rec);
  return rec.span_id;
}

void SpanTracker::close(std::uint32_t span_id, sim::Time t,
                        SpanOutcome outcome, std::int16_t reason) {
  if (span_id == kNoSpan) return;
  if (const int lane = laneIndex(); lane >= 0) {
    LaneOp op;
    op.kind = LaneOp::Kind::kClose;
    op.t = t;
    op.span_id = span_id;
    op.reason = reason;
    op.outcome = outcome;
    lane_states_[static_cast<std::size_t>(lane)].ops.push_back(op);
    return;
  }
  shard_.assertHeld();
  if (!lane_states_.empty() && isProvisionalSpanId(span_id)) {
    const auto pit = provisional_spans_.find(span_id);
    if (pit == provisional_spans_.end()) {
      // The matching open is still buffered in a lane: defer beside it
      // (the main pseudo-lane folds with everything else).
      LaneOp op;
      op.kind = LaneOp::Kind::kClose;
      op.t = t;
      op.span_id = span_id;
      op.reason = reason;
      op.outcome = outcome;
      mainLane().ops.push_back(op);
      return;
    }
    const std::uint32_t real = pit->second;
    provisional_spans_.erase(pit);
    span_id = real;
  }
  auto it = open_spans_.find(span_id);
  if (it == open_spans_.end()) return;
  SpanRecord rec = it->second;
  open_spans_.erase(it);
  finish(rec, t, outcome, reason);
}

void SpanTracker::openRoot(std::uint64_t trace_id, std::int16_t layer,
                           sim::Time t, std::int16_t node,
                           std::uint32_t bytes) {
  if (trace_id == 0) return;
  if (const int lane = laneIndex(); lane >= 0) {
    LaneOp op;
    op.kind = LaneOp::Kind::kOpenRoot;
    op.t = t;
    op.trace_id = trace_id;
    op.layer = layer;
    op.node = node;
    op.bytes = bytes;
    lane_states_[static_cast<std::size_t>(lane)].ops.push_back(op);
    return;
  }
  shard_.assertHeld();
  if (open_roots_.count(trace_id) != 0) return;
  SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = ++next_span_id_;
  rec.t_open = t;
  rec.layer = layer;
  rec.node = node;
  rec.bytes = bytes;
  rec.root = true;
  ++opened_;
  ++roots_opened_;
  open_roots_.emplace(trace_id, rec);
}

void SpanTracker::closeRoot(std::uint64_t trace_id, sim::Time t,
                            SpanOutcome outcome, std::int16_t reason) {
  if (trace_id == 0) return;
  if (const int lane = laneIndex(); lane >= 0) {
    LaneOp op;
    op.kind = LaneOp::Kind::kCloseRoot;
    op.t = t;
    op.trace_id = trace_id;
    op.reason = reason;
    op.outcome = outcome;
    lane_states_[static_cast<std::size_t>(lane)].ops.push_back(op);
    return;
  }
  shard_.assertHeld();
  auto it = open_roots_.find(trace_id);
  if (it == open_roots_.end()) {
    if (!lane_states_.empty() && !folding_) {
      // The root's open may still be buffered in a lane; the fold
      // decides (a genuinely late close counts late there instead).
      LaneOp op;
      op.kind = LaneOp::Kind::kCloseRoot;
      op.t = t;
      op.trace_id = trace_id;
      op.reason = reason;
      op.outcome = outcome;
      mainLane().ops.push_back(op);
      return;
    }
    ++late_root_closes_;
    return;
  }
  SpanRecord rec = it->second;
  open_roots_.erase(it);
  ++roots_closed_;
  finish(rec, t, outcome, reason);
}

void SpanTracker::finish(SpanRecord rec, sim::Time t, SpanOutcome outcome,
                         std::int16_t reason) {
  shard_.assertHeld();
  rec.t_close = t;
  rec.outcome = outcome;
  rec.reason = reason;
  if (outcome == SpanOutcome::kDropped) {
    ++closed_dropped_;
  } else {
    ++closed_delivered_;
  }
  if (records_.size() >= capacity_) {
    ++records_lost_;
    return;
  }
  records_.push_back(rec);
}

void SpanTracker::enableShardLanes(std::size_t lanes) {
  shard_.assertHeld();
  if (!lane_states_.empty()) {
    throw std::logic_error("obs: span shard lanes already enabled");
  }
  if (lanes == 0 || lanes > 254) {
    throw std::logic_error("obs: span enableShardLanes() lane count invalid");
  }
  lane_states_.resize(lanes + 1);  // + the main pseudo-lane
}

std::int16_t SpanTracker::resolvePending(const LaneState& lane,
                                         std::int16_t id) {
  if (id >= -1) return id;
  const std::size_t idx = static_cast<std::size_t>(-id) - 2;
  if (idx >= lane.pending_names.size()) return -1;
  return intern(lane.pending_names[idx]);
}

void SpanTracker::foldShardLanes() {
  shard_.assertHeld();
  // Deterministic replay order: (t, lane, issue order), with the main
  // pseudo-lane last at equal timestamps.
  const auto order = laneTimeOrder(
      lane_states_.size(), [this](std::size_t l) -> const auto& {
        return lane_states_[l].ops;
      });
  folding_ = true;
  for (const LaneSlot& slot : order) {
    const LaneState& state = lane_states_[slot.lane];
    const LaneOp op = state.ops[slot.idx];
    const std::int16_t reason = resolvePending(state, op.reason);
    switch (op.kind) {
      case LaneOp::Kind::kOpen: {
        const std::uint32_t real =
            open(op.trace_id, resolvePending(state, op.layer), op.t,
                 resolvePending(state, op.node), resolvePending(state, op.link),
                 op.bytes);
        provisional_spans_[op.span_id] = real;
        break;
      }
      case LaneOp::Kind::kClose: {
        std::uint32_t id = op.span_id;
        if (isProvisionalSpanId(id)) {
          const auto it = provisional_spans_.find(id);
          if (it == provisional_spans_.end()) break;  // double close: no-op
          id = it->second;
          provisional_spans_.erase(it);
        }
        close(id, op.t, op.outcome, reason);
        break;
      }
      case LaneOp::Kind::kOpenRoot:
        openRoot(op.trace_id, resolvePending(state, op.layer), op.t,
                 resolvePending(state, op.node), op.bytes);
        break;
      case LaneOp::Kind::kCloseRoot:
        closeRoot(op.trace_id, op.t, op.outcome, reason);
        break;
    }
  }
  folding_ = false;
  for (LaneState& state : lane_states_) state.ops.clear();
}

void SpanTracker::requireFolded(const char* accessor) const {
  shard_.assertHeld();
  if (hasUnfoldedLaneOps()) {
    throw std::logic_error(std::string("obs: SpanTracker::") + accessor +
                           " before Obs::foldShardLanes()");
  }
}

const std::vector<SpanRecord>& SpanTracker::records() const {
  requireFolded("records()");
  return records_;
}

std::vector<SpanRecord> SpanTracker::traceSpans(std::uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  for (const auto& rec : records()) {
    if (rec.trace_id == trace_id) out.push_back(rec);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.root != b.root) return a.root;
              if (a.t_open != b.t_open) return a.t_open < b.t_open;
              return a.span_id < b.span_id;
            });
  return out;
}

std::vector<std::uint64_t> SpanTracker::traceIds() const {
  std::vector<std::uint64_t> ids;
  for (const auto& rec : records()) ids.push_back(rec.trace_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

bool SpanTracker::hasUnfoldedLaneOps() const {
  for (const LaneState& state : lane_states_) {
    if (!state.ops.empty()) return true;
  }
  return false;
}

void SpanTracker::writeCsv(std::ostream& os) const {
  shard_.assertHeld();
  const std::vector<SpanRecord>& records = this->records();
  ExportWriter w(os);
  w.put("trace_id,span_id,root,layer,node,link,t_open_ns,t_close_ns,dur_ns,"
        "outcome,reason,bytes\n");
  for (const auto& rec : records) {
    w.putInt(rec.trace_id).put(',').putInt(rec.span_id).put(',');
    w.put(rec.root ? '1' : '0').put(',').put(name(rec.layer)).put(',');
    w.put(name(rec.node)).put(',').put(name(rec.link)).put(',');
    w.putInt(rec.t_open).put(',').putInt(rec.t_close).put(',');
    w.putInt(rec.duration()).put(',').put(spanOutcomeName(rec.outcome));
    w.put(',').put(name(rec.reason)).put(',').putInt(rec.bytes).put('\n');
  }
  w.flush();
}

void SpanTracker::clear() {
  shard_.assertHeld();
  next_trace_id_ = 0;
  next_span_id_ = 0;
  opened_ = closed_delivered_ = closed_dropped_ = 0;
  roots_opened_ = roots_closed_ = late_root_closes_ = 0;
  records_lost_ = 0;
  names_.clear();
  open_spans_.clear();
  open_roots_.clear();
  records_.clear();
  provisional_spans_.clear();
  for (LaneState& state : lane_states_) {
    state.ops.clear();
    state.pending_names.clear();
    state.span_seq = 0;
    state.trace_seq = 0;
  }
}

void closeRootAtCurrent(std::uint64_t trace_id, const char* reason) {
  if (trace_id == 0) return;
  Obs* ctx = current();
  if (ctx == nullptr || ctx->clock == nullptr) return;
  ctx->spans.closeRoot(trace_id, ctx->clock->now(), SpanOutcome::kDropped,
                       ctx->spans.intern(reason));
}

}  // namespace vini::obs
