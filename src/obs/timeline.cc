#include "obs/timeline.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "obs/export_writer.h"
#include "obs/lane_merge.h"
#include "sim/event_queue.h"

namespace vini::obs {

// -- Timeline ---------------------------------------------------------------

Timeline::Timeline(std::size_t capacity) : capacity_(capacity) {}

std::int16_t Timeline::intern(
    std::vector<std::string>& names,
    std::unordered_map<std::string, std::int16_t>& index,
    const std::string& name) {
  shard_.assertHeld();
  if (auto it = index.find(name); it != index.end()) return it->second;
  if (names.size() >= 0x7fff) throw std::length_error("timeline name table full");
  const auto id = static_cast<std::int16_t>(names.size());
  names.push_back(name);
  index.emplace(name, id);
  return id;
}

void Timeline::instant(const std::string& track, const std::string& label,
                       sim::Time t) {
  duration(track, label, t, 0);
}

void Timeline::duration(const std::string& track, const std::string& label,
                        sim::Time t, sim::Duration dur) {
  if (!lane_ops_.empty()) {
    const int lane = sim::EventQueue::currentShardLane();
    const std::size_t main = lane_ops_.size() - 1;
    lane_ops_[lane >= 0 && static_cast<std::size_t>(lane) < main
                  ? static_cast<std::size_t>(lane)
                  : main]
        .push_back(LaneOp{track, label, t, dur});
    return;
  }
  commit(track, label, t, dur);
}

void Timeline::commit(const std::string& track, const std::string& label,
                      sim::Time t, sim::Duration dur) {
  shard_.assertHeld();
  if (events_.size() >= capacity_) {
    ++events_lost_;
    return;
  }
  TimelineEvent ev;
  ev.track = intern(tracks_, track_index_, track);
  ev.label = intern(labels_, label_index_, label);
  ev.t = t;
  ev.dur = dur > 0 ? dur : 0;
  events_.push_back(ev);
}

void Timeline::enableShardLanes(std::size_t lanes) {
  shard_.assertHeld();
  if (!lane_ops_.empty()) {
    throw std::logic_error("obs: timeline shard lanes already enabled");
  }
  if (lanes == 0) {
    throw std::logic_error("obs: timeline enableShardLanes() with no lanes");
  }
  lane_ops_.resize(lanes + 1);  // + the main pseudo-lane
}

void Timeline::foldShardLanes() {
  shard_.assertHeld();
  const auto order = laneTimeOrder(
      lane_ops_.size(), [this](std::size_t l) -> const auto& {
        return lane_ops_[l];
      });
  for (const LaneSlot& s : order) {
    const LaneOp& op = lane_ops_[s.lane][s.idx];
    commit(op.track, op.label, op.t, op.dur);
  }
  for (auto& buf : lane_ops_) buf.clear();
}

void Timeline::requireFolded(const char* accessor) const {
  shard_.assertHeld();
  if (hasUnfoldedLaneOps()) {
    throw std::logic_error(std::string("obs: Timeline::") + accessor +
                           " before Obs::foldShardLanes()");
  }
}

const std::vector<TimelineEvent>& Timeline::events() const {
  requireFolded("events()");
  return events_;
}

const std::string& Timeline::trackName(std::int16_t id) const {
  shard_.assertHeld();
  static const std::string kNone = "-";
  if (id < 0 || static_cast<std::size_t>(id) >= tracks_.size()) return kNone;
  return tracks_[static_cast<std::size_t>(id)];
}

const std::string& Timeline::labelName(std::int16_t id) const {
  shard_.assertHeld();
  static const std::string kNone = "-";
  if (id < 0 || static_cast<std::size_t>(id) >= labels_.size()) return kNone;
  return labels_[static_cast<std::size_t>(id)];
}

bool Timeline::hasUnfoldedLaneOps() const {
  for (const auto& ops : lane_ops_) {
    if (!ops.empty()) return true;
  }
  return false;
}

void Timeline::writeCsv(std::ostream& os) const {
  shard_.assertHeld();
  const std::vector<TimelineEvent>& events = this->events();
  ExportWriter w(os);
  w.put("track,label,t_ns,dur_ns\n");
  for (const auto& ev : events) {
    w.put(trackName(ev.track)).put(',').put(labelName(ev.label)).put(',');
    w.putInt(ev.t).put(',').putInt(ev.dur).put('\n');
  }
  w.flush();
}

void Timeline::clear() {
  shard_.assertHeld();
  events_lost_ = 0;
  tracks_.clear();
  labels_.clear();
  track_index_.clear();
  label_index_.clear();
  events_.clear();
  for (auto& buf : lane_ops_) buf.clear();
}

// -- MetricSampler ----------------------------------------------------------

void MetricSampler::watch(const std::string& component,
                          const std::string& node, const std::string& name,
                          Mode mode) {
  shard_.assertHeld();
  Series s;
  s.key = MetricKey{component, node, name};
  s.mode = mode;
  series_.push_back(std::move(s));
  watch_state_.emplace_back();
}

void MetricSampler::attach(sim::EventQueue& queue) {
  shard_.assertHeld();
  attached_queue_ = &queue;
  queue.setAdvanceObserver(
      [this](sim::Time from, sim::Time to) { onAdvance(from, to); });
}

void MetricSampler::detach() {
  shard_.assertHeld();
  if (attached_queue_ == nullptr) return;
  attached_queue_->setAdvanceObserver(nullptr);
  attached_queue_ = nullptr;
}

void MetricSampler::onAdvance(sim::Time from, sim::Time to) {
  shard_.assertHeld();
  if (period_ <= 0 || registry_ == nullptr || series_.empty()) return;
  // First boundary origin + k*period strictly after `from`, then every
  // boundary up to and including `to`.
  sim::Time t;
  if (from < origin_) {
    t = origin_;
  } else {
    const sim::Time k = (from - origin_) / period_ + 1;
    t = origin_ + k * period_;
  }
  for (; t <= to; t += period_) sampleAt(t);
}

void MetricSampler::sampleAt(sim::Time t) {
  shard_.assertHeld();
  for (std::size_t i = 0; i < series_.size(); ++i) {
    Series& s = series_[i];
    Watch& w = watch_state_[i];
    if (const Counter* c = registry_->findCounter(s.key.component, s.key.node,
                                                  s.key.name)) {
      const std::uint64_t v = c->value();
      // A counter is "written" iff its value moved (it is monotonic).
      if (s.mode == Mode::kEveryTick || v != w.last_counter) {
        s.points.push_back(Point{t, static_cast<double>(v)});
      }
      w.last_counter = v;
    } else if (const Gauge* g = registry_->findGauge(s.key.component,
                                                     s.key.node, s.key.name)) {
      // The version counter distinguishes "re-set to the same value"
      // (emit) from "untouched since last sample" (suppress); a gauge
      // never written at all (version 0) emits nothing in kOnChange.
      if (s.mode == Mode::kEveryTick || g->version() != w.last_gauge_version) {
        s.points.push_back(Point{t, g->value()});
      }
      w.last_gauge_version = g->version();
    }
    // Unresolved key: the metric may be registered later; no point yet.
  }
}

const MetricSampler::Series* MetricSampler::find(
    const std::string& component, const std::string& node,
    const std::string& name) const {
  shard_.assertHeld();
  for (const auto& s : series_) {
    if (s.key.component == component && s.key.node == node &&
        s.key.name == name) {
      return &s;
    }
  }
  return nullptr;
}

void MetricSampler::writeCsv(std::ostream& os) const {
  shard_.assertHeld();
  ExportWriter w(os);
  w.put("component,node,name,t_ns,value\n");
  for (const auto& s : series_) {
    for (const auto& p : s.points) {
      w.put(s.key.component).put(',').put(s.key.node).put(',');
      w.put(s.key.name).put(',').putInt(p.t).put(',').putG6(p.value);
      w.put('\n');
    }
  }
  w.flush();
}

void MetricSampler::clear() {
  shard_.assertHeld();
  for (auto& s : series_) s.points.clear();
  for (auto& w : watch_state_) w = Watch{};
}

// -- Chrome trace-event export ----------------------------------------------

namespace {

std::vector<std::string> escapeAll(const std::vector<std::string>& names) {
  std::vector<std::string> out;
  out.reserve(names.size());
  for (const auto& name : names) out.push_back(jsonEscaped(name));
  return out;
}

}  // namespace

void writeChromeTrace(std::ostream& os, const SpanTracker& spans,
                      const Timeline& timeline, const MetricSampler& sampler) {
  // The accessors throw while lane buffers hold unfolded events, before
  // anything is written.
  const std::vector<SpanRecord>& records = spans.records();
  const std::vector<TimelineEvent>& tl_events = timeline.events();
  const std::vector<std::string>& tracks = timeline.trackNames();
  const std::vector<MetricSampler::Series>& series = sampler.series();

  // Span names are indexed by slot: 0 for an id outside the table
  // (printed "-"), id + 1 otherwise.
  const std::size_t span_slots = spans.names().size() + 1;
  auto spanSlot = [&](std::int16_t id) -> std::size_t {
    return id >= 0 && static_cast<std::size_t>(id) + 1 < span_slots
               ? static_cast<std::size_t>(id) + 1
               : 0;
  };
  auto spanName = [&](std::size_t slot) -> const std::string& {
    return spans.name(static_cast<std::int16_t>(static_cast<int>(slot) - 1));
  };
  std::vector<std::string> series_keys;
  series_keys.reserve(series.size());
  for (const auto& s : series) series_keys.push_back(s.key.str());

  // Tids: span layers that occur in a record, then every timeline
  // track, then every series key, each group numbered in sorted-name
  // order (equal names share a tid), so numbering does not depend on
  // interning order.  The maps are per name; events look their tid up
  // by id in the vectors below.
  std::vector<std::pair<int, std::string>> thread_rows;  // tid, escaped
  int next_tid = 1;
  auto number = [&](std::map<std::string, int>& tids) {
    for (auto& [name, tid] : tids) {
      tid = next_tid++;
      thread_rows.emplace_back(tid, jsonEscaped(name));
    }
  };
  std::vector<int> layer_tid(span_slots, 0);
  for (const auto& rec : records) layer_tid[spanSlot(rec.layer)] = 1;
  std::map<std::string, int> span_tids;
  for (std::size_t slot = 0; slot < span_slots; ++slot) {
    if (layer_tid[slot] != 0) span_tids.emplace("span/" + spanName(slot), 0);
  }
  number(span_tids);
  for (std::size_t slot = 0; slot < span_slots; ++slot) {
    if (layer_tid[slot] != 0) {
      layer_tid[slot] = span_tids.at("span/" + spanName(slot));
    }
  }
  std::map<std::string, int> track_tids;
  for (const auto& name : tracks) track_tids.emplace(name, 0);
  number(track_tids);
  std::vector<int> track_tid;
  for (const auto& name : tracks) track_tid.push_back(track_tids.at(name));
  std::map<std::string, int> series_tids;
  for (const auto& key : series_keys) series_tids.emplace(key, 0);
  number(series_tids);
  std::vector<int> series_tid;
  for (const auto& key : series_keys) series_tid.push_back(series_tids.at(key));

  // Names, escaped once per id: span names by slot (event names and
  // the node/link/reason args), labels and series keys by index.
  std::vector<std::string> span_esc{jsonEscaped(spanName(0))};
  for (const auto& name : spans.names()) span_esc.push_back(jsonEscaped(name));
  const auto label_esc = escapeAll(timeline.labelNames());
  const auto series_esc = escapeAll(series_keys);

  // Every event as a compact (ts, seq) key, seq = position in the
  // record order spans, timeline, series points.  Keys are bucketed by
  // tid (a counting sort, so each bucket keeps seq order) and a bucket
  // is sorted by (ts, seq) only when its timestamps are out of order —
  // the order a stable sort of all events by (tid, ts) gives.
  std::vector<std::size_t> series_seq;  // first seq of each series
  std::size_t total = records.size() + tl_events.size();
  for (const auto& s : series) {
    series_seq.push_back(total);
    total += s.points.size();
  }
  auto forEachEvent = [&](auto&& visit) {
    std::size_t seq = 0;
    for (const auto& rec : records) {
      visit(layer_tid[spanSlot(rec.layer)], rec.t_open, seq++);
    }
    for (const auto& ev : tl_events) {
      visit(track_tid[static_cast<std::size_t>(ev.track)], ev.t, seq++);
    }
    for (std::size_t i = 0; i < series.size(); ++i) {
      for (const auto& p : series[i].points) visit(series_tid[i], p.t, seq++);
    }
  };
  struct Key {
    sim::Time ts = 0;
    std::size_t seq = 0;
  };
  std::vector<std::size_t> bucket(static_cast<std::size_t>(next_tid) + 1, 0);
  forEachEvent([&](int tid, sim::Time, std::size_t) {
    ++bucket[static_cast<std::size_t>(tid) + 1];
  });
  for (std::size_t t = 1; t < bucket.size(); ++t) bucket[t] += bucket[t - 1];
  std::vector<Key> keys(total);
  {
    std::vector<std::size_t> fill(bucket.begin(), bucket.end() - 1);
    forEachEvent([&](int tid, sim::Time ts, std::size_t seq) {
      keys[fill[static_cast<std::size_t>(tid)]++] = Key{ts, seq};
    });
  }
  for (std::size_t t = 0; t + 1 < bucket.size(); ++t) {
    const auto first = keys.begin() + static_cast<std::ptrdiff_t>(bucket[t]);
    const auto last = keys.begin() + static_cast<std::ptrdiff_t>(bucket[t + 1]);
    auto byTs = [](const Key& a, const Key& b) { return a.ts < b.ts; };
    if (!std::is_sorted(first, last, byTs)) {
      std::sort(first, last, [](const Key& a, const Key& b) {
        return a.ts != b.ts ? a.ts < b.ts : a.seq < b.seq;
      });
    }
  }

  ExportWriter w(os);
  w.put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  auto startRecord = [&](std::string_view head) {
    if (!first) w.put(",\n");
    first = false;
    w.put(head);
  };
  for (const auto& [tid, name] : thread_rows) {
    startRecord("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    w.putInt(tid).put(",\"args\":{\"name\":\"").put(name).put("\"}}");
  }
  auto eventHead = [&](const std::string& name, char ph, int tid,
                       sim::Time ts) {
    startRecord("{\"name\":\"");
    w.put(name).put("\",\"ph\":\"").put(ph).put("\",\"pid\":1,\"tid\":");
    w.putInt(tid).put(",\"ts\":").putMicros(ts);
  };
  auto quoted = [&](std::string_view field, std::int16_t id) {
    if (id < 0) return;
    w.put(field).put(span_esc[spanSlot(id)]).put('"');
  };
  const std::size_t tl_begin = records.size();
  const std::size_t series_begin = tl_begin + tl_events.size();
  for (std::size_t t = 1; t < static_cast<std::size_t>(next_tid); ++t) {
    for (std::size_t k = bucket[t]; k < bucket[t + 1]; ++k) {
      const std::size_t seq = keys[k].seq;
      const int tid = static_cast<int>(t);
      if (seq < tl_begin) {
        const SpanRecord& rec = records[seq];
        eventHead(span_esc[spanSlot(rec.layer)], 'X', tid, rec.t_open);
        w.put(",\"dur\":").putMicros(rec.duration());
        w.put(",\"args\":{\"trace_id\":").putInt(rec.trace_id);
        quoted(",\"node\":\"", rec.node);
        quoted(",\"link\":\"", rec.link);
        w.put(",\"outcome\":\"").put(spanOutcomeName(rec.outcome)).put('"');
        quoted(",\"reason\":\"", rec.reason);
        if (rec.root) w.put(",\"root\":1");
        w.put("}}");
      } else if (seq < series_begin) {
        const TimelineEvent& ev = tl_events[seq - tl_begin];
        const std::string& label =
            label_esc[static_cast<std::size_t>(ev.label)];
        if (ev.dur > 0) {
          eventHead(label, 'X', tid, ev.t);
          w.put(",\"dur\":").putMicros(ev.dur).put('}');
        } else {
          eventHead(label, 'i', tid, ev.t);
          w.put(",\"s\":\"t\"}");
        }
      } else {
        const std::size_t i = static_cast<std::size_t>(
            std::upper_bound(series_seq.begin(), series_seq.end(), seq) -
            series_seq.begin() - 1);
        const MetricSampler::Point& p = series[i].points[seq - series_seq[i]];
        eventHead(series_esc[i], 'C', tid, p.t);
        w.put(",\"args\":{\"value\":").putG6(p.value).put("}}");
      }
    }
  }
  w.put("\n]}\n");
  w.flush();
}

// -- Per-hop decomposition --------------------------------------------------

std::vector<HopSegment> decomposeTrace(const SpanTracker& spans,
                                       std::uint64_t trace_id) {
  const std::vector<SpanRecord> all = spans.traceSpans(trace_id);
  const SpanRecord* root = nullptr;
  for (const auto& rec : all) {
    if (rec.root) {
      root = &rec;
      break;
    }
  }
  std::vector<HopSegment> out;
  if (root == nullptr) return out;

  const sim::Time t_end = root->t_close;
  sim::Time cursor = root->t_open;
  auto gapUntil = [&](sim::Time t) {
    if (t > cursor) {
      out.push_back(HopSegment{"unattributed", "", "", cursor, t - cursor});
      cursor = t;
    }
  };

  // Hop spans in t_open order, clipped to [root.t_open, root.t_close]
  // and to the part not already attributed — overlapping spans (a layer
  // span enclosing a link span) attribute the overlap to the
  // earlier-starting span.
  for (const auto& rec : all) {
    if (rec.root) continue;
    const sim::Time start = std::max(rec.t_open, cursor);
    const sim::Time end = std::min(rec.t_close, t_end);
    if (end <= start) continue;
    gapUntil(start);
    out.push_back(HopSegment{spans.name(rec.layer), spans.name(rec.node),
                             spans.name(rec.link), start, end - start});
    cursor = end;
  }
  gapUntil(t_end);
  return out;
}

}  // namespace vini::obs
