// The event-loop profiler.
//
// Attributes real (wall-clock) time and event counts to the component
// that scheduled each event, using the static tag string attached at
// schedule() time ("phys.link", "xorp.ospf", ...).  Untagged events are
// pooled under "untagged".  Events carrying a node attribution (the
// node-attributed schedule overloads) are additionally broken out per
// (tag, node), so a hot node is visible separately from a hot
// component — the per-tag view in stats() aggregates across nodes as
// before.
//
// On a sharded queue the hook runs inside lane contexts (serially: an
// installed profile hook makes the shard runtime run lanes one after
// another), where the queue's node-name table belongs to the main
// thread.  So the hot path records the node tag only, and nodeStats()
// and writeCsv() resolve names when read, on the main thread.
//
// The profiler observes wall-clock only — it never schedules events or
// touches simulated time, so attaching it cannot perturb a run.  The
// EventQueue reads the clock only while a profiler is attached; with no
// profiler the per-event cost is a single branch.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace vini::obs {

class EventLoopProfiler {
 public:
  struct HandlerStat {
    std::uint64_t events = 0;
    std::int64_t wall_ns = 0;
  };

  EventLoopProfiler() = default;
  ~EventLoopProfiler() { detach(); }

  EventLoopProfiler(const EventLoopProfiler&) = delete;
  EventLoopProfiler& operator=(const EventLoopProfiler&) = delete;

  /// Start attributing the queue's handler time to this profiler.
  /// Replaces any previously installed profiler on the queue.
  void attach(sim::EventQueue& queue);
  /// Stop profiling; accumulated stats, node names included, are
  /// retained for reading.
  void detach();

  /// Per-tag stats (aggregated across nodes), sorted by tag (std::map)
  /// — deterministic iteration.
  const std::map<std::string, HandlerStat>& stats() const { return stats_; }
  /// Per-(tag, node) stats; node is "-" for unattributed events.  Call
  /// on the main thread.
  std::map<std::pair<std::string, std::string>, HandlerStat> nodeStats() const;
  std::uint64_t totalEvents() const { return total_events_; }
  std::int64_t totalWallNs() const { return total_wall_ns_; }

  /// "tag,node,events,wall_ns" rows sorted by (tag, node).
  void writeCsv(std::ostream& os) const;

  void clear();

 private:
  void onEvent(const char* tag, sim::NodeTag node, std::int64_t wall_ns);
  /// The attached queue's name for `node`, or the copy detach() kept.
  const std::string& nodeName(sim::NodeTag node) const;

  sim::EventQueue* queue_ = nullptr;
  std::map<std::string, HandlerStat> stats_;
  std::map<std::pair<std::string, sim::NodeTag>, HandlerStat> node_stats_;
  /// The queue's node names as of detach().
  std::vector<std::string> node_names_;
  std::uint64_t total_events_ = 0;
  std::int64_t total_wall_ns_ = 0;
};

}  // namespace vini::obs
