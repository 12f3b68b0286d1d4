// The one fold order for per-lane obs buffers.
//
// Under the sharded engine the ordered obs streams — packet tracer,
// timeline, span tracker — do not write their shared tables while lanes
// are armed.  Each worker lane appends to its own buffer, and the main
// thread appends to a trailing main pseudo-lane.  Obs::foldShardLanes()
// then replays every buffer in laneTimeOrder(): by timestamp, then lane
// index (the main pseudo-lane, last, loses ties), then the order the
// lane issued them.  A lane's buffer holds the same items at every
// thread count, so the replayed stream, and every export built from it,
// is thread-count invariant.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/time.h"

namespace vini::obs {

/// One buffered item: entry `idx` of lane `lane`'s buffer, at time `t`.
struct LaneSlot {
  sim::Time t = 0;
  std::size_t lane = 0;
  std::size_t idx = 0;
};

/// Every item of `lanes` buffers, in (t, lane, issue-order) order.
/// `buffer_of(l)` returns lane l's buffer: an indexable container whose
/// items carry a `t` field.
template <typename BufferOf>
std::vector<LaneSlot> laneTimeOrder(std::size_t lanes, BufferOf&& buffer_of) {
  std::vector<LaneSlot> slots;
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto& buf = buffer_of(l);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      slots.push_back(LaneSlot{buf[i].t, l, i});
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const LaneSlot& a, const LaneSlot& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.lane != b.lane) return a.lane < b.lane;
              return a.idx < b.idx;
            });
  return slots;
}

}  // namespace vini::obs
