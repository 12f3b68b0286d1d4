// Experiment event schedule.
//
// Section 6.2: "In an ns simulation, an experimenter can generate
// traffic and routing streams, specify times when certain links should
// fail, and define the traces that should be collected.  VINI should
// provide similar facilities."  EventSchedule is that facility: labelled
// actions at absolute times, with an execution log so a run can be
// audited afterwards.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace vini::core {

class EventSchedule {
 public:
  explicit EventSchedule(sim::EventQueue& queue) : queue_(queue) {}

  /// Run `action` at absolute time `when`, recording `label` in the log.
  void at(sim::Time when, const std::string& label, std::function<void()> action);

  /// Convenience: seconds-based overload used by fault schedules.
  void atSeconds(double when_s, const std::string& label,
                 std::function<void()> action) {
    at(sim::fromSeconds(when_s), label, std::move(action));
  }

  struct LogEntry {
    sim::Time when = 0;
    std::string label;
  };
  const std::vector<LogEntry>& log() const { return log_; }
  std::size_t scheduledCount() const { return scheduled_; }

 private:
  sim::EventQueue& queue_;
  std::vector<LogEntry> log_;
  std::size_t scheduled_ = 0;
};

}  // namespace vini::core
